"""Weighted temporal labeling: turning mixed diagonal states into an
effective pure state.

Classic temporal averaging sums the outcomes of 2^n - 1 experiments whose
preparations cyclically permute all populations except a chosen ground
state; with identical inputs the non-ground populations equalize by
symmetry. When the inputs differ from experiment to experiment (decaying
or irreproducible polarization), plain summation no longer equalizes, but
a weighted sum

    rho_eff = sum_i w_i * P_i rho_init_i P_i†

still can: requiring the three non-ground populations of the sum to be
equal gives two linear equations r0·w = 0 and r1·w = 0 in the weights, and
the normalization w_1 = 1 fixes their null vector. So the weights are, in
closed form, the cross product c = r0 × r1 over its first entry c_0, the
determinant of the 2x2 system M that w_2 and w_3 solve once w_1 = 1. A
system is singular when |c_0| <= SINGULARITY_RTOL·||M||_F^2, to first
order s_min < SINGULARITY_RTOL·s_max of M: both sides scale alike with the
diagonals, so the polarization scale does not decide it. It is singular
too when a weight c_i / c_0 is not finite, as when the diagonals of the
experiments lie so many decades apart that the quotient leaves the float
range: such weights would turn the weighted sum to NaN. The result has the
form q1*I + q2*|ground><ground| where q2 = ground population minus the
common non-ground population; q2 is the signal-bearing coefficient, and
ratios of q2 (at a common weight normalization) measure how much
polarization enhancement survives into the effective pure state.

Negative or zero weights are legal outputs: the algebra permits them and
they flag pathological schedules rather than being hidden.

The arithmetic runs in Python floats, one row of 12 populations (three
diagonals) and one ground at a time: on 12 numbers a numpy call costs
more in its wrapper than in its arithmetic. `label_row` labels one row of
floats, as a preparation hands it over; `_finite` is the one rule that
the entries are finite, applied once per row: by `label_row` to its row,
and by `_as_diags` to the row of an array input. The floats are those
that the same formulas give over arrays: sums run left to right from
0.0, as numpy's reductions do, max and min propagate NaN as `np.maximum`
and `np.minimum` do, a zero c_0 is singular without a division, and an
overflow goes to inf without a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import ClassVar

import numpy as np

from .spins import PermutationId, cycle_source_indices

DEFAULT_PERM_ORDER = (
    PermutationId.IDENTITY,
    PermutationId.CYCLE,
    PermutationId.CYCLE2,
)

EQUALIZATION_TOL = 1e-9
SINGULARITY_RTOL = 1e-12
# enhancement-scaled diagonals give exact sign-mirror ties between two
# grounds; probe-reconstructed inputs break them only at the reconstruction
# noise level, so candidates this close count as tied
GROUND_TIE_RTOL = 1e-3


class SingularLabelingSystem(ValueError):
    """The weight system has no usable solution (degenerate inputs)."""


class UnequalizedLabeling(UserWarning):
    """The weighted sum leaves the non-ground populations unequal: their
    spread exceeds EQUALIZATION_TOL of the largest population."""


@dataclass(frozen=True)
class LabelingPlan:
    """Ground-state choice; the permutation order is the method's."""

    ground: int
    perms: ClassVar[tuple[PermutationId, ...]] = DEFAULT_PERM_ORDER

    def __post_init__(self):
        if self.ground not in (0, 1, 2, 3):
            raise ValueError("ground must be a state index 0..3")


@dataclass(frozen=True, eq=False)
class EffectivePureResult:
    """Assembled weighted sum and its pure-state score.

    diagonal is the (not unit trace) weighted population sum, q1 the
    common non-ground population, q2 = ground population - q1, and
    residual the max-minus-min spread of the non-ground populations
    (how well the equalization actually closed). equalized is whether
    that spread is within EQUALIZATION_TOL of the largest population
    (`UnequalizedLabeling` warns otherwise).
    """

    diagonal: np.ndarray = field(repr=False)
    weights: np.ndarray
    ground: int
    q1: float
    q2: float
    residual: float
    equalized: bool

    def __post_init__(self):
        # built from the labeling's floats, read-only: one result is shared
        # by every run on a preparation
        for name in ("diagonal", "weights"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def normalized_q2(self) -> float:
        """q2 rescaled so the weights sum to 3 (one unit per experiment)."""
        w0, w1, w2 = self.weights.tolist()
        total = w0 + w1 + w2
        if total == 0.0:
            raise SingularLabelingSystem("weights sum to zero; cannot normalize")
        return self.q2 * 3.0 / total


def permute_populations(diag, perm_id: PermutationId, ground: int) -> np.ndarray:
    """Apply a population cycle to a diagonal; ground entry is untouched."""
    d = np.asarray(diag, dtype=float)
    src = cycle_source_indices(perm_id, ground)
    return d[list(src)]


def _finite(x: list) -> list:
    """The floats `x`, if every one is finite: the one finiteness rule of
    the labeling's inputs."""
    if not all(map(math.isfinite, x)):
        raise ValueError("diagonals must be finite")
    return x


def _as_diags(diags) -> list[float]:
    """Three diagonals of length 4 as a row of 12 `_finite` floats
    (experiment * 4 + state): the one validation point of the labeling's
    array inputs."""
    ds = np.asarray(diags, dtype=float)
    if ds.shape != (3, 4):
        raise ValueError("expected three population vectors of length 4")
    return _finite(ds.ravel().tolist())


# per ground, the flat index (experiment * 4 + state) of the population
# that each experiment's permutation moves into the ground and then into
# each non-ground state, in increasing state order
_GATHERS = tuple(
    itemgetter(*(
        4 * e + cycle_source_indices(perm, g)[s]
        for e, perm in enumerate(DEFAULT_PERM_ORDER)
        for s in (g, *(i for i in range(4) if i != g))
    ))
    for g in range(4)
)


def _labeled(x, ground: int, weights=None) -> tuple:
    """Label a row `x`, the 12 floats of three diagonals flat as experiment *
    4 + state, on `ground`: permute the populations, solve the weights in
    closed form (see the module docstring) unless they are given as three
    floats, and score the weighted sum. Returns the weighted diagonal, the
    weights, q1, q2, the residual, the equalization rows r0 and r1 (None
    when the weights are given) and whether the system is singular (see
    `_result`). The floats are numpy's: sums run left to right from 0.0,
    and max and min propagate NaN."""
    # per experiment, its ground population g and non-ground ones i, j, k
    g0, i0, j0, k0, g1, i1, j1, k1, g2, i2, j2, k2 = _GATHERS[ground](x)
    rows = None
    singular = False
    if weights is None:
        # r0 and r1 equalize neighbouring non-ground sums; M is their last
        # two columns, and c = r0 × r1
        r00, r01, r02 = i0 - j0, i1 - j1, i2 - j2
        r10, r11, r12 = j0 - k0, j1 - k1, j2 - k2
        rows = [[r00, r01, r02], [r10, r11, r12]]
        c0 = r01 * r12 - r02 * r11
        c1 = r02 * r10 - r00 * r12
        c2 = r00 * r11 - r01 * r10
        bound = SINGULARITY_RTOL * (0.0 + r01 * r01 + r02 * r02 + r11 * r11 + r12 * r12)
        # a zero, overflowing or NaN c_0 fails the bound, so nothing divides
        # by zero, and a weight c / c_0 past the float range is not finite
        w0 = w1 = w2 = 0.0
        singular = True
        if abs(c0) > bound:
            w = (c0 / c0, c1 / c0, c2 / c0)
            if math.isfinite(w[0]) and math.isfinite(w[1]) and math.isfinite(w[2]):
                (w0, w1, w2), singular = w, False
    else:
        w0, w1, w2 = weights
    on_ground = 0.0 + w0 * g0 + w1 * g1 + w2 * g2
    a = 0.0 + w0 * i0 + w1 * i1 + w2 * i2
    b = 0.0 + w0 * j0 + w1 * j1 + w2 * j2
    c = 0.0 + w0 * k0 + w1 * k1 + w2 * k2
    q1 = (0.0 + a + b + c) / 3
    # the spread as `np.maximum` and `np.minimum` give it: NaN if either
    # operand is, else the larger (smaller), the second of two equal
    hi = a if a > b or a != a else b
    lo = a if a < b or a != a else b
    residual = (hi if hi > c or hi != hi else c) - (lo if lo < c or lo != lo else c)
    diagonal = [a, b, c]
    diagonal.insert(ground, on_ground)
    return diagonal, [w0, w1, w2], q1, on_ground - q1, residual, rows, singular


def _result(labeled, ground: int) -> EffectivePureResult:
    """The result of a `_labeled` row for `ground`. Raises
    SingularLabelingSystem, with the 3x3 system (the equalization rows, then
    w_1 = 1), when it is singular."""
    diagonal, w, q1, q2, residual, rows, singular = labeled
    if singular:
        system = [*rows, [1.0, 0.0, 0.0]]
        raise SingularLabelingSystem(f"weight system is singular for ground {ground}: a={system}")
    return EffectivePureResult(
        diagonal, w, ground, q1, q2, residual, not _unequalized(diagonal, residual)
    )


def _unequalized(diagonal, residual: float) -> bool:
    """Whether a diagonal, of non-ground spread `residual`, is not equalized
    (a NaN population leaves it equalized, as the largest is NaN)."""
    largest = 1e-300
    for d in diagonal:
        largest = largest if largest > abs(d) or largest != largest else abs(d)
    return residual > EQUALIZATION_TOL * largest


def _warn_unequalized(spread: float, stacklevel: int) -> None:
    """Warn, `stacklevel` frames up, of a non-ground spread not equalized."""
    warnings.warn(
        f"non-ground populations not equalized (spread {spread:.3e})", UnequalizedLabeling,
        stacklevel=stacklevel,
    )


def solve_weights(diags, plan: LabelingPlan) -> tuple[np.ndarray, float]:
    """Solve for the weights that equalize the non-ground populations.

    Returns (weights, residual) where residual is the non-ground spread of
    the assembled sum. Raises SingularLabelingSystem when the permuted
    inputs cannot be equalized (e.g. all-zero diagonals or linearly
    dependent columns), with the offending system in the message.
    """
    result = _result(_labeled(_as_diags(diags), plan.ground), plan.ground)
    return result.weights, result.residual


def assemble_effective_pure(diags, plan: LabelingPlan, weights) -> EffectivePureResult:
    """Weighted sum of the permuted diagonals, scored as q1*I + q2*|g><g|."""
    w = np.broadcast_to(np.asarray(weights, dtype=float), (3,)).tolist()
    result = _result(_labeled(_as_diags(diags), plan.ground, w), plan.ground)
    if not result.equalized:
        _warn_unequalized(result.residual, stacklevel=3)
    return result


def label(diags) -> EffectivePureResult:
    """Label the diagonals on the ground giving the largest |q2| at fixed
    experiment count, and return that ground's result.

    Every candidate ground is scored by solving its weight system (in
    closed form) and rescaling the weights to sum to 3, which models
    constant per-experiment noise. Exact sign-mirror ties are structural
    for enhancement-scaled diagonals, so ties in |q2| prefer positive q2
    (an upright pseudo-pure state), then the lowest index. Only the
    returned result is built and checked for equalization.
    """
    outcome = _label(_as_diags(diags))
    if isinstance(outcome, SingularLabelingSystem):
        raise outcome
    return outcome


def _pick(grounds) -> tuple[int, float]:
    """The ground that `label` picks from the `_labeled` rows of the four
    grounds, and the largest |q2| at weights summing to 3."""
    scores = []
    for _, (w0, w1, w2), _, q2, _, _, _ in grounds:
        # `normalized_q2`, or 0 for a singular system (its weights are 0)
        total = w0 + w1 + w2
        scores.append(q2 * 3.0 / (total if total != 0.0 else math.inf))
    s0, s1, s2, s3 = scores
    m0, m1, m2, m3 = abs(s0), abs(s1), abs(s2), abs(s3)
    # the largest magnitude, NaN if any is (as `np.maximum`)
    top = m0 if m0 > m1 or m0 != m0 else m1
    top = top if top > m2 or top != top else m2
    top = top if top > m3 or top != top else m3
    floor = top * (1 - GROUND_TIE_RTOL)
    # the first tied ground with positive q2, else the first tied one, else
    # ground 0 (none is tied to a NaN top). floor > 0 unless every score is
    # 0, and then ground 0 is picked either way, so a score of at least
    # floor is a tied positive one
    return (0 if s0 >= floor else 1 if s1 >= floor else 2 if s2 >= floor else
            3 if s3 >= floor else 0 if m0 >= floor else 1 if m1 >= floor else
            2 if m2 >= floor else 3 if m3 >= floor else 0), top


def label_row(x) -> EffectivePureResult | SingularLabelingSystem:
    """`label`, or the SingularLabelingSystem it raises, of the 12 floats x
    of three diagonals (experiment * 4 + state), checked `_finite`;
    warnings point at its caller."""
    return _label(_finite(x))


def _label(x) -> EffectivePureResult | SingularLabelingSystem:
    """`label_row` of a row already checked `_finite`; warnings point at the
    caller of `label` or `label_row`."""
    grounds = [_labeled(x, g) for g in range(4)]
    ground, top = _pick(grounds)
    if top == 0.0:
        return SingularLabelingSystem("every candidate ground yields q2 = 0")
    result = _result(grounds[ground], ground)
    if not result.equalized:
        _warn_unequalized(result.residual, stacklevel=4)
    return result


def choose_ground(diags) -> int:
    """Ground state that `label` picks for these diagonals."""
    return label(diags).ground


def enhancement_factor(
    enh: EffectivePureResult, thermal_ref: EffectivePureResult
) -> float:
    """|q2| gain of an enhanced result over a thermal reference.

    Both sides are first rescaled to the sum-of-weights = 3 convention so
    the comparison is per experiment rather than per weight unit.
    """
    ref = thermal_ref.normalized_q2()
    if ref == 0.0:
        raise ValueError("thermal reference has q2 = 0")
    return abs(enh.normalized_q2()) / abs(ref)
