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
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
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
    (how well the equalization actually closed).
    """

    diagonal: np.ndarray = field(repr=False)
    weights: np.ndarray
    ground: int
    q1: float
    q2: float
    residual: float

    def __post_init__(self):
        # read-only: one result is shared by every run on a preparation
        for name in ("diagonal", "weights"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @functools.cached_property
    def equalized(self) -> bool:
        """Whether the non-ground populations are equal within EQUALIZATION_TOL
        of the largest population (`UnequalizedLabeling` warns otherwise)."""
        return not _unequalized(self.diagonal, self.residual)

    def normalized_q2(self) -> float:
        """q2 rescaled so the weights sum to 3 (one unit per experiment)."""
        total = float(np.add.reduce(self.weights))
        if total == 0.0:
            raise SingularLabelingSystem("weights sum to zero; cannot normalize")
        return self.q2 * 3.0 / total


def permute_populations(diag, perm_id: PermutationId, ground: int) -> np.ndarray:
    """Apply a population cycle to a diagonal; ground entry is untouched."""
    d = np.asarray(diag, dtype=float)
    src = cycle_source_indices(perm_id, ground)
    return d[list(src)]


def _as_diags(diags, batched: bool = False) -> np.ndarray:
    """Three finite diagonals of length 4 (per row when `batched`), checked:
    the one validation point of the labeling's inputs."""
    ds = np.asarray(diags, dtype=float)
    if ds.shape[batched:] != (3, 4):
        raise ValueError("expected three population vectors of length 4")
    if not np.logical_and.reduce(np.isfinite(ds), axis=None):
        raise ValueError("diagonals must be finite")
    return ds


# per ground: the source index of every population under each permutation
# of DEFAULT_PERM_ORDER, and its non-ground states
_SOURCES = np.array([[cycle_source_indices(p, g) for p in DEFAULT_PERM_ORDER] for g in range(4)])
_NONGROUND = np.array([[i for i in range(4) if i != g] for g in range(4)])
# the diagonals are gathered flat, as (..., experiment * 4 + state): per
# ground the (experiment, state) populations it weights
_PERMUTED = 4 * np.arange(3)[:, None] + _SOURCES
# per ground the flat source of each (non-ground state, experiment); an
# equalization row a is plus - minus of neighbouring non-ground states, and
# _PLUS/_MINUS gather it at experiment shifts 0, 1 and 2 (a, and each
# weight's cyclic neighbours a[i+1] and a[i+2]): (ground, shift, row, experiment)
_TERMS = np.take_along_axis(_PERMUTED, _NONGROUND[:, None, :], axis=2).swapaxes(1, 2)
_SHIFTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
_PLUS, _MINUS = (terms[:, :, _SHIFTS].swapaxes(1, 2) for terms in (_TERMS[:, :2], _TERMS[:, 1:]))
# per ground the flat (ground, state) index of its states, ground first
_ORDER = 4 * np.arange(4)[:, None] + np.concatenate((np.arange(4)[:, None], _NONGROUND), axis=1)


def _labeled(diags, weights=None) -> tuple[np.ndarray, ...]:
    """Permute the (..., experiment, state) diagonals once per ground, solve
    the weights of all four grounds in closed form (see the module
    docstring) unless they are given, and score each weighted sum. Returns
    one row per ground after the leading axes: weighted diagonals, weights,
    q1, q2, residuals, equalization rows r0 and r1 (None when the weights
    are given) and singular flags (see `_result`)."""
    ds = np.asarray(diags, dtype=float)
    flat = ds.reshape(ds.shape[:-2] + (12,))
    permuted = flat.take(_PERMUTED, axis=-1)  # (..., ground, experiment, state)
    if weights is None:
        shifted = flat.take(_PLUS, axis=-1) - flat.take(_MINUS, axis=-1)
        # r0 and r1 equalize neighbouring non-ground sums; M is a[..., 1:]
        a = shifted[..., 0, :, :]
        # c = r0 × r1 written out (np.cross costs more than the arithmetic):
        # c_i = r0[i+1] r1[i+2] - r0[i+2] r1[i+1], shifts 1 and 2 of r0 times
        # shifts 2 and 1 of r1 in one product
        # a zero, overflowing or NaN c_0 fails the bound, a weight c / c_0
        # past the float range is not finite, and both are zeroed below
        with np.errstate(all="ignore"):
            products = shifted[..., 1:, 0, :] * shifted[..., :0:-1, 1, :]
            c = products[..., 0, :] - products[..., 1, :]
            m = a[..., 1:]
            bound = SINGULARITY_RTOL * np.add.reduce(m * m, axis=(-2, -1))
            w = c / c[..., :1]
            finite = np.logical_and.reduce(np.isfinite(w), axis=-1)
            singular = ~((np.abs(c[..., 0]) > bound) & finite)
        np.copyto(w, 0.0, where=singular[..., None])
    else:
        a, singular = None, np.zeros(permuted.shape[:-2], dtype=bool)
        w = np.broadcast_to(np.asarray(weights, dtype=float), singular.shape + (3,))
    # ufunc reductions: each ndarray method adds a Python call
    diagonal = np.add.reduce(w[..., None] * permuted, axis=-2)
    ordered = diagonal.reshape(diagonal.shape[:-2] + (16,)).take(_ORDER, axis=-1)
    ng = ordered[..., 1:]
    q1 = np.add.reduce(ng, axis=-1) / 3
    q2 = ordered[..., 0] - q1
    residual = np.maximum.reduce(ng, axis=-1) - np.minimum.reduce(ng, axis=-1)
    return diagonal, w, q1, q2, residual, a, singular


def _result(labeled, k, ground: int) -> EffectivePureResult:
    """The result at index k, for `ground`, of a `_labeled` batch. Raises
    SingularLabelingSystem, with the 3x3 system (the equalization rows, then
    w_1 = 1), when that row's is singular."""
    diagonal, w, q1, q2, residual, a, singular = labeled
    if singular[k]:
        system = [*a[k].tolist(), [1.0, 0.0, 0.0]]
        raise SingularLabelingSystem(f"weight system is singular for ground {ground}: a={system}")
    return EffectivePureResult(
        diagonal[k], w[k], ground, float(q1[k]), float(q2[k]), float(residual[k])
    )


def _unequalized(diagonal, residual):
    """Whether each (..., state) diagonal, of non-ground spread `residual`,
    is not equalized."""
    return residual > EQUALIZATION_TOL * np.maximum.reduce(
        np.abs(diagonal), axis=-1, initial=1e-300)


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
    result = _result(_labeled(_as_diags(diags)), plan.ground, plan.ground)
    return result.weights, result.residual


def assemble_effective_pure(diags, plan: LabelingPlan, weights) -> EffectivePureResult:
    """Weighted sum of the permuted diagonals, scored as q1*I + q2*|g><g|."""
    result = _result(_labeled(_as_diags(diags), weights), plan.ground, plan.ground)
    if not result.equalized:
        _warn_unequalized(result.residual, stacklevel=3)
    return result


def label(diags) -> EffectivePureResult:
    """Label the diagonals on the ground giving the largest |q2| at fixed
    experiment count, and return that ground's result.

    Every candidate ground is scored by solving its weight system (all
    four at once, in closed form) and rescaling the weights to sum to 3,
    which models constant per-experiment noise. Exact sign-mirror ties are structural
    for enhancement-scaled diagonals, so ties in |q2| prefer positive q2
    (an upright pseudo-pure state), then the lowest index. Only the
    returned result is built and checked for equalization.
    """
    (outcome,) = label_batch([diags], stacklevel=4)
    if isinstance(outcome, SingularLabelingSystem):
        raise outcome
    return outcome


def label_batch(diags, stacklevel: int = 3) -> list[EffectivePureResult | SingularLabelingSystem]:
    """`label`, or the SingularLabelingSystem it raises, of every (experiment,
    state) row of `diags` as one batch; warnings point `stacklevel` frames up."""
    labeled = _labeled(_as_diags(diags, batched=True))
    diagonal, w, _, q2, residual, _, _ = labeled
    # `normalized_q2` of every ground that has one (a singular system's weights are 0)
    total = np.add.reduce(w, axis=-1)
    scores = q2 * 3.0 / np.where(total != 0.0, total, np.inf)
    magnitude = np.abs(scores)
    best_abs = np.maximum.reduce(magnitude, axis=-1)
    tied = magnitude >= best_abs[:, None] * (1 - GROUND_TIE_RTOL)
    # the first tied ground with positive q2, else the first tied one
    best = np.where(tied, scores <= 0, 2).argmin(axis=-1)
    picks = list(zip(best.tolist(), best_abs.tolist()))
    unequalized, spreads = _unequalized(diagonal, residual).tolist(), residual.tolist()
    for k, (ground, top) in enumerate(picks):
        if top != 0.0 and unequalized[k][ground]:
            _warn_unequalized(spreads[k][ground], stacklevel)
    return [
        _result(labeled, (k, ground), ground) if top != 0.0
        else SingularLabelingSystem("every candidate ground yields q2 = 0")
        for k, (ground, top) in enumerate(picks)
    ]


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
