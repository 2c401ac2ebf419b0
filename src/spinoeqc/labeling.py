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
diagonals, so the polarization scale does not decide it. The result has the
form q1*I + q2*|ground><ground| where q2 = ground population minus the
common non-ground population; q2 is the signal-bearing coefficient, and
ratios of q2 (at a common weight normalization) measure how much
polarization enhancement survives into the effective pure state.

Negative or zero weights are legal outputs: the algebra permits them and
they flag pathological schedules rather than being hidden.
"""

from __future__ import annotations

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

    def normalized_q2(self) -> float:
        """q2 rescaled so the weights sum to 3 (one unit per experiment)."""
        total = float(self.weights.sum())
        if total == 0.0:
            raise SingularLabelingSystem("weights sum to zero; cannot normalize")
        return self.q2 * 3.0 / total


def permute_populations(diag, perm_id: PermutationId, ground: int) -> np.ndarray:
    """Apply a population cycle to a diagonal; ground entry is untouched."""
    d = np.asarray(diag, dtype=float)
    src = cycle_source_indices(perm_id, ground)
    return d[list(src)]


def _as_diags(diags, batched: bool = False) -> np.ndarray:
    """Three population vectors of length 4 (per row when `batched`), checked."""
    ds = np.asarray(diags, dtype=float)
    if ds.shape[batched:] != (3, 4):
        raise ValueError("expected three population vectors of length 4")
    return ds


# per ground: the source index of every population under each permutation
# of DEFAULT_PERM_ORDER, and its non-ground states
_SOURCES = np.array([[cycle_source_indices(p, g) for p in DEFAULT_PERM_ORDER] for g in range(4)])
_NONGROUND = np.array([[i for i in range(4) if i != g] for g in range(4)])
_EXPERIMENTS = np.arange(3)
_GROUNDS = (0, 1, 2, 3)
# per ground: the sources of its two equalization rows (non-ground,
# experiment), its row, and its states, ground first
_TERMS = np.take_along_axis(_SOURCES, _NONGROUND[:, None, :], axis=2).swapaxes(1, 2)
_PLUS, _MINUS = _TERMS[:, :2], _TERMS[:, 1:]
_ROWS = np.arange(4)[:, None]
_ORDER = np.concatenate((_ROWS, _NONGROUND), axis=1)
# each weight's two neighbours, cyclically
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _labeled(diags, weights=None) -> tuple[np.ndarray, ...]:
    """Permute the (..., experiment, state) diagonals once per ground, solve
    the weights of all four grounds in closed form (see the module
    docstring) unless they are given, and score each weighted sum. Returns
    one row per ground after the leading axes: weighted diagonals, weights,
    q1, q2, residuals, equalization rows r0 and r1 (None when the weights
    are given) and singular flags (see `_result`)."""
    ds = np.asarray(diags, dtype=float)
    permuted = ds[..., _EXPERIMENTS[:, None], _SOURCES]  # (..., ground, experiment, state)
    if weights is None:
        # r0 and r1 equalize neighbouring non-ground sums; M is a[..., 1:]
        a = ds[..., _EXPERIMENTS, _PLUS] - ds[..., _EXPERIMENTS, _MINUS]
        # c = r0 × r1 written out (np.cross costs more than the arithmetic):
        # c_i = r0[i+1] r1[i+2] - r0[i+2] r1[i+1]
        nxt, prv = a[..., _NEXT], a[..., _PREV]
        # a zero, overflowing or NaN c_0 fails the bound and is zeroed below
        with np.errstate(all="ignore"):
            c = nxt[..., 0, :] * prv[..., 1, :] - prv[..., 0, :] * nxt[..., 1, :]
            m = a[..., 1:]
            singular = ~(np.abs(c[..., 0]) > SINGULARITY_RTOL * (m * m).sum(axis=(-2, -1)))
            w = c / c[..., :1]
        w[singular] = 0.0
    else:
        a, singular = None, np.zeros(permuted.shape[:-2], dtype=bool)
        w = np.broadcast_to(np.asarray(weights, dtype=float), singular.shape + (3,))
    diagonal = (w[..., None] * permuted).sum(axis=-2)
    ordered = diagonal[..., _ROWS, _ORDER]
    ng = ordered[..., 1:]
    q1 = ng.sum(axis=-1) / 3
    q2 = ordered[..., 0] - q1
    residual = ng.max(axis=-1) - ng.min(axis=-1)
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


def _warn_unless_equalized(diagonal, residual, stacklevel: int) -> None:
    """Warn, `stacklevel` frames up, of each unequalized (..., state) diagonal."""
    tol = EQUALIZATION_TOL * np.maximum(np.abs(diagonal).max(axis=-1), 1e-300)
    for spread in residual[residual > tol]:
        warnings.warn(
            f"non-ground populations not equalized (spread {spread:.3e})",
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
    _warn_unless_equalized(result.diagonal, np.array(result.residual), stacklevel=3)
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
    total = w.sum(axis=-1)
    scores = q2 * 3.0 / np.where(total != 0.0, total, np.inf)
    magnitude = np.abs(scores)
    best_abs = magnitude.max(axis=-1)
    tied = magnitude >= best_abs[:, None] * (1 - GROUND_TIE_RTOL)
    # among the tied grounds: positive q2 first, then the lowest index
    best = np.where(tied, 4 * (scores <= 0) + _GROUNDS, 8).argmin(axis=-1)
    rows = best_abs.nonzero()[0]
    chosen = rows, best[rows]
    _warn_unless_equalized(diagonal[chosen], residual[chosen], stacklevel)
    return [
        _result(labeled, (k, ground), ground) if top != 0.0
        else SingularLabelingSystem("every candidate ground yields q2 = 0")
        for k, (ground, top) in enumerate(zip(best.tolist(), best_abs.tolist()))
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
