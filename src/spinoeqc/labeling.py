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
equal gives two linear equations in the weights, and the normalization
row w_1 = 1 closes the 3x3 system. The result has the
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
# of DEFAULT_PERM_ORDER, and that of its non-ground states
_SOURCES = np.array([[cycle_source_indices(p, g) for p in DEFAULT_PERM_ORDER] for g in range(4)])
_NONGROUND = np.array([[i for i in range(4) if i != g] for g in range(4)])
_NONGROUND_SOURCES = np.take_along_axis(_SOURCES, _NONGROUND[:, None, :], axis=2)
_EXPERIMENTS = np.arange(3)
# a weight system's right-hand side (equal non-ground sums, then w_1 = 1)
_UNIT_RHS = np.array([[0.0], [0.0], [1.0]])
_IDENTITY = np.eye(3)
_GROUNDS = (0, 1, 2, 3)


@functools.lru_cache(maxsize=8)
def _ground_indices(grounds: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per ground: its sources, those of its weight system's two difference
    rows (non-ground, experiment), its row, and its states, ground first."""
    g = np.array(grounds, dtype=int)
    terms = _NONGROUND_SOURCES[g].swapaxes(1, 2)
    order = np.concatenate((g[:, None], _NONGROUND[g]), axis=1)
    return _SOURCES[g], terms[:, :2], terms[:, 1:], np.arange(g.size)[:, None], order


def _labeled(diags, grounds, weights=None) -> tuple[np.ndarray, ...]:
    """Permute the (..., experiment, state) diagonals once per ground, solve
    the weight systems of all `grounds` as one batch unless the weights are
    given, and score each weighted sum. Returns one row per ground after the
    leading axes: weighted diagonals, weights, q1, q2, residuals, systems
    (None when the weights are given) and singular flags (see `_result`)."""
    ds = np.asarray(diags, dtype=float)
    sources, plus, minus, rows, order = _ground_indices(tuple(grounds))
    permuted = ds[..., _EXPERIMENTS[:, None], sources]  # (..., ground, experiment, state)
    if weights is None:
        # rows 0 and 1 equalize neighbouring non-ground sums, row 2 fixes w_1
        a = np.empty(permuted.shape[:-1] + (3,))
        a[..., :2, :] = ds[..., _EXPERIMENTS, plus] - ds[..., _EXPERIMENTS, minus]
        a[..., 2, :] = (1.0, 0.0, 0.0)
        # 1/cond(a), the smallest over the largest singular value
        s = np.linalg.svd(a, compute_uv=False)
        singular = s[..., -1] < SINGULARITY_RTOL * s[..., 0]
        # each system alone, the identity standing in for a singular one
        w = np.linalg.solve(np.where(singular[..., None, None], _IDENTITY, a), _UNIT_RHS)[..., 0]
        w[singular] = 0.0
    else:
        a, singular = None, np.zeros(permuted.shape[:-2], dtype=bool)
        w = np.broadcast_to(np.asarray(weights, dtype=float), singular.shape + (3,))
    diagonal = (w[..., None] * permuted).sum(axis=-2)
    ordered = diagonal[..., rows, order]
    ng = ordered[..., 1:]
    q1 = ng.sum(axis=-1) / 3
    q2 = ordered[..., 0] - q1
    residual = ng.max(axis=-1) - ng.min(axis=-1)
    return diagonal, w, q1, q2, residual, a, singular


def _result(labeled, k, ground: int) -> EffectivePureResult:
    """The result at index k, for `ground`, of a `_labeled` batch. Raises
    SingularLabelingSystem, with the system, when that row's is singular."""
    diagonal, w, q1, q2, residual, a, singular = labeled
    if singular[k]:
        system = a[k].tolist()
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
    result = _result(_labeled(_as_diags(diags), (plan.ground,)), 0, plan.ground)
    return result.weights, result.residual


def assemble_effective_pure(diags, plan: LabelingPlan, weights) -> EffectivePureResult:
    """Weighted sum of the permuted diagonals, scored as q1*I + q2*|g><g|."""
    result = _result(_labeled(_as_diags(diags), (plan.ground,), weights), 0, plan.ground)
    _warn_unless_equalized(result.diagonal, np.array(result.residual), stacklevel=3)
    return result


def label(diags) -> EffectivePureResult:
    """Label the diagonals on the ground giving the largest |q2| at fixed
    experiment count, and return that ground's result.

    Every candidate ground is scored by solving its weight system (all
    four as one batch) and rescaling the weights to sum to 3, which models
    constant per-experiment noise. Exact sign-mirror ties are structural
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
    labeled = _labeled(_as_diags(diags, batched=True), _GROUNDS)
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
