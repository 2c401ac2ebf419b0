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
        return _normalized_q2(self.q2, self.weights)


def _normalized_q2(q2: float, weights: np.ndarray) -> float:
    total = float(np.sum(weights))
    if total == 0.0:
        raise SingularLabelingSystem("weights sum to zero; cannot normalize")
    return q2 * 3.0 / total


def permute_populations(diag, perm_id: PermutationId, ground: int) -> np.ndarray:
    """Apply a population cycle to a diagonal; ground entry is untouched."""
    d = np.asarray(diag, dtype=float)
    src = cycle_source_indices(perm_id, ground)
    return d[list(src)]


def _as_diags(diags) -> np.ndarray:
    out = [np.asarray(d, dtype=float) for d in diags]
    if len(out) != 3 or any(d.shape != (4,) for d in out):
        raise ValueError("expected three population vectors of length 4")
    return np.array(out)


# per ground: the non-ground states, and the source index of every
# population (and of the non-ground ones) under each permutation of
# DEFAULT_PERM_ORDER
_NONGROUND = np.array([[i for i in range(4) if i != g] for g in range(4)])
_SOURCES = np.array([[cycle_source_indices(p, g) for p in DEFAULT_PERM_ORDER] for g in range(4)])
_NONGROUND_SOURCES = np.take_along_axis(_SOURCES, _NONGROUND[:, None, :], axis=2)
_EXPERIMENTS = np.arange(3)[:, None]


def _labeled(diags, grounds, weights=None) -> tuple[np.ndarray, ...]:
    """Permute the diagonals once per ground, solve the weight systems of
    all `grounds` as one batch unless the weights are given, and score each
    weighted sum: the one step behind the functions below. Returns batched
    arrays, one row per ground: the weighted diagonals, weights, q1, q2,
    residuals, weight systems (None when the weights are given) and
    singular flags (see `_result`)."""
    ds = _as_diags(diags)
    g = np.array(grounds, dtype=int)
    permuted = ds[_EXPERIMENTS, _SOURCES[g]]  # (ground, experiment, state)
    a, singular = None, np.zeros(g.size, dtype=bool)
    if weights is None:
        v = ds[_EXPERIMENTS, _NONGROUND_SOURCES[g]]  # (ground, experiment, non-ground)
        a = np.zeros((g.size, 3, 3))
        a[:, :2] = (v[..., :2] - v[..., 1:]).transpose(0, 2, 1)
        a[:, 2, 0] = 1.0
        # 1/cond(a), the smallest over the largest singular value
        s = np.linalg.svd(a, compute_uv=False)
        singular = s[:, -1] < SINGULARITY_RTOL * s[:, 0]
        w = np.zeros((g.size, 3))
        # right-hand sides as (ground, 3, 1) stacks: one meaning in every numpy
        rhs = np.zeros((int((~singular).sum()), 3, 1))
        rhs[:, 2] = 1.0
        w[~singular] = np.linalg.solve(a[~singular], rhs)[..., 0]
    else:
        w = np.broadcast_to(np.asarray(weights, dtype=float), (g.size, 3))
    diagonal = sum(w[:, i, None] * permuted[:, i] for i in range(3))
    ng = diagonal[np.arange(g.size)[:, None], _NONGROUND[g]]
    q1 = ng.mean(axis=1)
    q2 = diagonal[np.arange(g.size), g] - q1
    residual = ng.max(axis=1) - ng.min(axis=1)
    return diagonal, w, q1, q2, residual, a, singular


def _result(labeled, k: int, ground: int) -> EffectivePureResult:
    """The result of row k, for `ground`, of a `_labeled` batch. Raises
    SingularLabelingSystem, with the system, when that row's is singular."""
    diagonal, w, q1, q2, residual, a, singular = labeled
    if singular[k]:
        system = a[k].tolist()
        raise SingularLabelingSystem(f"weight system is singular for ground {ground}: a={system}")
    return EffectivePureResult(
        diagonal[k], w[k], ground, float(q1[k]), float(q2[k]), float(residual[k])
    )


def _warn_unless_equalized(result: EffectivePureResult) -> None:
    """Warn, at the caller of the public function, about a non-ground spread."""
    tol = EQUALIZATION_TOL * max(np.abs(result.diagonal).max(), 1e-300)
    if result.residual > tol:
        warnings.warn(
            f"non-ground populations not equalized (spread {result.residual:.3e})",
            stacklevel=3,
        )


def solve_weights(diags, plan: LabelingPlan) -> tuple[np.ndarray, float]:
    """Solve for the weights that equalize the non-ground populations.

    Returns (weights, residual) where residual is the non-ground spread of
    the assembled sum. Raises SingularLabelingSystem when the permuted
    inputs cannot be equalized (e.g. all-zero diagonals or linearly
    dependent columns), with the offending system in the message.
    """
    result = _result(_labeled(diags, (plan.ground,)), 0, plan.ground)
    return result.weights, result.residual


def assemble_effective_pure(diags, plan: LabelingPlan, weights) -> EffectivePureResult:
    """Weighted sum of the permuted diagonals, scored as q1*I + q2*|g><g|."""
    result = _result(_labeled(diags, (plan.ground,), weights), 0, plan.ground)
    _warn_unless_equalized(result)
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
    labeled = _labeled(diags, range(4))
    _, w, _, q2, _, _, singular = labeled
    scores: list[tuple[int, float]] = []
    for ground in np.flatnonzero(~singular).tolist():
        try:
            scores.append((ground, _normalized_q2(float(q2[ground]), w[ground])))
        except SingularLabelingSystem:
            continue
    best_abs = max((abs(score) for _, score in scores), default=0.0)
    if best_abs == 0.0:
        raise SingularLabelingSystem("every candidate ground yields q2 = 0")
    tied = [(g, score) for g, score in scores if abs(score) >= best_abs * (1 - GROUND_TIE_RTOL)]
    best = min(tied, key=lambda item: (item[1] <= 0, item[0]))[0]
    result = _result(labeled, best, best)
    _warn_unless_equalized(result)
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
