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

    @property
    def nonground(self) -> tuple[int, int, int]:
        return tuple(i for i in range(4) if i != self.ground)


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
        total = float(np.sum(self.weights))
        if total == 0.0:
            raise SingularLabelingSystem("weights sum to zero; cannot normalize")
        return self.q2 * 3.0 / total


def permute_populations(diag, perm_id: PermutationId, ground: int) -> np.ndarray:
    """Apply a population cycle to a diagonal; ground entry is untouched."""
    d = np.asarray(diag, dtype=float)
    src = cycle_source_indices(perm_id, ground)
    return d[list(src)]


def _as_diags(diags) -> list[np.ndarray]:
    out = [np.asarray(d, dtype=float) for d in diags]
    if len(out) != 3 or any(d.shape != (4,) for d in out):
        raise ValueError("expected three population vectors of length 4")
    return out


def _labeled(diags, plan: LabelingPlan, weights=None) -> EffectivePureResult:
    """Permute the diagonals once, solve the weights unless they are given,
    and score the weighted sum: the one step behind the functions below."""
    ds = _as_diags(diags)
    permuted = [permute_populations(d, p, plan.ground) for d, p in zip(ds, plan.perms)]
    j1, j2, j3 = plan.nonground
    if weights is None:
        a = np.zeros((3, 3))
        for col, v in enumerate(permuted):
            a[0, col] = v[j1] - v[j2]
            a[1, col] = v[j2] - v[j3]
        a[2] = (1.0, 0.0, 0.0)
        if np.abs(a).max() == 0 or 1.0 / np.linalg.cond(a) < SINGULARITY_RTOL:
            raise SingularLabelingSystem(
                f"weight system is singular for ground {plan.ground}: a={a.tolist()}"
            )
        weights = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
    w = np.asarray(weights, dtype=float)
    diagonal = sum(wi * v for wi, v in zip(w, permuted))
    ng = diagonal[[j1, j2, j3]]
    q1 = float(ng.mean())
    q2 = float(diagonal[plan.ground] - q1)
    residual = float(ng.max() - ng.min())
    return EffectivePureResult(
        diagonal=diagonal, weights=w, ground=plan.ground, q1=q1, q2=q2, residual=residual
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
    result = _labeled(diags, plan)
    return result.weights, result.residual


def assemble_effective_pure(diags, plan: LabelingPlan, weights) -> EffectivePureResult:
    """Weighted sum of the permuted diagonals, scored as q1*I + q2*|g><g|."""
    result = _labeled(diags, plan, weights)
    _warn_unless_equalized(result)
    return result


def label(diags) -> EffectivePureResult:
    """Label the diagonals on the ground giving the largest |q2| at fixed
    experiment count, and return that ground's result.

    Every candidate ground is scored by solving its weight system and
    rescaling the weights to sum to 3, which models constant per-experiment
    noise. Exact sign-mirror ties are structural for enhancement-scaled
    diagonals, so ties in |q2| prefer positive q2 (an upright pseudo-pure
    state), then the lowest index.
    """
    ds = _as_diags(diags)
    scores: list[tuple[EffectivePureResult, float]] = []
    for ground in range(4):
        try:
            result = _labeled(ds, LabelingPlan(ground))
            _warn_unless_equalized(result)
            scores.append((result, result.normalized_q2()))
        except SingularLabelingSystem:
            continue
    best_abs = max((abs(q2) for _, q2 in scores), default=0.0)
    if best_abs == 0.0:
        raise SingularLabelingSystem("every candidate ground yields q2 = 0")
    tied = [(r, q2) for r, q2 in scores if abs(q2) >= best_abs * (1 - GROUND_TIE_RTOL)]
    tied.sort(key=lambda item: (item[1] <= 0, item[0].ground))
    return tied[0][0]


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
