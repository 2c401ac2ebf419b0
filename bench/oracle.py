"""Independent reference values for the benchmark's checks.

Plain numpy, written from the model's published formulas and conventions
only; nothing from the spinoeqc package is imported or reused, so a fault
in the package cannot cancel out of a check.

Model (basis |H C>, index 2*H + C):

* enhancement   eps(t) = 1 + (eps0 - 1) * exp(-t / T1)
* deviation     d = (u/2) * (eps_H * gamma_ratio * Z_H + eps_C * Z_C),
                Z_H = diag(1, 1, -1, -1), Z_C = diag(1, -1, 1, -1)
* labeling      experiment i applies the population cycle that moves every
                non-ground population i steps along increasing index; the
                weights (first weight 1) equalize the non-ground populations
                of the weighted sum, and q2 = ground - common non-ground
                population, rescaled to weights summing to 3
* enhancement   |q2(enhanced)| / |q2(thermal)|, each at its best ground
"""

from __future__ import annotations

import numpy as np

Z_H = np.array([1.0, 1.0, -1.0, -1.0])
Z_C = np.array([1.0, -1.0, 1.0, -1.0])
N_EXPERIMENTS = 3
# a weight system this badly conditioned has no usable solution
SINGULAR_RCOND = 1e-12


def enhancement_at(eps0: float, t1: float, t: float) -> float:
    return 1.0 + (eps0 - 1.0) * np.exp(-t / t1)


def deviation_diagonal(eps_h: float, eps_c: float, gamma_ratio: float = 4.0,
                       unit: float = 1.0) -> np.ndarray:
    return 0.5 * unit * (eps_h * gamma_ratio * Z_H + eps_c * Z_C)


def probe_times(single: bool, start: float, recovery: float) -> list[float]:
    """Probe instants: one decaying sample re-probed every recovery gap, or
    three fresh samples all probed at the start."""
    if single:
        return [start + i * recovery for i in range(N_EXPERIMENTS)]
    return [start] * N_EXPERIMENTS


def expected_diagonals(single: bool, start: float, recovery: float,
                       eps0_h: float = -11.0, eps0_c: float = 18.0,
                       t1_xe: float = 900.0, gamma_ratio: float = 4.0,
                       unit: float = 1.0) -> list[np.ndarray]:
    return [
        deviation_diagonal(enhancement_at(eps0_h, t1_xe, t),
                           enhancement_at(eps0_c, t1_xe, t), gamma_ratio, unit)
        for t in probe_times(single, start, recovery)
    ]


def cycle_matrix(ground: int, steps: int) -> np.ndarray:
    """Permutation matrix moving each non-ground population `steps` places
    along the sorted non-ground indices, built one element at a time."""
    nonground = [i for i in range(4) if i != ground]
    m = np.zeros((4, 4))
    m[ground, ground] = 1.0
    for k, src in enumerate(nonground):
        m[nonground[(k + steps) % 3], src] = 1.0
    return m


def label(diags, ground: int) -> dict | None:
    """Weights, q2 (weights summing to 3) and the weighted diagonal for one
    ground, or None when the weight system is singular."""
    nonground = [i for i in range(4) if i != ground]
    permuted = [cycle_matrix(ground, i) @ d for i, d in enumerate(diags)]
    a = np.array([
        [v[nonground[0]] - v[nonground[1]] for v in permuted],
        [v[nonground[1]] - v[nonground[2]] for v in permuted],
        [1.0, 0.0, 0.0],
    ])
    if np.linalg.cond(a) * SINGULAR_RCOND > 1.0:
        return None
    weights = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
    total = sum(w * v for w, v in zip(weights, permuted))
    q2 = total[ground] - total[nonground].mean()
    return {"ground": ground, "weights": weights, "diagonal": total,
            "q2": q2 * N_EXPERIMENTS / weights.sum()}


def best_label(diags) -> dict:
    """Brute force over all four grounds: the largest |q2| wins."""
    found = [r for r in (label(diags, g) for g in range(4)) if r is not None]
    return max(found, key=lambda r: abs(r["q2"]))


def thermal_diagonal(gamma_ratio: float = 4.0, unit: float = 1.0) -> np.ndarray:
    return deviation_diagonal(1.0, 1.0, gamma_ratio, unit)


def enhancement(diags, gamma_ratio: float = 4.0, unit: float = 1.0) -> float:
    thermal = best_label([thermal_diagonal(gamma_ratio, unit)] * N_EXPERIMENTS)
    return abs(best_label(diags)["q2"]) / abs(thermal["q2"])


def marked_element(target: str) -> str:
    """The one-query search returns the marked element itself."""
    return target
