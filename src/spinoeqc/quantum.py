"""Dense density-matrix representation and exact unitary evolution.

Everything here is sized for a handful of qubits (the rest of the package
uses n=2 exclusively), so states and operators are plain dense complex
matrices.

Basis convention for two spins (used throughout the package): product
states are ordered |H C>, index = 2*H + C, i.e. |00>, |01>, |10>, |11>,
with |0> meaning spin up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-12


def _frozen_complex(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian complex matrix holding populations and coherences.

    Unit trace is the normal case (all state constructors produce it) but
    is not enforced: weighted accumulations of deviation parts reuse this
    container. Hermiticity is validated on construction and never repaired
    silently; numerical drift is supposed to surface, not vanish.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _frozen_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        asym = np.abs(m - m.conj().T).max()
        if asym > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @classmethod
    def from_diagonal(cls, diag) -> "DensityMatrix":
        return cls(np.diag(np.asarray(diag, dtype=complex)))

    @classmethod
    def basis_state(cls, index: int, dim: int = 4) -> "DensityMatrix":
        """|index><index| as a density matrix."""
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)


@dataclass(frozen=True)
class Unitary:
    """Validated unitary operator (U U† = I within 1e-12 per element)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _frozen_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        err = np.abs(m @ m.conj().T - np.eye(m.shape[0])).max()
        if err > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max |U U† - I| = {err:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def compose(*steps: Unitary) -> Unitary:
    """Product of unitaries in time order: compose(A, B) applies A first."""
    if not steps:
        raise ValueError("compose needs at least one unitary")
    total = steps[0].matrix
    for u in steps[1:]:
        total = u.matrix @ total
    return Unitary(total)


def apply_unitary(rho: DensityMatrix, u: Unitary) -> DensityMatrix:
    """Evolve rho -> U rho U†. Trace and eigenvalues are preserved."""
    if rho.dim != u.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, unitary {u.dim}")
    return DensityMatrix(u.matrix @ rho.matrix @ u.matrix.conj().T)


def populations(rho: DensityMatrix) -> np.ndarray:
    """Real diagonal of rho (populations in the computational basis)."""
    return rho.matrix.diagonal().real.copy()
