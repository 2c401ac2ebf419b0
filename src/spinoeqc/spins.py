"""Physics of the {1H, 13C} chloroform spin pair.

Conventions fixed here and relied on everywhere else:

* Basis |H C> with index = 2*H + C; |0> is spin up. `Channel` names the
  two nuclei, H first: an NMR channel both pulses its nucleus and
  receives its signal. Z_H and Z_C are the diagonals of their Pauli Z in
  this basis, and Z_H/2, Z_C/2 and Z_H Z_C/2 the orthonormal traceless
  deviation patterns the readout works in.
* The rotating frame puts both chemical-shift offsets at zero, so free
  evolution is J-coupling only.
* Thermal and enhancement-scaled states are diagonal:

      rho = I/4 + (u/2) * (eps_H * gr * Z_H + eps_C * Z_C)

  with Z_H = diag(1,1,-1,-1), Z_C = diag(1,-1,1,-1), gr the gyromagnetic
  ratio gamma_H/gamma_C and u the overall polarization unit. eps = 1 is
  thermal equilibrium; negative eps means inverted polarization.
  NMR sees only the deviation part, so outside the density-matrix
  constructors (`enhanced_state`, `thermal_state`) a state is its deviation
  diagonal (`enhanced_deviations`), without the I/4: that keeps its digits
  at any u.
* Population permutations fix a chosen ground state and cycle the other
  three populations. CYCLE moves the content of the non-ground states
  along increasing index order (for ground |00>: 01 -> 10 -> 11 -> 01);
  CYCLE2 is its inverse. The permutation matrix is the contract; for
  ground |00> it coincides with the gate product CNOT(H->C) CNOT(C->H).

Pulses are ideal: instantaneous, no off-resonance or B1 errors, and
relaxation during a sequence is neglected (sequences last well under a
second versus minutes-scale T1).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .quantum import DensityMatrix, Unitary

Z_H = np.array([1.0, 1.0, -1.0, -1.0])
Z_C = np.array([1.0, -1.0, 1.0, -1.0])


class Channel(enum.Enum):
    H = "H"
    C = "C"


class PermutationId(enum.Enum):
    IDENTITY = "identity"
    CYCLE = "cycle"
    CYCLE2 = "cycle2"


@dataclass(frozen=True)
class SpinSystemConfig:
    """Static constants of the simulated spin pair.

    gamma_ratio defaults to 4 (idealized 1H/13C ratio; the physical value
    is about 3.976). j_coupling is the one-bond CH coupling in Hz and t2
    the transverse decay time used when synthesizing detection.
    """

    gamma_ratio: float = 4.0
    j_coupling: float = 215.0
    t2: float = 0.5
    polarization_unit: float = 1.0

    def __post_init__(self):
        if self.gamma_ratio <= 0:
            raise ValueError("gamma_ratio must be positive")
        if self.j_coupling <= 0:
            raise ValueError("j_coupling must be positive")
        if self.t2 <= 0:
            raise ValueError("t2 must be positive")
        check_finite(gamma_ratio=self.gamma_ratio, j_coupling=self.j_coupling, t2=self.t2,
                     polarization_unit=self.polarization_unit)


def check_finite(**values) -> None:
    """Reject a value that is NaN, infinite or an integer past the float
    range, as `<name> must be finite`: NaN passes every comparison of a
    range rule, and such a value leaves no usable state, grid or draw."""
    for name, value in values.items():
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PulseSpec:
    """One ideal RF rotation: target channel, tip angle and phase in degrees.

    Phase 0 rotates about x, phase 90 about y.
    """

    target: Channel
    tip_angle: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.tip_angle <= 180:
            raise ValueError("tip_angle must be in (0, 180] degrees")


def enhanced_deviations(cfg: SpinSystemConfig, eps_h: float, eps_c: float) -> np.ndarray:
    """Read-only deviation diagonal of the state with per-nucleus
    enhancement factors: its populations less the I/4 part. Cross-relaxation
    transfer is incoherent, so enhanced states carry no coherences and this
    diagonal is all NMR sees of them. eps_h = eps_c = 1 reproduces thermal
    equilibrium; eps = 0 the fully mixed state, the zero diagonal. An
    entry past the float range is ±inf (NaN where u = 0 meets one), with no
    warning: the probe refuses such a state by name.
    """
    u = cfg.polarization_unit
    with np.errstate(over="ignore", invalid="ignore"):
        d = 0.5 * u * (eps_h * cfg.gamma_ratio * Z_H + eps_c * Z_C)
    d.flags.writeable = False
    return d


def enhanced_state(cfg: SpinSystemConfig, eps_h: float, eps_c: float) -> DensityMatrix:
    """`enhanced_deviations` plus I/4: the unit-trace density matrix, with
    zero coherences."""
    return DensityMatrix.from_diagonal(0.25 + enhanced_deviations(cfg, eps_h, eps_c))


def thermal_state(cfg: SpinSystemConfig) -> DensityMatrix:
    """High-temperature equilibrium state (both enhancements equal to 1)."""
    return enhanced_state(cfg, 1.0, 1.0)


def _rotation_2x2(tip_angle_deg: float, phase_deg: float) -> np.ndarray:
    # exp(-i*theta/2*(cos(phi) sx + sin(phi) sy)), written in closed form
    theta = np.radians(tip_angle_deg)
    phi = np.radians(phase_deg)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -1j * s * np.exp(-1j * phi)],
            [-1j * s * np.exp(1j * phi), c],
        ]
    )


def pulse_unitary(p: PulseSpec) -> Unitary:
    """Rotation on the targeted spin, identity on the other."""
    r = _rotation_2x2(p.tip_angle, p.phase)
    eye = np.eye(2)
    if p.target is Channel.H:
        return Unitary(np.kron(r, eye))
    return Unitary(np.kron(eye, r))


def cycle_source_indices(perm_id: PermutationId, ground: int) -> tuple[int, ...]:
    """Index map of a population permutation: new[j] = old[src[j]].

    The ground state stays put; CYCLE shifts the three remaining
    populations one step along increasing index order, CYCLE2 two steps.
    """
    if ground not in (0, 1, 2, 3):
        raise ValueError("ground must be a state index 0..3")
    src = list(range(4))
    ng = [i for i in range(4) if i != ground]
    if perm_id is PermutationId.CYCLE:
        src[ng[1]], src[ng[2]], src[ng[0]] = ng[0], ng[1], ng[2]
    elif perm_id is PermutationId.CYCLE2:
        src[ng[2]], src[ng[0]], src[ng[1]] = ng[0], ng[1], ng[2]
    return tuple(src)


def permutation_pulse_sequence(perm_id: PermutationId, ground: int) -> Unitary:
    """Unitary whose action on populations is the classical cycle.

    Returned directly as the permutation matrix (the contract); for ground
    |00> the CYCLE matrix equals CNOT(H->C) @ CNOT(C->H), i.e. it is a
    short CNOT sequence in gate terms.
    """
    src = cycle_source_indices(perm_id, ground)
    p = np.zeros((4, 4))
    p[np.arange(4), list(src)] = 1.0
    return Unitary(p)

