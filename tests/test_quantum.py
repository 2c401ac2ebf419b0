from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinoeqc.quantum import DensityMatrix, Unitary, apply_unitary, compose, populations
from spinoeqc.spins import SpinSystemConfig, enhanced_state, thermal_state

SZ = np.diag([1.0, -1.0])
EYE2 = np.eye(2)


def maximally_mixed(dim=4) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def dagger(u: Unitary) -> Unitary:
    return Unitary(u.matrix.conj().T)


@dataclass(frozen=True)
class DeviationPart:
    """Result of the deviation decomposition: rho = q*I + dev."""

    q: float
    dev: np.ndarray = field(repr=False)

    def __post_init__(self):
        dev = np.array(self.dev, dtype=complex)
        dev.setflags(write=False)
        object.__setattr__(self, "dev", dev)

    @property
    def dim(self) -> int:
        return self.dev.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return self.dev.diagonal().real.copy()

    def reconstruct(self) -> DensityMatrix:
        return DensityMatrix(self.q * np.eye(self.dim) + self.dev)


def deviation_decompose(rho: DensityMatrix) -> DeviationPart:
    """Split rho into the identity background q*I, q = Tr(rho)/dim, and the
    traceless deviation that carries every NMR-detectable quantity."""
    q = rho.trace / rho.dim
    return DeviationPart(q=q, dev=rho.matrix - q * np.eye(rho.dim))


def random_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return Unitary(q * (np.diag(r) / np.abs(np.diag(r))))


def random_density(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.zeros((2, 3)))

    def test_matrix_is_immutable(self):
        rho = maximally_mixed()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_basis_state(self):
        rho = DensityMatrix.basis_state(2)
        assert_allclose(populations(rho), [0, 0, 1, 0])
        assert rho.trace == 1.0


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Unitary(np.diag([1.0, 1.0, 1.0, 2.0]))

    def test_compose_applies_left_to_right(self):
        a = Unitary(np.kron(np.array([[0, 1], [1, 0]]), EYE2))  # X on H
        b = Unitary(np.diag([1, 1, 1, -1]))
        assert_allclose(compose(a, b).matrix, b.matrix @ a.matrix)


class TestDeviationDecompose:
    def test_identity_quarter(self):
        part = deviation_decompose(maximally_mixed())
        assert part.q == pytest.approx(0.25)
        assert_allclose(part.dev, np.zeros((4, 4)), atol=1e-15)

    def test_two_level_diagonal(self):
        part = deviation_decompose(DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0]))
        assert part.q == pytest.approx(0.25)
        assert_allclose(part.diagonal, [0.25, 0.25, -0.25, -0.25])

    def test_thermal_deviation_matches_zeeman_algebra(self):
        # oracle: build the deviation directly from gr*Sz(x)I + I(x)Sz
        cfg = SpinSystemConfig(gamma_ratio=4.0)
        expected = 0.5 * (4.0 * np.kron(SZ, EYE2) + np.kron(EYE2, SZ))
        part = deviation_decompose(thermal_state(cfg))
        assert_allclose(part.dev, expected, atol=1e-14)
        assert_allclose(part.diagonal, [2.5, 1.5, -1.5, -2.5])

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(rng)
            part = deviation_decompose(rho)
            back = part.reconstruct()
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-14
            assert abs(np.trace(part.dev)) <= 1e-12 * max(np.abs(part.dev).max(), 1e-30)


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        rho = DensityMatrix.from_diagonal([0.4, 0.3, 0.2, 0.1])
        out = apply_unitary(rho, Unitary(np.eye(4)))
        assert_allclose(out.matrix, rho.matrix)

    def test_bit_flip_on_first_spin(self):
        x_on_h = Unitary(np.kron(np.array([[0, 1], [1, 0]]), EYE2))
        out = apply_unitary(DensityMatrix.basis_state(0), x_on_h)
        assert_allclose(out.matrix, DensityMatrix.basis_state(2).matrix)

    def test_90_degree_pulse_equalizes_thermal_populations(self):
        # oracle: exp(-i pi/4 sy) per spin via eigendecomposition
        sy = np.array([[0, -1j], [1j, 0]])
        vals, vecs = np.linalg.eigh(sy)
        r = vecs @ np.diag(np.exp(-1j * np.pi / 4 * vals)) @ vecs.conj().T
        u = Unitary(np.kron(r, r))
        out = apply_unitary(thermal_state(SpinSystemConfig()), u)
        assert_allclose(populations(out), [0.25] * 4, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(DensityMatrix(np.eye(2) / 2), Unitary(np.eye(4)))

    def test_trace_spectrum_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = random_density(rng)
            u = random_unitary(rng)
            out = apply_unitary(rho, u)
            assert abs(out.trace - rho.trace) <= 1e-12
            assert_allclose(
                np.sort(np.linalg.eigvalsh(out.matrix)),
                np.sort(np.linalg.eigvalsh(rho.matrix)),
                atol=1e-10,
            )
            # undo restores the state
            back = apply_unitary(out, dagger(u))
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-12


class TestPopulations:
    def test_maximally_mixed(self):
        assert_allclose(populations(maximally_mixed()), [0.25] * 4)

    def test_ground_state(self):
        assert_allclose(populations(DensityMatrix.basis_state(0)), [1, 0, 0, 0])

    def test_enhanced_state_deviation_diagonal(self):
        rho = enhanced_state(SpinSystemConfig(), -11.0, 18.0)
        assert_allclose(populations(rho) - 0.25, [-13.0, -31.0, 31.0, 13.0])
