import enum
import importlib
import pkgutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinoeqc
from spinoeqc import readout, spins
from spinoeqc.quantum import DensityMatrix, Unitary, apply_unitary, compose, populations
from spinoeqc.spins import (
    Channel,
    PermutationId,
    PulseSpec,
    SpinSystemConfig,
    cycle_source_indices,
    enhanced_deviations,
    enhanced_state,
    permutation_pulse_sequence,
    pulse_unitary,
    thermal_state,
)

# spin-1/2 Iz x Iz diagonal, the J-coupling generator
IZIZ_DIAG = np.array([0.25, -0.25, -0.25, 0.25])


def j_evolution(cfg: SpinSystemConfig, duration: float) -> Unitary:
    """Free evolution exp(-i 2π J t Iz⊗Iz) for `duration` seconds.

    Diagonal with phases ±π J t / 2; duration 2/J is the identity up to a
    global phase.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    phases = -2j * np.pi * cfg.j_coupling * duration * IZIZ_DIAG
    return Unitary(np.diag(np.exp(phases)))


def cnot_unitary(control: Channel, target: Channel) -> Unitary:
    """Controlled-NOT between the two spins (control fires on |1>)."""
    if {control, target} != {Channel.H, Channel.C}:
        raise ValueError("control and target must be H and C in some order")
    m = np.zeros((4, 4))
    for h in (0, 1):
        for c in (0, 1):
            hh, cc = h, c
            if control is Channel.H and h == 1:
                cc ^= 1
            if control is Channel.C and c == 1:
                hh ^= 1
            m[2 * hh + cc, 2 * h + c] = 1.0
    return Unitary(m)


def expm_oracle(generator):
    """exp(-i G) for Hermitian G via eigendecomposition (independent path)."""
    vals, vecs = np.linalg.eigh(generator)
    return vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T


def strip_phase(u, reference):
    """Align the global phase of u against reference."""
    idx = np.unravel_index(np.abs(reference).argmax(), reference.shape)
    return u * (reference[idx] / u[idx])


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])


class TestConfig:
    @pytest.mark.parametrize("bad", [dict(gamma_ratio=0), dict(j_coupling=-1), dict(t2=0)])
    def test_rejects_nonpositive_constants(self, bad):
        with pytest.raises(ValueError):
            SpinSystemConfig(**bad)

    def test_pulse_tip_bounds(self):
        with pytest.raises(ValueError):
            PulseSpec(Channel.H, 0.0)
        with pytest.raises(ValueError):
            PulseSpec(Channel.H, 181.0)


class TestInitialStates:
    def test_thermal_deviation_gamma4(self):
        dev = populations(thermal_state(SpinSystemConfig(gamma_ratio=4.0))) - 0.25
        assert_allclose(dev, [2.5, 1.5, -1.5, -2.5])

    def test_thermal_deviation_homonuclear(self):
        dev = populations(thermal_state(SpinSystemConfig(gamma_ratio=1.0))) - 0.25
        assert_allclose(dev, [1.0, 0.0, 0.0, -1.0])

    def test_thermal_deviation_physical_ratio(self):
        dev = populations(thermal_state(SpinSystemConfig(gamma_ratio=3.976))) - 0.25
        assert_allclose(dev, [2.488, 1.488, -1.488, -2.488])

    def test_enhanced_at_unity_is_thermal_bit_exact(self):
        cfg = SpinSystemConfig(gamma_ratio=3.976, polarization_unit=0.73)
        assert np.array_equal(
            enhanced_state(cfg, 1.0, 1.0).matrix, thermal_state(cfg).matrix
        )

    def test_enhanced_demonstration_point(self):
        dev = populations(enhanced_state(SpinSystemConfig(), -11.0, 18.0)) - 0.25
        assert_allclose(dev, [-13.0, -31.0, 31.0, 13.0])

    def test_enhanced_state_wraps_the_read_only_deviations(self):
        # the density matrix is the one place that adds the I/4 part
        cfg = SpinSystemConfig(gamma_ratio=3.976, polarization_unit=0.73)
        d = enhanced_deviations(cfg, -11.0, 18.0)
        assert np.array_equal(populations(enhanced_state(cfg, -11.0, 18.0)), 0.25 + d)
        with pytest.raises(ValueError):
            d[0] = 1.0

    def test_zero_enhancement_is_maximally_mixed(self):
        rho = enhanced_state(SpinSystemConfig(), 0.0, 0.0)
        assert_allclose(rho.matrix, np.eye(4) / 4)

    def test_unit_trace_and_no_coherences_for_any_enhancement(self):
        cfg = SpinSystemConfig()
        rng = np.random.default_rng(5)
        for _ in range(50):
            eps_h, eps_c = rng.normal(0, 20, 2)
            rho = enhanced_state(cfg, eps_h, eps_c)
            assert rho.trace == pytest.approx(1.0, abs=1e-12)
            off = rho.matrix - np.diag(rho.matrix.diagonal())
            assert np.abs(off).max() == 0.0


class TestPulses:
    def test_180_x_on_h_is_bit_flip(self):
        u = pulse_unitary(PulseSpec(Channel.H, 180.0, phase=0.0)).matrix
        expected = np.kron(SX, np.eye(2))
        assert_allclose(strip_phase(u, expected), expected, atol=1e-12)

    def test_90_y_both_equalizes_z_populations(self):
        u = compose(*(pulse_unitary(PulseSpec(t, 90.0, phase=90.0)) for t in Channel))
        out = apply_unitary(thermal_state(SpinSystemConfig()), u)
        assert_allclose(populations(out), [0.25] * 4, atol=1e-12)

    def test_tiny_tip_approaches_identity(self):
        u = pulse_unitary(PulseSpec(Channel.C, 1e-7, phase=0.0)).matrix
        assert np.abs(u - np.eye(4)).max() < 1e-6

    # the simultaneous pulse on both spins is the H and C pulses composed
    @pytest.mark.parametrize(
        "targets",
        [(Channel.H,), (Channel.C,), (Channel.H, Channel.C)],
        ids=lambda targets: str(targets[0]) if len(targets) == 1 else "both",
    )
    @pytest.mark.parametrize("tip,phase", [(37.0, 0.0), (90.0, 90.0), (123.0, 45.0)])
    def test_matches_matrix_exponential_oracle(self, targets, tip, phase):
        theta = np.radians(tip)
        phi = np.radians(phase)
        gen1 = theta / 2 * (np.cos(phi) * SX + np.sin(phi) * SY)
        r = expm_oracle(gen1)
        expected = {
            (Channel.H,): np.kron(r, np.eye(2)),
            (Channel.C,): np.kron(np.eye(2), r),
            (Channel.H, Channel.C): np.kron(r, r),
        }[targets]
        got = compose(*(pulse_unitary(PulseSpec(t, tip, phase)) for t in targets)).matrix
        assert_allclose(got, expected, atol=1e-12)


class TestJEvolution:
    def test_zero_duration_is_identity(self):
        u = j_evolution(SpinSystemConfig(), 0.0).matrix
        assert_allclose(u, np.eye(4))

    def test_half_period_phases(self):
        cfg = SpinSystemConfig(j_coupling=215.0)
        u = j_evolution(cfg, 1.0 / (2 * cfg.j_coupling)).matrix
        expected = np.diag(np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1])))
        assert_allclose(u, expected, atol=1e-12)

    def test_full_period_is_identity_up_to_phase(self):
        cfg = SpinSystemConfig(j_coupling=215.0)
        u = j_evolution(cfg, 2.0 / cfg.j_coupling).matrix
        assert_allclose(strip_phase(u, np.eye(4)), np.eye(4), atol=1e-12)

    def test_commutes_with_diagonal_states(self):
        cfg = SpinSystemConfig()
        rho = enhanced_state(cfg, -3.0, 7.0)
        out = apply_unitary(rho, j_evolution(cfg, 0.0123))
        assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            j_evolution(SpinSystemConfig(), -1.0)


class TestPermutations:
    def test_identity(self):
        u = permutation_pulse_sequence(PermutationId.IDENTITY, 0)
        assert_allclose(u.matrix, np.eye(4))

    def test_cycle_ground_00_moves_populations(self):
        rho = DensityMatrix.from_diagonal([0.4, 0.3, 0.2, 0.1])
        u = permutation_pulse_sequence(PermutationId.CYCLE, 0)
        # (g, a, b, c) -> (g, c, a, b)
        assert_allclose(populations(apply_unitary(rho, u)), [0.4, 0.1, 0.3, 0.2])

    def test_cycle_pair_is_inverse(self):
        for ground in range(4):
            c1 = permutation_pulse_sequence(PermutationId.CYCLE, ground)
            c2 = permutation_pulse_sequence(PermutationId.CYCLE2, ground)
            assert_allclose(compose(c1, c2).matrix, np.eye(4), atol=1e-14)

    def test_ground_fixed_and_multiset_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            diag = rng.normal(size=4)
            diag /= diag.sum() or 1.0
            ground = rng.integers(0, 4)
            perm = rng.choice(list(PermutationId))
            rho = DensityMatrix.from_diagonal(diag)
            out = populations(
                apply_unitary(rho, permutation_pulse_sequence(perm, ground))
            )
            assert out[ground] == pytest.approx(diag[ground], abs=1e-15)
            assert_allclose(np.sort(out), np.sort(diag), atol=1e-15)

    def test_cycle_at_ground_00_is_a_cnot_pair(self):
        gate_pair = compose(
            cnot_unitary(control=Channel.C, target=Channel.H),
            cnot_unitary(control=Channel.H, target=Channel.C),
        )
        perm = permutation_pulse_sequence(PermutationId.CYCLE, 0)
        assert_allclose(gate_pair.matrix, perm.matrix)

    def test_source_indices_reject_bad_ground(self):
        with pytest.raises(ValueError):
            cycle_source_indices(PermutationId.CYCLE, 4)


class TestCnot:
    def test_truth_table_control_h(self):
        u = cnot_unitary(control=Channel.H, target=Channel.C)
        for h in (0, 1):
            for c in (0, 1):
                out = apply_unitary(DensityMatrix.basis_state(2 * h + c), u)
                assert populations(out)[2 * h + (c ^ h)] == pytest.approx(1.0)

    def test_same_spin_rejected(self):
        with pytest.raises(ValueError):
            cnot_unitary(control=Channel.H, target=Channel.H)


def test_one_enum_names_the_nuclei():
    # an NMR channel both pulses its nucleus and receives its signal, so one
    # enum, H first, serves pulses and spectra behind every import path
    modules = [importlib.import_module(f"spinoeqc.{info.name}")
               for info in pkgutil.iter_modules(spinoeqc.__path__)]
    nuclei = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, enum.Enum)
        and {"H", "C"} <= {member.name for member in obj}
    }
    assert nuclei == {Channel}
    assert list(Channel) == [Channel.H, Channel.C]
    assert readout.Channel is spins.Channel
    assert not hasattr(spinoeqc, "PulseTarget") and not hasattr(spins, "PulseTarget")
