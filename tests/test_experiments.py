import fractions
import math
import re
import statistics
import traceback
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinoeqc.experiments import (
    DECODE_DOMINANCE,
    GROVER_TARGETS,
    DecodeError,
    DetectionSettings,
    GroverCase,
    ExperimentRecord,
    Preparation,
    _prepare,
    _readout_maps,
    effective_pure_report,
    grover_circuit,
    grover_diffusion,
    grover_oracle,
    grover_report,
    prepare_batch,
    relabel_unitary,
    run_effective_pure_pipeline,
    run_grover_pipeline,
    run_id,
)
from spinoeqc.labeling import DEFAULT_PERM_ORDER, SingularLabelingSystem
from spinoeqc.quantum import DensityMatrix, Unitary, apply_unitary, compose, populations
import spinoeqc
from spinoeqc import experiments, quantum, readout, spinoe
from spinoeqc.readout import (
    Channel,
    Detector,
    ReadoutError,
    integrate_peaks,
)
from spinoeqc.spinoe import (
    DEFAULT_R1_S, DEFAULT_RECOVERY_S, DEFAULT_SAMPLE_AGE_S, ScheduleMode, SpinoeParams,
    make_schedule,
)
from spinoeqc.spins import (
    PermutationId,
    PulseSpec,
    SpinSystemConfig,
    permutation_pulse_sequence,
    pulse_unitary,
)
from test_readout import (
    G_PATTERN, MODULES, assert_line_noise, assert_noise_spectra, coherences, conditioned_noise,
    fft_spectrum, probe_integrals, probe_map, probe_response_matrix, probe_solve, reference_noise,
    relative_gap,
)


def decode_answer(lines) -> str:
    """The answer that `_decide`, the pipelines' decode rule, reads from
    (channel, partner) lines, H then C, raising its DecodeError."""
    if np.shape(lines) != (2, 2):
        raise ValueError("the decode takes the (channel, partner) lines of both channels")
    (h0, h1), (c0, c1) = np.asarray(lines, dtype=float).tolist()
    answer, error = experiments._decide(h0, h1, c0, c1)
    if error is not None:
        raise DecodeError(error)
    return answer


CFG = SpinSystemConfig()
EPS = np.finfo(float).eps
ALL_CASES = [GroverCase(t) for t in ("00", "01", "10", "11")]


def hadamard_pulse_sequence(target: Channel) -> tuple[PulseSpec, PulseSpec]:
    """90°(y) then 180°(x): equals the Hadamard up to a global phase."""
    return (PulseSpec(target, 90.0, phase=90.0), PulseSpec(target, 180.0, phase=0.0))


def step_unitary(perm, ground, case):
    """Permutation and computation of one record, composed as a pipeline
    composed them before the readout map."""
    if case is None:
        post = Unitary(np.eye(4))
    else:
        post = compose(relabel_unitary(ground), grover_circuit(case))
    return compose(permutation_pulse_sequence(perm, ground), post)


def receiver_state(rho, step, channel):
    """Reference route of a readout: the step, then a 90° y-pulse on the
    observed spin, each through `apply_unitary`."""
    pulse = pulse_unitary(PulseSpec(channel, 90.0, phase=90.0))
    return apply_unitary(apply_unitary(rho, step), pulse)


def record_noise_vectors(rec):
    """The (channel, sample) reference readout noise vectors of a record,
    None when noise is off; the preparation's noise spectra are theirs."""
    prep = rec.preparation
    if prep.noise_integrals is None:
        return (None, None)
    vectors = reference_noise(prep.detector, prep.seed, prep.noise_integrals)
    assert_noise_spectra(prep.noise_spectra, vectors)
    return vectors[rec.index]


def assert_readout_spectra_match_the_oracle(run, params, detection, case):
    """Each record's exported readout spectra are its detection's own, and
    within 1e-14 of the FFT oracle on the state the eager route builds."""
    schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE, 25.0, DEFAULT_RECOVERY_S, 600.0)
    prep = _prepare(params, CFG, schedule, detection)
    for d, rec in zip(prep.deviations, run.records, strict=True):
        # the unit-trace state: its I/4 part reads out as nothing
        rho = DensityMatrix.from_diagonal(0.25 + d)
        assert rec.readout_h is rec.spectra[0]
        assert rec.readout_c is rec.spectra[1]
        step = step_unitary(rec.perm_id, run.result.ground, case)
        for channel, spec, noise in zip(Channel, rec.spectra, record_noise_vectors(rec)):
            state = receiver_state(rho, step, channel)
            want = fft_spectrum(state, CFG, channel, 4096, 1e-3, noise)
            assert np.array_equal(spec.freqs, want.freqs)
            assert relative_gap(spec.values, want.values) <= 1e-14


def lines(h0, h1, c0, c1):
    return np.array([[h0, h1], [c0, c1]])


class TestGroverUnitaries:
    def test_oracle_marks_one_element(self):
        assert_allclose(grover_oracle(GroverCase("11")).matrix, np.diag([1, 1, 1, -1]))
        assert_allclose(grover_oracle(GroverCase("00")).matrix, np.diag([-1, 1, 1, 1]))

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.target)
    def test_oracle_and_diffusion_are_involutions(self, case):
        o = grover_oracle(case).matrix
        d = grover_diffusion().matrix
        assert_allclose(o @ o, np.eye(4), atol=1e-14)
        assert_allclose(d @ d, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.target)
    def test_circuit_finds_marked_element_from_00(self, case):
        out = apply_unitary(DensityMatrix.basis_state(0), grover_circuit(case))
        expected = np.zeros(4)
        expected[case.index] = 1.0
        assert_allclose(populations(out), expected, atol=1e-12)

    def test_mixed_state_is_invariant(self):
        out = apply_unitary(DensityMatrix(np.eye(4) / 4), grover_circuit(GroverCase("01")))
        assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.target)
    def test_effective_pure_contract(self, case):
        q1, q2 = -2.5, 10.0
        rho = DensityMatrix(q1 * np.eye(4) + q2 * DensityMatrix.basis_state(0).matrix)
        out = apply_unitary(rho, grover_circuit(case))
        expected = q1 * np.eye(4) + q2 * DensityMatrix.basis_state(case.index).matrix
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_case_validation(self):
        with pytest.raises(ValueError):
            GroverCase("02")

    def test_hadamard_pulse_sequence_matches_gate(self):
        seq = hadamard_pulse_sequence(Channel.H)
        u = compose(*[pulse_unitary(p) for p in seq]).matrix
        h = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
        phase = h[0, 0] / u[0, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert_allclose(u * phase, h, atol=1e-12)

    @pytest.mark.parametrize("ground", range(4))
    def test_relabel_moves_ground_to_00(self, ground):
        u = relabel_unitary(ground)
        out = apply_unitary(DensityMatrix.basis_state(ground), u)
        assert_allclose(populations(out), [1, 0, 0, 0], atol=1e-14)


class TestDecode:
    @pytest.mark.parametrize(
        "table,expected",
        [
            (( 10.0, 0.0,  10.0, 0.0), "00"),
            (( 0.0, 10.0, -10.0, 0.0), "01"),
            ((-10.0, 0.0,  0.0, 10.0), "10"),
            (( 0.0, -10.0, 0.0, -10.0), "11"),
        ],
    )
    def test_clean_patterns(self, table, expected):
        assert decode_answer(lines(*table)) == expected

    def test_silence_is_ambiguous(self):
        with pytest.raises(DecodeError, match="no readout signal"):
            decode_answer(lines(0.0, 0.0, 0.0, 0.0))

    def test_comparable_lines_are_ambiguous(self):
        with pytest.raises(DecodeError, match="comparable"):
            decode_answer(lines(10.0, 9.0, 10.0, 0.0))

    def test_channel_disagreement_detected(self):
        # H claims H=0 partner C=0; C claims C=0 partner H=1
        with pytest.raises(DecodeError, match="disagree"):
            decode_answer(lines(10.0, 0.0, 0.0, 10.0))

    def test_scale_invariance(self):
        # dominant negative H line at partner 0, dominant positive C line
        # at partner 1: the answer is |10>
        a = decode_answer(lines(-8.0, 0.4, 0.3, 7.0))
        b = decode_answer(lines(-8e6, 0.4e6, 0.3e6, 7e6))
        assert a == b == "10"

    @pytest.mark.parametrize(
        "table",
        [(np.nan,) * 4, (np.inf, 0.0, np.inf, 0.0), (-np.inf, 0.0, 0.0, np.inf),
         (10.0, 0.0, np.nan, 10.0), (np.inf, 1.0, -np.inf, 1.0)],
    )
    def test_lines_that_are_not_finite_decode_nothing(self, table):
        # a NaN passes the dominance test (every comparison is false), and an
        # inf beats any partner, so these once read as answers
        with pytest.raises(DecodeError, match="readout lines are not finite"):
            decode_answer(lines(*table))

    @pytest.mark.parametrize(
        "values",
        [[10.0, 0.0, 10.0, 0.0], [[10.0, 0.0]], [[10.0, 0.0, 0.0], [10.0, 0.0, 0.0]], 10.0],
        ids=["flat", "one-channel", "three-lines", "scalar"],
    )
    def test_lines_of_another_shape_are_rejected(self, values):
        with pytest.raises(ValueError, match="the decode takes the"):
            decode_answer(values)


class TableDetector:
    """A detector stand-in whose line integrals of every experiment sum,
    under unit weights, to the given (target, channel, partner) lines, and
    whose amplitude solve is `solve` (the identity by default)."""

    def __init__(self, table, solve=np.eye(2)):
        # -0.0 adds nothing to any float, -0.0 included
        self.lines = np.full((len(GROVER_TARGETS), 3, 2, 2), -0.0)
        self.lines[:, 0] = table
        self.amplitude_solve = solve

    def line_integrals(self, amplitudes):
        return self.lines


def table_searches(table, q2, solve=np.eye(2)):
    """The search pass of a preparation whose weighted line integrals are
    `table`, with the sign of `q2` and the amplitude solve `solve`; its
    search table is its own, as a jittered seed's is."""
    result = types.SimpleNamespace(weights=np.ones(3), q2=q2, ground=0)
    detector, zeros = TableDetector(table, solve), np.zeros((3, 4))
    return Preparation(detector, 0, None, zeros, zeros, result, None, 1.0, None, {}, {}).searches


def outcome(search):
    """A search pass entry, a run or a DecodeError text, as an (answer,
    None) or (None, text) pair."""
    return (None, search) if isinstance(search, str) else (search.decoded, None)


def solved(lines, solve=np.eye(2)):
    """The (channel, partner) `lines` times the amplitude solve, row by row
    in Python floats as the search pass forms them."""
    (a00, a01), (a10, a11) = solve.tolist()
    return np.array([[a00 * x0 + a01 * x1, a10 * x0 + a11 * x1] for x0, x1 in lines.tolist()])


def decoded_or_text(values):
    """`decode_answer` of `values` as an (answer, None) or (None, text) pair."""
    try:
        return decode_answer(values), None
    except DecodeError as exc:
        return None, str(exc)


DECODE_TABLE = {
    "nan": (np.nan, 0.0, 10.0, 0.0),
    "inf": (np.inf, 0.0, np.inf, 0.0),
    "-inf": (-np.inf, 1.0, 0.0, -np.inf),
    "zeros": (0.0, 0.0, 0.0, 0.0),
    "-0.0": (-0.0, -0.0, -0.0, -0.0),
    "-0.0-partners": (-0.0, 10.0, -10.0, -0.0),
    "dominance-partner-0": (3.0, 1.0, 3.0, 1.0),
    "dominance-partner-1": (1.0, 3.0, -3.0, 1.0),
    "below-dominance": (2.9999999999999996, 1.0, 3.0, 1.0),
    "equal-magnitudes": (5.0, -5.0, 5.0, 0.0),
    "h-disagrees": (10.0, 0.0, 0.0, 10.0),
    "c-disagrees": (10.0, 0.0, -10.0, 0.0),
}


class TestDecideOncePerPreparation:
    @pytest.mark.parametrize("q2", [2.5, -2.5], ids=["upright", "inverted"])
    def test_outcomes_match_decode_answer(self, q2):
        sign = 1.0 if q2 >= 0 else -1.0
        rows = list(DECODE_TABLE.values())
        for start in range(0, len(rows), len(GROVER_TARGETS)):
            table = np.array(rows[start:start + len(GROVER_TARGETS)]).reshape(-1, 2, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                searches = table_searches(table, q2)
            assert list(searches) == list(GROVER_TARGETS)
            for k, target in enumerate(GROVER_TARGETS):
                search = searches[target]
                assert outcome(search) == decoded_or_text(sign * table[k])
                if isinstance(search, str):
                    continue
                # the noise-free pass adds -0.0, which leaves every float,
                # -0.0 included, as it is
                assert search.peak_integrals.tobytes() == table[k].tobytes()
                assert outcome(search) == decoded_or_text(sign * search.line_amplitudes)
                assert search.case == GroverCase(target)

    def test_the_table_covers_every_outcome(self):
        outcomes = {decoded_or_text(lines(*row)) for row in DECODE_TABLE.values()}
        assert {text.split(":")[0] for _, text in outcomes if text} == {
            "readout lines are not finite", "no readout signal",
            "doublet lines have comparable magnitude", "channels disagree",
        }
        assert {answer for answer, _ in outcomes if answer} == {"00", "01"}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 1e-300, 1e300]),
            min_size=16, max_size=16,
        ),
        st.sampled_from([1.0, 0.0, -1.0]),
    )
    def test_outcomes_match_decode_answer_on_any_lines(self, values, q2):
        table = np.array(values).reshape(len(GROVER_TARGETS), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            searches = table_searches(table, q2)
        sign = 1.0 if q2 >= 0 else -1.0
        for k, target in enumerate(GROVER_TARGETS):
            search = searches[target]
            amplitudes = solved(table[k]) if isinstance(search, str) else search.line_amplitudes
            assert outcome(search) == decoded_or_text(sign * amplitudes)

    def test_a_failing_target_raises_a_new_error_on_every_call(self):
        cfg = SpinSystemConfig(j_coupling=1e307)
        detection = DetectionSettings(dwell=6e-308)
        errors = []
        for _ in range(2):
            with pytest.raises(DecodeError) as info:
                run_grover_pipeline(SpinoeParams(), cfg, GroverCase("01"), detection=detection)
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert str(first) == str(second) == "readout lines are not finite"
        depth = [len(traceback.extract_tb(error.__traceback__)) for error in errors]
        assert depth[0] == depth[1]


class TestEffectivePurePipeline:
    def test_thermal_inputs_unit_weights_unit_enhancement(self):
        p = SpinoeParams(eps0_h=1.0, eps0_c=1.0)
        for mode in ScheduleMode:
            run = run_effective_pure_pipeline(p, CFG, mode)
            assert_allclose(run.result.weights, [1.0, 1.0, 1.0], atol=1e-9)
            assert run.enhancement == pytest.approx(1.0, abs=1e-12)

    def test_multi_sample_hits_the_constant_enhancement_ceiling(self):
        run = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.MULTI_SAMPLE)
        assert run.result.ground == 2
        assert run.enhancement == pytest.approx(12.4, rel=1e-9)

    def test_single_sample_below_ceiling(self):
        run = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.SINGLE_SAMPLE)
        multi = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.MULTI_SAMPLE)
        assert run.enhancement < multi.enhancement
        assert 9.0 < run.enhancement < 12.4
        assert run.result.residual < 1e-9 * np.abs(run.result.diagonal).max()

    def test_records_are_complete_and_traceless(self):
        run = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.SINGLE_SAMPLE)
        assert [r.perm_id.value for r in run.records] == ["identity", "cycle", "cycle2"]
        assert [r.schedule_time for r in run.records] == [25.0, 145.0, 265.0]
        assert [r.probe_time for r in run.records] == [0.0, 120.0, 240.0]
        for rec in run.records:
            assert abs(rec.probed_diagonal.sum()) < 1e-9
            assert rec.readout_h.values.size == 4096

    def test_weighted_sum_spectrum_shows_pure_signature(self):
        run = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.SINGLE_SAMPLE)
        # ground |10>: dominant negative H line at partner 0, positive C line
        ph, pc = (integrate_peaks(spec, CFG) for spec in run.build_sum_spectra())
        assert ph.integral(0) < 0
        assert pc.integral(1) > 0
        assert abs(ph.integral(1)) < 1e-2 * abs(ph.integral(0))
        assert abs(pc.integral(0)) < 1e-2 * abs(pc.integral(1))

    def test_jitter_determinism_under_fixed_seed(self):
        p = SpinoeParams(reproducibility_jitter=0.05, seed=5)
        a = run_effective_pure_pipeline(p, CFG, ScheduleMode.MULTI_SAMPLE)
        b = run_effective_pure_pipeline(p, CFG, ScheduleMode.MULTI_SAMPLE)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.probed_diagonal, rb.probed_diagonal)
            assert np.array_equal(ra.readout_h.values, rb.readout_h.values)
        assert a.enhancement == b.enhancement

    @pytest.mark.parametrize("seed", [1, 2])
    def test_thermal_reference_is_exact_under_noise(self, seed):
        # the reference is the closed-form labeling of thermal input, so
        # detection noise and the seed move only the enhanced side
        p = SpinoeParams(seed=seed)
        run = run_effective_pure_pipeline(
            p, CFG, ScheduleMode.SINGLE_SAMPLE, detection=DetectionSettings(noise_amp=0.01)
        )
        assert run.thermal_result.q2 == pytest.approx(10.0, rel=1e-12)
        assert run.thermal_result.ground == 0

    @pytest.mark.parametrize(
        "cfg,detection,message",
        [
            (CFG, DetectionSettings(n_points=1024, dwell=4e-3), "spectral width"),
            (SpinSystemConfig(j_coupling=0.5), DetectionSettings(), "resolution"),
            # the FID decays within one dwell, so both lines are one flat line
            (
                SpinSystemConfig(j_coupling=4.0, t2=1e-4),
                DetectionSettings(n_points=256, dwell=0.0078125),
                "cannot separate the doublet lines",
            ),
        ],
        ids=["spectral-width", "resolution", "unresolved-lines"],
    )
    def test_window_rules_reject_the_settings(self, cfg, detection, message):
        with pytest.raises(ReadoutError, match=message):
            run_effective_pure_pipeline(
                SpinoeParams(), cfg, ScheduleMode.SINGLE_SAMPLE, detection=detection
            )

    def test_readout_error_names_the_experiment(self):
        named = r"^experiment 2 \(probe at 120\.0 s\): inconsistent"
        with pytest.raises(ReadoutError, match=named):
            run_effective_pure_pipeline(
                SpinoeParams(), CFG, ScheduleMode.SINGLE_SAMPLE,
                detection=DetectionSettings(noise_amp=1.0),
            )

    def test_jitter_varies_across_samples(self):
        p = SpinoeParams(reproducibility_jitter=0.05, seed=5)
        run = run_effective_pure_pipeline(p, CFG, ScheduleMode.MULTI_SAMPLE)
        d0, d1 = run.records[0].probed_diagonal, run.records[1].probed_diagonal
        assert not np.allclose(d0, d1)


class TestGroverPipeline:
    def test_thermal_inputs_case_00(self):
        p = SpinoeParams(eps0_h=1.0, eps0_c=1.0)
        run = run_grover_pipeline(p, CFG, GroverCase("00"))
        assert run.decoded == "00"
        assert run.peak_integrals[0, 0] > 0
        assert run.peak_integrals[1, 0] > 0
        assert run.enhancement == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "case,noise_amp,seed",
        [pytest.param(c, 0.0, 0, id=c.target) for c in ALL_CASES]
        + [
            pytest.param(c, 0.05, seed, id=f"{c.target}-noise0.05-seed{seed}")
            for seed in (0, 1, 2)
            for c in ALL_CASES
        ],
    )
    def test_all_cases_decode_with_enhanced_single_sample(self, case, noise_amp, seed):
        run = run_grover_pipeline(
            SpinoeParams(seed=seed), CFG, case, detection=DetectionSettings(noise_amp=noise_amp)
        )
        assert run.decoded == case.target
        assert 2.0 <= run.enhancement <= 7.0

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.target)
    def test_overlapping_lines_decode_from_their_amplitudes(self, case):
        # at T2 = 0.8 ms each line leaks into its partner's window, so the
        # window integrals alone are ambiguous; their amplitudes are not
        cfg = SpinSystemConfig(t2=0.0008)
        run = run_grover_pipeline(SpinoeParams(), cfg, case)
        assert run.decoded == case.target
        with pytest.raises(DecodeError, match="comparable magnitude"):
            decode_answer(run.peak_integrals)
        det = Detector(cfg, DetectionSettings())
        real = det.response.real
        assert np.abs(real[0, 1]) > 0.5 * np.abs(real[0, 0])
        assert_allclose(run.line_amplitudes @ real.T, run.peak_integrals, rtol=1e-12)
        for array in (run.peak_integrals, run.line_amplitudes):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_demonstration_schedule_lands_in_reported_band(self):
        run = run_grover_pipeline(
            SpinoeParams(), CFG, GroverCase("11"), ScheduleMode.SINGLE_SAMPLE
        )
        assert 2.0 <= run.enhancement <= 7.0

    def test_fresh_sample_would_exceed_band(self):
        run = run_grover_pipeline(
            SpinoeParams(), CFG, GroverCase("11"), ScheduleMode.SINGLE_SAMPLE, sample_age=0.0
        )
        assert run.enhancement > 7.0

    def test_spectra_are_built_only_on_access(self, monkeypatch):
        def no_spectra(*args, **kwargs):
            raise AssertionError("spectrum built in the pipeline")

        monkeypatch.setattr(readout.Detector, "spectra", no_spectra)
        monkeypatch.setattr(readout.Detector, "noise_spectra", no_spectra)
        params, detection = SpinoeParams(seed=3), DetectionSettings(noise_amp=0.05)
        run = run_grover_pipeline(params, CFG, GroverCase("01"), detection=detection)
        assert run.decoded == "01"
        monkeypatch.undo()
        assert_readout_spectra_match_the_oracle(run, params, detection, GroverCase("01"))
        # the decode read the weighted sum of line integrals; the exported
        # weighted spectrum carries the same integrals
        for integrals, spec in zip(run.peak_integrals, run.build_sum_spectra()):
            ref = integrate_peaks(spec, CFG).integrals
            assert np.abs(integrals - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_weighted_sums_are_one_pair_built_on_first_read(self, monkeypatch):
        # by linearity the sums take one call of the one spectra route, and
        # no record, so no record spectrum, is built for them; the run keeps
        # nothing, so each build is a call of its own
        noisy_run(ScheduleMode.SINGLE_SAMPLE, "01")
        calls, spectra, record_init = [], readout.Detector.spectra, ExperimentRecord.__init__

        def counting_spectra(self, *args):
            calls.append("spectra")
            return spectra(self, *args)

        def counting_record(self, *args, **kwargs):
            calls.append("ExperimentRecord")
            record_init(self, *args, **kwargs)

        monkeypatch.setattr(readout.Detector, "spectra", counting_spectra)
        monkeypatch.setattr(ExperimentRecord, "__init__", counting_record)
        run = noisy_run(ScheduleMode.SINGLE_SAMPLE, "01")
        assert calls == []
        h, c = run.build_sum_spectra()
        assert calls == ["spectra"]
        again = run.build_sum_spectra()
        assert calls == ["spectra", "spectra"]
        assert [spec.values.tobytes() for spec in again] == [h.values.tobytes(), c.values.tobytes()]
        assert [spec.channel for spec in (h, c)] == list(Channel)

    def test_determinism(self):
        p = SpinoeParams(reproducibility_jitter=0.03, seed=11)
        a = run_grover_pipeline(p, CFG, GroverCase("10"), ScheduleMode.MULTI_SAMPLE)
        b = run_grover_pipeline(p, CFG, GroverCase("10"), ScheduleMode.MULTI_SAMPLE)
        assert a.decoded == b.decoded
        assert a.enhancement == b.enhancement
        assert np.array_equal(a.build_sum_spectra()[0].values, b.build_sum_spectra()[0].values)


NOISY_PARAMS = SpinoeParams(reproducibility_jitter=0.05, seed=3)
NOISY_DETECTION = DetectionSettings(noise_amp=0.01)


def noisy_run(mode, target=None, params=NOISY_PARAMS, detection=NOISY_DETECTION):
    """Effective-pure run (target None) or search case, with jitter and noise."""
    if target is None:
        return run_effective_pure_pipeline(params, CFG, mode, detection=detection)
    return run_grover_pipeline(params, CFG, GroverCase(target), mode, detection=detection)


def run_arrays(run):
    """Weights and readout noise integrals, then per record the probed
    diagonal, the line amplitudes of both channels and their spectra."""
    noise = run.preparation.noise_integrals
    arrays = [run.result.weights, *([] if noise is None else [noise])]
    for rec in run.records:
        arrays += [rec.probed_diagonal, rec.amplitudes]
        arrays += [spec.values for spec in rec.spectra]
    return arrays


def assert_same_run(a, b):
    for x, y in zip(run_arrays(a), run_arrays(b), strict=True):
        assert np.array_equal(x, y)
    assert a.enhancement == b.enhancement
    assert getattr(a, "decoded", None) == getattr(b, "decoded", None)


MAP_KEYS = [
    (perm, ground, case)
    for perm in PermutationId
    for ground in range(4)
    for case in [None, *ALL_CASES]
]


def record_map(perm, ground, case):
    """The readout map of `perm`'s experiment in the stack of `ground`, in
    the row of `case` (row 0 for no computation, then GROVER_TARGETS)."""
    row = 0 if case is None else 1 + GROVER_TARGETS.index(case.target)
    return _readout_maps(ground)[row, DEFAULT_PERM_ORDER.index(perm)]


class TestReadoutMap:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dev=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4))
    def test_map_equals_the_unitary_route(self, dev):
        dev = np.array(dev) - np.mean(dev)
        assume(np.abs(dev).max() >= 0.1)
        d = 0.25 + dev
        rho = DensityMatrix.from_diagonal(d)
        det = Detector(CFG, DetectionSettings())
        for perm, ground, case in MAP_KEYS:
            step = step_unitary(perm, ground, case)
            want = np.array([
                (det.response @ coherences(receiver_state(rho, step, ch), ch)).real
                for ch in Channel
            ])
            got = det.line_integrals(record_map(perm, ground, case) @ d)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_readout_amplitudes_are_real(self):
        # why the decode inverts Re(response): after any permutation,
        # computation and readout pulse the line amplitudes are real
        for key in MAP_KEYS:
            amplitude_map = record_map(*key)
            assert np.abs(amplitude_map.imag).max() <= 1e-15 * np.abs(amplitude_map).max()

    def test_map_cache_is_bounded_by_its_keys(self):
        _readout_maps.cache_clear()
        for _ in range(2):
            for ground in range(4):
                assert _readout_maps(ground).shape == (1 + len(GROVER_TARGETS), 3, 2, 2, 4)
        info = _readout_maps.cache_info()
        assert info.maxsize is not None and info.currsize <= 4
        assert (info.misses, info.hits) == (4, 4)
        # every record's map is a row of the four cached stacks
        for key in MAP_KEYS:
            record_map(*key)
        assert _readout_maps.cache_info().misses == 4

    def test_warm_case_builds_no_state(self, monkeypatch):
        noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        apply, init, built = quantum.apply_unitary, quantum.DensityMatrix.__post_init__, []

        def counting_apply(*args):
            built.append("apply_unitary")
            return apply(*args)

        def counting_init(self):
            built.append("DensityMatrix")
            init(self)

        for module in MODULES:
            if hasattr(module, "apply_unitary"):
                monkeypatch.setattr(module, "apply_unitary", counting_apply)
        monkeypatch.setattr(quantum.DensityMatrix, "__post_init__", counting_init)
        run = noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        assert built == []
        # reading the spectra builds no state either
        for rec in run.records:
            rec.readout_h, rec.readout_c
        run.build_sum_spectra()
        assert built == []
        monkeypatch.undo()
        case = GroverCase("10")
        assert_readout_spectra_match_the_oracle(run, NOISY_PARAMS, NOISY_DETECTION, case)


# per seed (mod 4) initial enhancements whose labelings reach every ground
GROUND_EPS = [(-11.0, 18.0), (30.0, -5.0), (-40.0, -25.0), (8.0, 9.0)]
# a target's three readout maps per (ground, target), built as a pipeline
# built them before the maps of all targets were stacked
CASE_MAPS = {}


def per_case_search(prep, case):
    """One search case computed for its target alone: the target's three
    readout maps applied to the deviations, the builtin sum of the weighted
    line integrals, the amplitude solve, then the q2 sign and the decode
    (its answer, or its DecodeError's class and text)."""
    ground, det = prep.result.ground, prep.detector
    key = (ground, case.target)
    if key not in CASE_MAPS:
        CASE_MAPS[key] = np.array([readout.readout_map(step_unitary(perm, ground, case))
                                   for perm in DEFAULT_PERM_ORDER])
    maps = CASE_MAPS[key]
    amplitudes = (maps @ prep.deviations[:, None, :, None])[..., 0]
    weights = prep.result.weights[:, None, None]
    integrals = det.line_integrals(amplitudes)
    if prep.noise_integrals is not None:
        integrals = integrals + prep.noise_integrals
    integrals = sum(weights * integrals)
    line_amplitudes = integrals @ det.amplitude_solve.T
    sign = 1.0 if prep.result.q2 >= 0 else -1.0
    try:
        decoded = decode_answer(sign * line_amplitudes)
    except DecodeError as exc:
        decoded = (DecodeError, str(exc))
    return amplitudes, integrals, line_amplitudes, decoded


def search_schedule(mode):
    """The schedule of `run_grover_pipeline` at its defaults, the very
    object it makes: `make_schedule` keeps one per call signature, and
    `_prepare` keeps a preparation for that schedule object alone."""
    return make_schedule(mode, DEFAULT_R1_S, DEFAULT_RECOVERY_S, DEFAULT_SAMPLE_AGE_S)


def search_outcome(params, case, mode, detection):
    """The preparation of a search case, and the arrays and decode of its
    `run_grover_pipeline` as `per_case_search` gives them."""
    prep = _prepare(params, CFG, search_schedule(mode), detection)
    try:
        run = run_grover_pipeline(params, CFG, case, mode, detection=detection)
    except DecodeError as exc:
        return prep, (DecodeError, str(exc))
    assert run.preparation is prep
    return prep, (run.receiver_amplitudes, run.peak_integrals, run.line_amplitudes, run.decoded)


def assert_line_amplitudes_agree(got, want):
    """The float pass's (channel, partner) line amplitudes `got` within 4
    ulp of each channel's largest entry of the array route's `want`: the
    integrals are the same floats, but numpy's small matmul orders (and may
    fuse) the products of the amplitude solve its own way."""
    bound = 4 * np.spacing(np.abs(want).max(axis=-1, keepdims=True))
    assert got.shape == want.shape and np.all(np.abs(got - want) <= bound), (got, want)


def near_dominance(lines):
    """Whether a channel of the (channel, partner) `lines` lies within a few
    ulps of the `DECODE_DOMINANCE` boundary, where moves of 4 ulp may tip
    its decode."""
    for a, b in np.abs(lines).tolist():
        gap = min(abs(a - DECODE_DOMINANCE * b), abs(b - DECODE_DOMINANCE * a))
        if gap <= 16 * np.spacing(DECODE_DOMINANCE * max(a, b)):
            return True
    return False


class TestSearchTargets:
    @pytest.mark.parametrize("jitter", [0.0, 0.05], ids=["exact", "jitter"])
    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["clean", "noisy"])
    def test_each_target_equals_the_per_case_formula(self, noise, mode, jitter):
        detection, grounds = DetectionSettings(noise_amp=noise), set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(50):
                eps_h, eps_c = GROUND_EPS[seed % 4]
                p = SpinoeParams(eps_h, eps_c, reproducibility_jitter=jitter, seed=seed)
                for case in ALL_CASES:
                    prep, got = search_outcome(p, case, mode, detection)
                    want = per_case_search(prep, case)
                    if isinstance(got[0], type):
                        assert got == want[3]
                        continue
                    for x, y in zip(got[:2], want[:2], strict=True):
                        assert x.shape == y.shape and x.tobytes() == y.tobytes()
                    assert_line_amplitudes_agree(got[2], want[2])
                    assert got[3] == want[3]
                grounds.add(prep.result.ground)
        assert grounds == {0, 1, 2, 3}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(list(ScheduleMode)),
        eps=st.sampled_from(GROUND_EPS), noise=st.sampled_from([0.0, 0.01, 0.1]),
        jitter=st.sampled_from([0.0, 0.05]),
    )
    def test_float_pass_is_the_array_route(self, seed, mode, eps, noise, jitter):
        # the search pass in floats against `per_case_search`, target by
        # target: the same receiver amplitudes and integrals, bit for bit,
        # line amplitudes within 4 ulp, and the same decode unless its lines
        # lie within a few ulps of the dominance boundary
        p = SpinoeParams(*eps, reproducibility_jitter=jitter, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                prep = _prepare(p, CFG, search_schedule(mode), DetectionSettings(noise_amp=noise))
            except (ReadoutError, SingularLabelingSystem):
                assume(False)
            searches = prep.searches
        for k, case in enumerate(ALL_CASES):
            want = per_case_search(prep, case)
            assert prep.amplitude_stack[1 + k].tobytes() == want[0].tobytes()
            run = searches[case.target]
            if isinstance(run, str):
                got = (DecodeError, run)
            else:
                assert run.receiver_amplitudes.tobytes() == want[0].tobytes()
                assert run.peak_integrals.tobytes() == want[1].tobytes()
                assert_line_amplitudes_agree(run.line_amplitudes, want[2])
                got = run.decoded
            assert got == want[3] or near_dominance(want[2]), (case, got, want[3])

    def test_the_solve_is_applied_row_by_row(self):
        # a grid's Re(response) is symmetric to ~1e-13, so no real detector
        # tells its amplitude solve from the transpose; a skewed solve does.
        # The table's line amplitudes decode (each channel's line 0 is at
        # least 5 times its partner), so every target keeps a run
        solve = np.array([[2.0, 0.5], [-0.25, 1.5]])
        scale = np.random.default_rng(36).uniform(0.5, 1.0, size=(len(GROVER_TARGETS), 2, 2))
        table = (scale * [[10.0, 1.0], [10.0, -1.0]]) @ np.linalg.inv(solve).T
        searches = table_searches(table, 1.0, solve)
        line_amplitudes = np.array([searches[target].line_amplitudes for target in GROVER_TARGETS])
        assert_line_amplitudes_agree(line_amplitudes, table @ solve.T)

    def test_routes_part_only_within_ulps_of_dominance(self):
        # H integrals stepped ulp by ulp across the boundary |u0| = 3 |u1| of
        # their line amplitudes u = A·(h0, h1), for the default grid's solve
        # A; the C lines decode as |00>, and every line carries q2's sign.
        # Both routes decide each row as exact arithmetic on its floats does,
        # except rows whose exact margin lies within a few ulps of the
        # products: there each route's round-off (and the decode's own
        # product 3·|u1|) may tip the decode
        solve = Detector(CFG, DetectionSettings()).amplitude_solve
        exact = fractions.Fraction
        (a00, a01), (a10, a11) = [[exact(a) for a in row] for row in solve.tolist()]
        rng = np.random.default_rng(36)
        sides, within = set(), 0
        for h1, q2 in zip(rng.uniform(0.05, 0.3, 40).tolist(), [1.0, -1.0] * 20):
            h0 = (3 * solve[1, 1] - solve[0, 1]) * h1 / (solve[0, 0] - 3 * solve[1, 0])
            for _ in range(32):
                h0 = math.nextafter(h0, -math.inf)
            for _ in range(65):
                table = np.tile([[q2 * h0, q2 * h1], [q2, 0.0]], (len(GROVER_TARGETS), 1, 1))
                u0 = (a00 * exact(h0), a01 * exact(h1))
                u1 = (a10 * exact(h0), a11 * exact(h1))
                margin = abs(sum(u0)) - DECODE_DOMINANCE * abs(sum(u1))
                products = sum(map(abs, u0)) + DECODE_DOMINANCE * sum(map(abs, u1))
                dominant = margin >= 0
                routes = [outcome(table_searches(table, q2, solve)["00"]),
                          decoded_or_text(q2 * (table[0] @ solve.T))]
                if abs(margin) > 4 * EPS * products:
                    want = ("00", None) if dominant else (
                        None, "doublet lines have comparable magnitude")
                    assert routes == [want, want], (h0, h1)
                    sides.add(dominant)
                else:
                    within += 1
                h0 = math.nextafter(h0, math.inf)
        # rows on both sides of the band are decided, and rows inside it exist
        assert sides == {False, True} and within > 0

    def test_the_four_targets_are_computed_once(self, monkeypatch):
        # a preparation decodes its four targets once, on its first search
        # case. The receiver-amplitude product behind them is computed once
        # per (trajectory, ground) with no jitter, so a second seed of the
        # same setting computes none, and once per preparation with jitter,
        # which never reads or fills the trajectory's stacks nor the
        # setting's tables; both are bounded by the 4 grounds
        clear_preparation_caches()
        decisions, products = [], []
        decide, product = experiments._decide, experiments._receiver_amplitudes

        def counting_decide(*args):
            decisions.append(args)
            return decide(*args)

        def counting_product(*args):
            products.append(args)
            return product(*args)

        monkeypatch.setattr(experiments, "_decide", counting_decide)
        monkeypatch.setattr(experiments, "_receiver_amplitudes", counting_product)
        mode, grounds = ScheduleMode.MULTI_SAMPLE, set()
        for seed in range(8):
            params = SpinoeParams(-11.0, 18.0, seed=seed)
            first = noisy_run(mode, "01", params)
            assert len(decisions) == len(GROVER_TARGETS) * (seed + 1)
            grounds.add(first.result.ground)
            assert len(products) == len(grounds)
            runs = {target: noisy_run(mode, target, params) for target in GROVER_TARGETS}
            # a warm case decodes nothing and builds nothing
            assert len(decisions) == len(GROVER_TARGETS) * (seed + 1)
            assert len(products) == len(grounds)
        assert len(grounds) == 2  # a sign-mirror tie, broken by the noise
        searches = first.preparation.searches  # read while it is kept
        # one setting throughout, whose tables are keyed by ground alone
        assert experiments._seed_free.cache_info()[2:] == (4, 1)  # maxsize, currsize
        tables, stacks = first.preparation.search_tables, first.preparation.amplitude_stacks
        assert set(tables) == set(stacks) == grounds
        shared, shared_stacks = dict(tables), dict(stacks)
        for seed in range(3):
            params = SpinoeParams(-11.0, 18.0, reproducibility_jitter=0.05, seed=seed)
            jittered = noisy_run(mode, "01", params)
            assert len(products) == len(grounds) + seed + 1
            assert jittered.preparation.search_tables is not tables
            assert jittered.preparation.amplitude_stacks is not stacks
        assert tables.keys() == shared.keys() and stacks.keys() == shared_stacks.keys()
        assert all(tables[ground] is shared[ground] for ground in shared)
        assert all(stacks[ground] is shared_stacks[ground] for ground in shared)
        prep = first.preparation
        assert searches == runs and list(searches) == list(GROVER_TARGETS)
        stack, rows = prep.amplitude_stack, first.peak_integrals.base
        for k, target in enumerate(GROVER_TARGETS):
            run = runs[target]
            assert run.preparation is prep
            assert run.decoded == target and run.case == GroverCase(target)
            assert run.receiver_amplitudes.tobytes() == stack[1 + k].tobytes()
            # the integrals and line amplitudes of all four are one array
            parts = (run.receiver_amplitudes, run.peak_integrals, run.line_amplitudes)
            for part, shared in zip(parts, (stack, rows, rows), strict=True):
                assert not part.flags.writeable and np.shares_memory(part, shared)


class TestRunObjects:
    @pytest.mark.parametrize(
        "target,part",
        [
            (None, lambda run: run),
            ("10", lambda run: run),
            (None, lambda run: run.result),
            (None, lambda run: run.records[0]),
        ],
        ids=["EffectivePureRun", "GroverRun", "EffectivePureResult", "ExperimentRecord"],
    )
    def test_hash_and_compare_by_identity(self, target, part):
        # two equal runs from separate preparations hold equal, distinct arrays
        experiments._kept.clear()
        a = part(noisy_run(ScheduleMode.SINGLE_SAMPLE, target))
        experiments._kept.clear()
        b = part(noisy_run(ScheduleMode.SINGLE_SAMPLE, target))
        assert a == a and hash(a) == hash(a)
        assert a != b and len({a, b}) == 2


class TestSharedAmplitudes:
    def test_receiver_amplitudes_are_computed_once_per_trajectory(self, monkeypatch):
        # one product per (trajectory, ground): a warm effective-pure call,
        # a new tip or grid on a warm trajectory and a search on it compute
        # none; a jittered seed computes its own stack once, for its
        # effective-pure run and its search alike, and leaves the
        # trajectory's stacks as they are
        clear_preparation_caches()
        products, product = [], experiments._receiver_amplitudes

        def counting_product(*args):
            products.append(args)
            return product(*args)

        monkeypatch.setattr(experiments, "_receiver_amplitudes", counting_product)
        params = SpinoeParams()
        for mode in ScheduleMode:
            count = len(products)
            run = run_effective_pure_pipeline(params, CFG, mode)
            assert len(products) == count + 1
            stacks = run.preparation.amplitude_stacks
            ground = run.result.ground
            assert list(stacks) == [ground]
            stack, before = stacks[ground], dict(stacks)
            assert stack.shape == (1 + len(GROVER_TARGETS), 3, 2, 2)
            assert not stack.flags.writeable and np.shares_memory(run.receiver_amplitudes, stack)
            assert run_effective_pure_pipeline(params, CFG, mode).preparation is run.preparation
            for detection in (DetectionSettings(probe_tip_deg=11.0),
                              DetectionSettings(n_points=2048, probe_tip_deg=17.5),
                              DetectionSettings(n_points=8192)):
                other = run_effective_pure_pipeline(params, CFG, mode, detection=detection)
                assert other.preparation.amplitude_stacks is stacks
                assert other.result.ground == ground
                assert np.shares_memory(other.receiver_amplitudes, stack)
            search = run_grover_pipeline(params, CFG, GroverCase("10"), mode, sample_age=0.0)
            assert search.preparation.amplitude_stacks is stacks
            assert np.shares_memory(search.receiver_amplitudes, stack)
            assert len(products) == count + 1
            if mode is ScheduleMode.MULTI_SAMPLE:  # jitter reaches fresh samples alone
                for seed in range(2):
                    jittered = SpinoeParams(reproducibility_jitter=0.05, seed=seed)
                    own = run_effective_pure_pipeline(jittered, CFG, mode)
                    assert own.preparation.amplitude_stacks is not stacks
                    run_grover_pipeline(jittered, CFG, GroverCase("01"), mode, sample_age=0.0)
                    assert len(products) == count + 2 + seed
            assert stacks == before and stacks[ground] is stack

    def test_the_stack_rows_are_the_products_of_each_row(self):
        # one product of the whole stack gives each row's product bit for bit
        rng = np.random.default_rng(5)
        for ground in range(4):
            deviations = rng.normal(size=(3, 4))
            stack = experiments._receiver_amplitudes(deviations, ground)
            maps = _readout_maps(ground)
            for rows in (0, slice(1, None)):
                want = (maps[rows] @ deviations[:, None, :, None])[..., 0]
                assert stack[rows].tobytes() == want.tobytes()


def clear_preparation_caches():
    """Empty every cache a preparation reads, and forget the kept one."""
    for cache in (
        readout._grid_map,
        experiments._seed_free, experiments._trajectory, experiments._thermal_reference,
    ):
        cache.cache_clear()
    experiments._kept.clear()


@pytest.fixture
def batches(monkeypatch):
    """The arguments of every `prepare_batch` call from here on: `_prepare`
    makes one per preparation it does not keep (a miss), and none for a
    kept one (a hit)."""
    calls, prepare = [], experiments.prepare_batch

    def counting_batch(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(experiments, "prepare_batch", counting_batch)
    return calls


class TestPreparationCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        experiments._kept.clear()

    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("target", [None, *GROVER_TARGETS], ids=lambda t: t or "effpure")
    def test_warm_run_equals_cold_run(self, mode, target, batches):
        first = noisy_run(mode, target)
        warm = noisy_run(mode, target)
        assert len(batches) == 1  # one miss, then one hit
        assert warm is first
        experiments._kept.clear()
        cold = noisy_run(mode, target)
        assert len(batches) == 2 and cold is not warm
        assert_same_run(cold, warm)

    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    def test_shared_preparation_is_order_independent(self, mode, batches):
        noisy_run(mode, "11")
        after_11 = noisy_run(mode, "00")
        assert len(batches) == 1  # the second call hits
        experiments._kept.clear()
        assert_same_run(after_11, noisy_run(mode, "00"))

    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    def test_a_warm_case_builds_nothing(self, monkeypatch, batches, mode):
        # the search pass builds every target's run; each later call on the
        # kept preparation returns that very run, with no preparation and
        # no run built, and every run reads its labeling, enhancement and
        # schedule from its preparation
        built, init = [], experiments.GroverRun.__init__

        def counting_init(self, *args):
            built.append(args[2].target)
            init(self, *args)

        monkeypatch.setattr(experiments.GroverRun, "__init__", counting_init)
        first = {target: noisy_run(mode, target) for target in GROVER_TARGETS}
        assert len(batches) == 1 and built == list(GROVER_TARGETS)
        for target in GROVER_TARGETS:
            assert noisy_run(mode, target) is first[target]
        assert len(batches) == 1 and built == list(GROVER_TARGETS)
        effpure = noisy_run(mode)  # a schedule with no sample age: its own preparation
        assert noisy_run(mode) is effpure
        assert len(batches) == 2 and len(built) == len(GROVER_TARGETS)
        for run in (*first.values(), effpure):
            prep = run.preparation
            for name in ("result", "thermal_result", "enhancement", "schedule"):
                assert getattr(run, name) is getattr(prep, name)
        assert effpure is effpure.preparation.effective_pure_run

    def test_an_undecodable_target_raises_a_new_error_on_a_kept_preparation(self, batches):
        cfg = SpinSystemConfig(j_coupling=1e307)
        detection = DetectionSettings(dwell=6e-308)
        errors = []
        for _ in range(2):
            for target in GROVER_TARGETS:
                with pytest.raises(DecodeError) as info:
                    run_grover_pipeline(SpinoeParams(), cfg, GroverCase(target), detection=detection)
                errors.append(info.value)
        assert len(batches) == 1
        assert len({id(error) for error in errors}) == len(errors)
        assert {str(error) for error in errors} == {"readout lines are not finite"}

    def test_readout_noise_continues_the_probe_stream(self):
        # replay the seeded stream: per probe the two jitter draws, then two
        # normals per channel; the readouts come next. Readout i is
        # detection i of the seed: its channels' children 2i and 2i + 1.
        noisy_run(ScheduleMode.MULTI_SAMPLE, "11")
        run = noisy_run(ScheduleMode.MULTI_SAMPLE, "10")
        amp = NOISY_DETECTION.noise_amp
        prep = run.preparation
        factor = prep.detector.noise_factor
        rng = np.random.default_rng(NOISY_PARAMS.seed)
        for _ in run.records:
            rng.normal(0.0, NOISY_PARAMS.reproducibility_jitter)
            rng.normal(0.0, NOISY_PARAMS.reproducibility_jitter)
            rng.standard_normal(4)
        vectors = []
        for i, rec in enumerate(run.records):
            noise = prep.noise_integrals[rec.index]
            assert rec.index == i
            assert_line_noise(noise, amp, rng.standard_normal((2, 2)), factor)
            children = (
                np.random.SeedSequence(NOISY_PARAMS.seed, spawn_key=(2 * i + channel,))
                for channel in (0, 1)
            )
            vectors.append([conditioned_noise(prep.detector, child, y)
                            for child, y in zip(children, noise, strict=True)])
        assert_noise_spectra(prep.noise_spectra, np.array(vectors))

    def test_noise_is_drawn_once_per_preparation(self, monkeypatch):
        line_noise, drawn = readout.Detector.line_noise, []

        def counting_noise(self, normals):
            drawn.append(list(normals))
            return line_noise(self, normals)

        monkeypatch.setattr(readout.Detector, "line_noise", counting_noise)
        runs = [noisy_run(ScheduleMode.SINGLE_SAMPLE, t) for t in GROVER_TARGETS]
        # one draw per preparation, in stream order: the three probes' noise,
        # then the readouts' (an aged single sample draws no jitter)
        assert drawn == [np.random.default_rng(NOISY_PARAMS.seed).standard_normal(24).tolist()]
        # the search pass reads the floats; their array is built on first read
        prep = runs[0].preparation
        assert "noise_integrals" not in vars(prep)
        noise = prep.noise_integrals
        assert noise.shape == (3, 2, 2)
        assert type(prep.readout_noise) is tuple and list(prep.readout_noise) == noise.ravel().tolist()
        for run in runs:
            assert run.preparation.noise_integrals is noise
            for i, rec in enumerate(run.records):
                assert rec.preparation is run.preparation and rec.index == i
        with pytest.raises(ValueError):
            noise[0, 0, 0] = 1.0

    def test_noise_vector_is_built_only_for_a_spectrum(self, monkeypatch):
        noise_spectra, built = readout.Detector.noise_spectra, []

        def counting_spectra(self, seed, integrals):
            built.append(integrals.shape)
            return noise_spectra(self, seed, integrals)

        monkeypatch.setattr(readout.Detector, "noise_spectra", counting_spectra)
        runs = {target: noisy_run(ScheduleMode.SINGLE_SAMPLE, target) for target in GROVER_TARGETS}
        run = runs["10"]
        for case in runs.values():
            [rec.probed_diagonal for rec in case.records]
        assert built == []
        spec = run.records[0].readout_h
        # every readout's vectors, both channels, built together
        assert built == [(3, 2, 2)]
        transforms = run.preparation.noise_spectra
        assert transforms.shape == (3, 2, 4096)
        assert run.preparation.noise_spectra is transforms and run.records[0].readout_h is spec
        with pytest.raises(ValueError):
            transforms[0, 0, 0] = 1.0
        # the search cases of one preparation share them: exporting every
        # spectrum of all four builds them once
        for case in runs.values():
            for rec in case.records:
                rec.readout_h, rec.readout_c
            case.build_sum_spectra()
            assert case.preparation.noise_spectra is transforms
        assert built == [(3, 2, 2)]
        experiments._kept.clear()
        again = noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        again.records[0].readout_h
        assert again.preparation.noise_spectra is not transforms
        assert np.array_equal(again.preparation.noise_spectra, transforms)
        assert len(built) == 2

    def test_cold_preparation_applies_no_pulse_and_no_lstsq(self, monkeypatch, batches):
        # a new seed on a warm grid map and detector: the probes, their
        # reconstruction and the labeling are all cached maps and one batch
        schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE, 25.0, DEFAULT_RECOVERY_S, 600.0)
        _prepare(NOISY_PARAMS, CFG, schedule, NOISY_DETECTION)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        apply = counting("apply_unitary", quantum.apply_unitary)
        for module in MODULES:
            if hasattr(module, "apply_unitary"):
                monkeypatch.setattr(module, "apply_unitary", apply)
        for name in ("lstsq", "cond", "pinv"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        # the probe relations' entries, and any deviation diagonal built by name
        monkeypatch.setattr(readout, "_tip_entries", counting(
            "_tip_entries", readout._tip_entries))
        for module in MODULES:
            if hasattr(module, "enhanced_deviations"):
                monkeypatch.setattr(module, "enhanced_deviations", counting(
                    "enhanced_deviations", module.enhanced_deviations))
        # no state is built: the sampled states travel as deviation diagonals
        init = quantum.DensityMatrix.__post_init__
        monkeypatch.setattr(
            quantum.DensityMatrix, "__post_init__", counting("DensityMatrix", init)
        )
        caches = (readout._grid_map, experiments._seed_free)
        misses = [cache.cache_info().misses for cache in caches]
        params = SpinoeParams(reproducibility_jitter=0.05, seed=NOISY_PARAMS.seed + 1)
        prep = _prepare(params, CFG, schedule, NOISY_DETECTION)
        assert len(batches) == 2  # two misses
        assert calls == []
        assert [cache.cache_info().misses for cache in caches] == misses
        monkeypatch.undo()
        # the same preparation as without the caches' help
        clear_preparation_caches()
        cold = _prepare(params, CFG, schedule, NOISY_DETECTION)
        assert all(np.array_equal(a, b) for a, b in zip(prep.probed, cold.probed, strict=True))

    def test_fresh_tip_preparation_samples_no_state(self, monkeypatch):
        # with the params, spin system and schedule cached, a new tip builds
        # its detector once, reads its relations' entries once, and samples
        # no state: its calibration reads the thermal reference's entries as
        # floats, with no diagonal, and its probes run in floats, with no
        # probe array and no numpy error state
        schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE)
        _prepare(SpinoeParams(), CFG, schedule, DetectionSettings())
        experiments._seed_free.cache_clear()
        calls = []

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        count(experiments, "sample_initial_states")
        count(readout, "_tip_entries")
        count(readout.Detector, "__post_init__")
        count(readout.Detector, "line_integrals")
        count(np, "errstate")
        for module in MODULES:
            if hasattr(module, "enhanced_deviations"):
                count(module, "enhanced_deviations")
        fresh = DetectionSettings(probe_tip_deg=13.579)
        prep = _prepare(SpinoeParams(), CFG, schedule, fresh)
        assert calls == ["__post_init__", "_tip_entries"]
        det = prep.detector
        assert np.array_equal(probe_map(det), probe_response_matrix(13.579).reshape(2, 2, 4))
        monkeypatch.undo()
        clear_preparation_caches()
        cold = _prepare(SpinoeParams(), CFG, schedule, fresh)
        assert np.array_equal(probe_solve(det), probe_solve(cold.detector))
        for name in ("deviations", "probed"):
            assert np.array_equal(getattr(prep, name), getattr(cold, name))
        for result in ("result", "thermal_result"):
            a, b = getattr(prep, result), getattr(cold, result)
            assert np.array_equal(a.diagonal, b.diagonal) and np.array_equal(a.weights, b.weights)
            assert (a.ground, a.q1, a.q2, a.residual) == (b.ground, b.q1, b.q2, b.residual)
        assert prep.enhancement == cold.enhancement
        assert prep.noise_integrals is cold.noise_integrals is None

    def test_detector_is_built_once_per_setting(self, monkeypatch):
        # a new seed on a warm `_seed_free` builds no detector; a new
        # setting builds one, which reads its grid map and its tip's
        # relations' entries once each, and builds no probe array
        schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE)
        _prepare(SpinoeParams(), CFG, schedule, DetectionSettings())
        built, init = [], readout.Detector.__post_init__

        def counting_init(self):
            built.append(self.settings)
            init(self)

        def count(name):
            fn = getattr(readout, name)

            def wrapper(*args):
                built.append(name)
                return fn(*args)
            monkeypatch.setattr(readout, name, wrapper)

        monkeypatch.setattr(readout.Detector, "__post_init__", counting_init)
        count("_grid_map")
        count("_tip_entries")
        _prepare(SpinoeParams(seed=1), CFG, schedule, DetectionSettings())
        assert built == []
        experiments._seed_free.cache_clear()
        fresh = DetectionSettings(probe_tip_deg=11.3)
        prep = _prepare(SpinoeParams(seed=1), CFG, schedule, fresh)
        assert built == [fresh, "_grid_map", "_tip_entries"]

    def test_shared_arrays_are_read_only(self):
        run = noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        for array in (
            run.records[0].probed_diagonal,
            run.result.weights,
            run.result.diagonal,
            run.thermal_result.weights,
            run.thermal_result.diagonal,
        ):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_equal_arguments_hit(self, batches):
        noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        noisy_run(
            ScheduleMode.SINGLE_SAMPLE, "01",
            params=SpinoeParams(reproducibility_jitter=0.05, seed=3),
            detection=DetectionSettings(noise_amp=0.01),
        )
        assert len(batches) == 1  # the second call hits

    @pytest.mark.parametrize(
        "changed",
        [
            {"p": SpinoeParams(seed=1)},
            {"detection": DetectionSettings(noise_amp=0.02)},
            {"detection": DetectionSettings(n_points=2048, noise_amp=0.01)},
            {"sample_age": 300.0},
        ],
        ids=["seed", "noise_amp", "n_points", "sample_age"],
    )
    def test_changed_setting_misses(self, changed, batches):
        base = {"p": SpinoeParams(), "detection": NOISY_DETECTION}
        run_grover_pipeline(cfg=CFG, case=GroverCase("10"), **base)
        run_grover_pipeline(cfg=CFG, case=GroverCase("10"), **{**base, **changed})
        assert len(batches) == 2  # two misses, no hit

    def test_preparation_error_is_raised_on_every_call(self, batches):
        detection = DetectionSettings(noise_amp=1.0)
        for _ in range(2):
            with pytest.raises(ReadoutError, match=r"^experiment 2 \(probe at 720\.0 s\): "):
                run_grover_pipeline(SpinoeParams(), CFG, GroverCase("10"), detection=detection)
        assert len(batches) == 2 and experiments._kept == []


def assert_same_preparation(a, b):
    for name in ("deviations", "probed", "noise_integrals"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y)
    for name in ("diagonal", "weights"):
        assert np.array_equal(getattr(a.result, name), getattr(b.result, name))
    assert (a.result.ground, a.result.q1, a.result.q2, a.result.residual) == (
        b.result.ground, b.result.q1, b.result.q2, b.result.residual
    )
    assert (a.seed, a.enhancement) == (b.seed, b.enhancement)
    x, y = a.noise_spectra, b.noise_spectra
    assert (x is None and y is None) or np.array_equal(x, y)


class TestPrepareBatch:
    @pytest.mark.parametrize(
        "mode,jitter,noise_amp",
        [
            (ScheduleMode.MULTI_SAMPLE, 0.05, 0.01),
            (ScheduleMode.SINGLE_SAMPLE, 0.05, 0.01),
            (ScheduleMode.MULTI_SAMPLE, 0.05, 0.0),
            (ScheduleMode.SINGLE_SAMPLE, 0.0, 0.0),
        ],
        ids=["multi-jitter-noise", "single-noise", "multi-jitter", "noise-free"],
    )
    def test_batch_equals_single_calls(self, mode, jitter, noise_amp):
        params = SpinoeParams(reproducibility_jitter=jitter)
        detection = DetectionSettings(noise_amp=noise_amp)
        schedule = make_schedule(mode, 25.0, DEFAULT_RECOVERY_S)
        seeds = np.random.default_rng(8).permutation(12).tolist()
        batch = prepare_batch(params, CFG, schedule, detection, seeds)
        for seed, got in zip(seeds, batch, strict=True):
            experiments._kept.clear()
            want = _prepare(SpinoeParams(reproducibility_jitter=jitter, seed=seed), CFG,
                            schedule, detection)
            assert_same_preparation(got, want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        data=st.data(),
        mode=st.sampled_from(list(ScheduleMode)),
        jitter=st.sampled_from([0.0, 0.05]),
        noise_amp=st.sampled_from([0.0, 0.01, 0.2]),
    )
    def test_each_seed_is_its_batch_of_one(self, seeds, data, mode, jitter, noise_amp):
        # whatever else a batch holds, duplicates included, and in whatever
        # order: every seed's outcome is bit for bit that of its batch of one
        params = SpinoeParams(reproducibility_jitter=jitter)
        schedule, detection = make_schedule(mode), DetectionSettings(noise_amp=noise_amp)
        alone = {seed: prepare_batch(params, CFG, schedule, detection, [seed])[0] for seed in seeds}
        for order in (seeds, data.draw(st.permutations(seeds))):
            batch = prepare_batch(params, CFG, schedule, detection, order)
            for seed, got in zip(order, batch, strict=True):
                want = alone[seed]
                assert type(got) is type(want)
                if isinstance(want, Exception):
                    assert str(got) == str(want)
                    continue
                for name in ("deviations", "probed", "noise_integrals"):
                    x, y = getattr(got, name), getattr(want, name)
                    assert (x is None and y is None) or np.array_equal(x, y)
                assert np.array_equal(got.result.weights, want.result.weights)
                assert (got.result.ground, got.enhancement) == (want.result.ground, want.enhancement)

    def test_failed_seed_keeps_its_own_status(self):
        # at noise_amp 0.2 seeds 1 and 3 fail the residual gate, 0, 4, 7 and 8 pass
        detection = DetectionSettings(noise_amp=0.2)
        schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE, 25.0, DEFAULT_RECOVERY_S, 600.0)
        seeds = [0, 4, 3, 1, 7, 8]
        batch = prepare_batch(SpinoeParams(), CFG, schedule, detection, seeds)
        for seed, got in zip(seeds, batch, strict=True):
            experiments._kept.clear()
            if seed in (1, 3):
                with pytest.raises(ReadoutError) as single:
                    run_grover_pipeline(SpinoeParams(seed=seed), CFG, GroverCase("10"),
                                        detection=detection)
                assert type(got) is ReadoutError and str(got) == str(single.value)
                assert re.match(r"experiment \d \(probe at \d+\.0 s\): inconsistent", str(got))
            else:
                want = _prepare(SpinoeParams(seed=seed), CFG, schedule, detection)
                assert_same_preparation(got, want)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(exponent=st.floats(-150.0, 150.0))
    def test_preparation_is_invariant_to_the_polarization_scale(self, exponent):
        # states travel as deviations, so their digits do not depend on u:
        # a scaled preparation labels the same ground, with the same weights
        # and enhancement, at every u from 1e-150 to 1e150 (log-uniform)
        params, seeds = SpinoeParams(reproducibility_jitter=0.05), [0, 1, 2]
        scaled = SpinSystemConfig(polarization_unit=10.0 ** exponent)
        for mode in ScheduleMode:
            schedule = make_schedule(mode)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = prepare_batch(params, scaled, schedule, DetectionSettings(), seeds)
            want = prepare_batch(params, CFG, schedule, DetectionSettings(), seeds)
            for a, b in zip(got, want, strict=True):
                assert a.result.ground == b.result.ground
                assert abs(a.enhancement - b.enhancement) <= 1e-12
                gap = np.abs(a.result.weights - b.result.weights).max()
                assert gap <= 1e-12 * np.abs(b.result.weights).max()

    @pytest.mark.parametrize("jitter,noise_amp", [(0.0, 0.0), (0.05, 0.01)])
    def test_no_seeds_prepare_nothing(self, monkeypatch, jitter, noise_amp):
        # an empty batch seeds no generator, draws no noise, and reconstructs
        # and labels no row
        calls = []
        for module, name in ((experiments, "label_row"), (Detector, "reconstruct"),
                             (Detector, "line_noise"), (np.random, "default_rng")):
            fn = getattr(module, name)

            def counting(*args, fn=fn, name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, counting)
        schedule = make_schedule(ScheduleMode.MULTI_SAMPLE)
        detection = DetectionSettings(noise_amp=noise_amp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prepare_batch(SpinoeParams(reproducibility_jitter=jitter), CFG, schedule,
                                 detection, []) == []
        assert calls == []

    @pytest.mark.parametrize("noise_amp", [0.01, 0.1])
    def test_probed_diagonals_follow_the_noise_law(self, noise_amp):
        # fresh samples with no jitter: every probe sees the same clean
        # integrals y plus white-noise integrals n ~ N(0, σ² I₂ ⊗ L Lᵀ), so a
        # probed diagonal S (y + n) has covariance S (σ² I₂ ⊗ L Lᵀ) Sᵀ, and
        # the residual g·(y + n) is g·n (g·y is round-off), normal with
        # variance σ_r² = gᵀ (σ² I₂ ⊗ L Lᵀ) g. Every bound below is the law's
        # sampling interval; the gate refuses no seed, so nothing truncates it
        n_seeds = 1000
        detection = DetectionSettings(noise_amp=noise_amp)
        schedule = make_schedule(ScheduleMode.MULTI_SAMPLE)
        batch = prepare_batch(SpinoeParams(), CFG, schedule, detection, range(n_seeds))
        assert not any(isinstance(prep, Exception) for prep in batch)
        det = batch[0].detector
        law = noise_amp**2 * np.kron(np.eye(2), det.noise_factor @ det.noise_factor.T)
        # the probed diagonals of every experiment, less each one's mean
        probed = np.array([prep.probed for prep in batch])
        deviations = (probed - probed.mean(axis=0)).reshape(-1, 4)
        dof = deviations.shape[0] - probed.shape[1]
        want = probe_solve(det) @ law @ probe_solve(det).T
        got = deviations.T @ deviations / dof
        # the standard error of a Gaussian sample covariance entry
        stderr = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / dof)
        assert (np.abs(got - want) <= 5 * stderr).all()
        # the residuals, replayed from each seed's stream: per probe its four
        # noise normals; each replayed probe reconstructs as the pipeline did
        clean = probe_integrals(det, batch[0].deviations).reshape(-1, 4).tolist()
        g = G_PATTERN
        residuals = []
        for seed, prep in enumerate(batch):
            normals = np.random.default_rng(seed).standard_normal(24)[:12].tolist()
            lines = det.line_noise(normals)
            for i, row in enumerate(clean):
                y = [a + b for a, b in zip(row, lines[4 * i:4 * i + 4])]
                assert det.reconstruct(y) == prep.probed[i].tolist()
                residuals.append(g @ y)
        z = np.array(residuals) / math.sqrt(g @ law @ g)
        assert abs(z.mean()) <= 4 / math.sqrt(z.size)
        # (N - 1) s² is χ² with N - 1 degrees: its central 99.99% interval,
        # by the Wilson-Hilferty cube of a normal quantile (~1e-3 at this N)
        k, q = z.size - 1, statistics.NormalDist().inv_cdf(1 - 1e-4 / 2)
        c = 2 / (9 * k)
        lo, hi = (k * (1 - c + sign * q * math.sqrt(c)) ** 3 for sign in (-1, 1))
        assert lo <= k * z.var(ddof=1) <= hi

    def test_seeds_follow_the_params_rule(self):
        schedule = make_schedule(ScheduleMode.SINGLE_SAMPLE)
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seed"):
                prepare_batch(SpinoeParams(), CFG, schedule, NOISY_DETECTION, [0, seed])

    def test_cold_preparation_spawns_no_seed(self, monkeypatch):
        default_rng, generators = np.random.default_rng, []

        def recording_rng(*args, **kwargs):
            generators.append(default_rng(*args, **kwargs))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        experiments._kept.clear()
        run = noisy_run(ScheduleMode.MULTI_SAMPLE, "01")
        assert len(generators) == 1
        assert generators[0].bit_generator.seed_seq.n_children_spawned == 0
        monkeypatch.undo()
        prep = run.preparation
        vectors = reference_noise(prep.detector, NOISY_PARAMS.seed, prep.noise_integrals)
        assert_noise_spectra(prep.noise_spectra, vectors)

    def test_warm_case_builds_no_record_until_read(self, monkeypatch):
        noisy_run(ScheduleMode.SINGLE_SAMPLE, "10")
        built = []
        record_init, spectra = ExperimentRecord.__init__, readout.Detector.spectra

        def counting_record(self, *args, **kwargs):
            built.append("ExperimentRecord")
            record_init(self, *args, **kwargs)

        def counting_spectra(self, *args):
            built.append("spectra")
            return spectra(self, *args)

        monkeypatch.setattr(ExperimentRecord, "__init__", counting_record)
        monkeypatch.setattr(readout.Detector, "spectra", counting_spectra)
        run = noisy_run(ScheduleMode.SINGLE_SAMPLE, "01")
        assert run.decoded == "01" and built == []
        records = run.records
        [rec.probed_diagonal for rec in records]
        assert built == ["ExperimentRecord"] * 3
        assert run.records is records


class TestReports:
    def test_effective_pure_report_layout(self):
        run = run_effective_pure_pipeline(SpinoeParams(), CFG, ScheduleMode.SINGLE_SAMPLE)
        report = effective_pure_report(run, {"seed": 0})
        assert report["schedule"]["times_s"] == [25.0, 145.0, 265.0]
        assert len(report["experiments"]) == 3
        assert report["enhancement"] == run.enhancement
        assert report["ground_state"] == 2
        assert len(report["weights"]) == 3

    def test_grover_report_layout(self):
        run = run_grover_pipeline(SpinoeParams(), CFG, GroverCase("01"))
        report = grover_report(run, {"seed": 0})
        assert report["target"] == "01"
        assert report["decoded"] == "01"
        assert set(report["peak_integrals"]) == {"h", "c"}
        assert report["line_amplitudes"] == {
            ch: {"0": float(a[0]), "1": float(a[1])} for ch, a in zip("hc", run.line_amplitudes)
        }
        assert report["thermal_q2"] == run.thermal_result.q2
        assert report["equalization_residual"] == run.result.residual

    def test_run_id_deterministic_and_config_sensitive(self):
        assert run_id({"a": 1}) == run_id({"a": 1})
        assert run_id({"a": 1}) != run_id({"a": 2})
        assert run_id({"a": 1}, "00") != run_id({"a": 1}, "01")


class TestDetectionSettings:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n_points": 100}, "256"),
            ({"n_points": 4096.0}, "integer"),
            ({"dwell": 0.0}, "dwell"),
            ({"probe_tip_deg": 0.0}, "probe tip"),
            ({"probe_tip_deg": 25.5}, "probe tip"),
            ({"noise_amp": -1.0}, "noise_amp"),
        ],
        ids=["n_points", "n_points-float", "dwell", "tip-zero", "tip-above-max", "noise"],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DetectionSettings(**kwargs)

    def test_edges_accepted(self):
        DetectionSettings(n_points=256, probe_tip_deg=25.0, noise_amp=0.0)

    def test_one_class_behind_every_import_path(self):
        assert spinoeqc.DetectionSettings is DetectionSettings is readout.DetectionSettings
