import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinoeqc.labeling import DEFAULT_PERM_ORDER
from spinoeqc.spinoe import (
    DEFAULT_RECOVERY_S,
    ExperimentSchedule,
    ScheduleMode,
    SpinoeParams,
    enhancement_at,
    make_schedule,
    sample_initial_state,
)
from spinoeqc.spins import SpinSystemConfig, enhanced_populations

CFG = SpinSystemConfig()


class TestEnhancementAt:
    def test_initial_point(self):
        assert enhancement_at(SpinoeParams(), 0.0) == (-11.0, 18.0)

    def test_long_time_limit_is_thermal(self):
        eps_h, eps_c = enhancement_at(SpinoeParams(), 1e9)
        assert eps_h == pytest.approx(1.0)
        assert eps_c == pytest.approx(1.0)

    def test_half_life_point(self):
        p = SpinoeParams()
        eps_h, eps_c = enhancement_at(p, p.t1_xe * np.log(2.0))
        assert eps_h == pytest.approx(1.0 + (-11.0 - 1.0) / 2)  # -5.0
        assert eps_c == pytest.approx(9.5)

    def test_monotone_approach_and_sign_stability(self):
        p = SpinoeParams()
        last_h, last_c = np.inf, np.inf
        for t in np.linspace(0.0, 5 * p.t1_xe, 200):
            eps_h, eps_c = enhancement_at(p, t)
            assert abs(eps_h - 1.0) <= last_h + 1e-12
            assert abs(eps_c - 1.0) <= last_c + 1e-12
            assert np.sign(eps_h - 1.0) == -1.0
            assert np.sign(eps_c - 1.0) == 1.0
            last_h, last_c = abs(eps_h - 1.0), abs(eps_c - 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            enhancement_at(SpinoeParams(), -0.1)


class TestSampleInitialState:
    def test_no_jitter_matches_enhanced_state(self):
        p = SpinoeParams(reproducibility_jitter=0.0)
        d = sample_initial_state(p, CFG, 0.0)
        assert np.array_equal(d, enhanced_populations(CFG, -11.0, 18.0))

    def test_no_jitter_is_deterministic_function_of_time(self):
        p = SpinoeParams()
        a = sample_initial_state(p, CFG, 137.0, fresh_sample=True)
        b = sample_initial_state(p, CFG, 137.0, fresh_sample=True)
        assert np.array_equal(a, b)

    def test_jitter_reproducible_under_fixed_seed(self):
        p = SpinoeParams(reproducibility_jitter=0.05, seed=42)
        a, b = (
            sample_initial_state(p, CFG, 0.0, fresh_sample=True, rng=np.random.default_rng(42))
            for _ in range(2)
        )
        assert np.array_equal(a, b)
        # and differs from the unjittered state
        assert not np.array_equal(a, enhanced_populations(CFG, -11.0, 18.0))

    def test_jitter_needs_a_seeded_generator(self):
        p = SpinoeParams(reproducibility_jitter=0.05, seed=42)
        with pytest.raises(ValueError, match="rng"):
            sample_initial_state(p, CFG, 0.0, fresh_sample=True)

    def test_jitter_ignored_without_fresh_sample(self):
        p = SpinoeParams(reproducibility_jitter=0.05, seed=42)
        d = sample_initial_state(p, CFG, 0.0, fresh_sample=False)
        assert np.array_equal(d, enhanced_populations(CFG, -11.0, 18.0))

    def test_long_time_gives_thermal(self):
        d = sample_initial_state(SpinoeParams(), CFG, 1e9)
        assert_allclose(d, enhanced_populations(CFG, 1.0, 1.0), atol=1e-12)

    def test_sampled_states_have_zero_off_diagonals(self):
        p = SpinoeParams(reproducibility_jitter=0.2, seed=9)
        rng = np.random.default_rng(9)
        for t in (0.0, 50.0, 500.0):
            # a sampled state is its four real populations, so it carries
            # no coherences by construction
            d = sample_initial_state(p, CFG, t, fresh_sample=True, rng=rng)
            assert d.shape == (4,) and d.dtype == np.float64
            assert not d.flags.writeable
            assert d.sum() == pytest.approx(1.0, abs=1e-12)


class TestSchedules:
    def test_single_sample_times(self):
        sched = make_schedule(ScheduleMode.SINGLE_SAMPLE, r1=25.0, recovery=120.0)
        assert sched.times == (25.0, 145.0, 265.0)
        assert sched.probe_times == (0.0, 120.0, 240.0)
        assert sched.probe_lead == 25.0
        assert not sched.fresh_sample

    def test_multi_sample_times(self):
        sched = make_schedule(ScheduleMode.MULTI_SAMPLE, r1=25.0)
        assert sched.times == (25.0, 25.0, 25.0)
        assert sched.fresh_sample

    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    def test_one_experiment_per_permutation(self, mode):
        assert len(make_schedule(mode).times) == len(DEFAULT_PERM_ORDER)

    def test_default_recovery_is_five_t1(self):
        # 5 x the 24 s solute T1
        assert DEFAULT_RECOVERY_S == 5 * 24.0
        sched = make_schedule(ScheduleMode.SINGLE_SAMPLE, r1=10.0)
        assert sched.times == (10.0, 10.0 + DEFAULT_RECOVERY_S, 10.0 + 2 * DEFAULT_RECOVERY_S)

    def test_start_delay_shifts_everything(self):
        sched = make_schedule(
            ScheduleMode.SINGLE_SAMPLE, r1=25.0, recovery=120.0, start_delay=600.0
        )
        assert sched.times == (625.0, 745.0, 865.0)
        assert sched.probe_times == (600.0, 720.0, 840.0)

    @pytest.mark.parametrize("mode", list(ScheduleMode), ids=lambda m: m.value)
    def test_bad_recovery_rejected(self, mode):
        with pytest.raises(ValueError, match="recovery"):
            make_schedule(mode, r1=25.0, recovery=0.0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ExperimentSchedule(times=(25.0, 25.0), probe_lead=25.0, fresh_sample=False)
        with pytest.raises(ValueError):
            ExperimentSchedule(times=(10.0,), probe_lead=25.0)
        with pytest.raises(ValueError):
            ExperimentSchedule(times=(25.0,), probe_lead=0.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpinoeParams(t1_xe=0.0)
        with pytest.raises(ValueError):
            SpinoeParams(reproducibility_jitter=-0.1)
        with pytest.raises(ValueError, match="integer"):
            SpinoeParams(seed=1.5)
