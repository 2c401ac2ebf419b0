import dataclasses
import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinoeqc.experiments import (
    GroverCase, prepare_batch, run_effective_pure_pipeline, run_grover_pipeline,
)
from spinoeqc.labeling import DEFAULT_PERM_ORDER
from spinoeqc.readout import DetectionSettings
from spinoeqc.spinoe import (
    DEFAULT_RECOVERY_S,
    ExperimentSchedule,
    ScheduleMode,
    SpinoeParams,
    enhancement_at,
    make_schedule,
    sample_initial_states,
)
from spinoeqc.quantum import populations
from spinoeqc.spins import SpinSystemConfig, enhanced_deviations, enhanced_state

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


UNJITTERED = enhanced_deviations(CFG, -11.0, 18.0)


def prepared_states(jitter: float, mode: ScheduleMode, seeds) -> np.ndarray:
    """The (seed, experiment, 4) deviation diagonals `prepare_batch` samples."""
    p = SpinoeParams(reproducibility_jitter=jitter)
    schedule = make_schedule(mode, 25.0, DEFAULT_RECOVERY_S)
    batch = prepare_batch(p, CFG, schedule, DetectionSettings(), seeds)
    return np.array([prep.deviations for prep in batch])


class TestSampleInitialState:
    def test_no_jitter_matches_enhanced_state(self):
        d = sample_initial_states(SpinoeParams(), CFG, (0.0,), np.zeros(2))
        assert d.shape == (1, 4)
        assert np.array_equal(d[0], UNJITTERED)
        # the deviation diagonal of the enhanced state: its populations less I/4
        assert np.array_equal(0.25 + d[0], populations(enhanced_state(CFG, -11.0, 18.0)))

    def test_no_jitter_is_deterministic_function_of_time(self):
        # without jitter a fresh sample is the same state whatever its seed
        states = prepared_states(0.0, ScheduleMode.MULTI_SAMPLE, range(4))
        want = sample_initial_states(SpinoeParams(), CFG, (0.0,), np.zeros(2))
        assert np.array_equal(states, np.broadcast_to(want, states.shape))

    def test_jitter_scales_each_enhancement(self):
        p = SpinoeParams()
        draws = np.array([[0.1, -0.2], [0.0, 0.3]])
        d = sample_initial_states(p, CFG, (0.0, 137.0), draws)
        (h0, c0), (h1, c1) = enhancement_at(p, 0.0), enhancement_at(p, 137.0)
        assert_allclose(d[0], enhanced_deviations(CFG, 1.1 * h0, 0.8 * c0), rtol=1e-15)
        assert_allclose(d[1], enhanced_deviations(CFG, h1, 1.3 * c1), rtol=1e-15)

    def test_jitter_reproducible_under_fixed_seed(self):
        a, b = (prepared_states(0.05, ScheduleMode.MULTI_SAMPLE, [42]) for _ in range(2))
        assert np.array_equal(a, b)
        # and differs from the unjittered state, sample by sample
        assert not (a == UNJITTERED).all(axis=-1).any()
        # the seed's first two normals jitter the first sample
        draws = 0.05 * np.random.default_rng(42).standard_normal(2)
        want = sample_initial_states(SpinoeParams(), CFG, (0.0,), draws)
        assert np.array_equal(a[0, 0], want[0])

    def test_jitter_ignored_without_fresh_sample(self):
        # one decaying sample is not resampled, so its states take no jitter
        states = prepared_states(0.05, ScheduleMode.SINGLE_SAMPLE, [42, 7])
        times = make_schedule(ScheduleMode.SINGLE_SAMPLE).probe_times
        want = sample_initial_states(SpinoeParams(), CFG, times, np.zeros(2))
        assert np.array_equal(states, np.broadcast_to(want, states.shape))

    def test_long_time_gives_thermal(self):
        d = sample_initial_states(SpinoeParams(), CFG, (1e9,), np.zeros(2))
        assert_allclose(d[0], enhanced_deviations(CFG, 1.0, 1.0), atol=1e-12)

    def test_sampled_states_have_zero_off_diagonals(self):
        p = SpinoeParams(reproducibility_jitter=0.2)
        draws = 0.2 * np.random.default_rng(9).standard_normal((3, 2))
        # a sampled state is its real deviation diagonal, so it carries no
        # coherences by construction, and no trace
        d = sample_initial_states(p, CFG, (0.0, 50.0, 500.0), draws)
        assert d.shape == (3, 4) and d.dtype == np.float64
        assert not d.flags.writeable
        assert_allclose(d.sum(axis=-1), 0.0, atol=1e-12)


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

    @pytest.mark.parametrize("mode", ["multi", "single", None, 0], ids=repr)
    def test_mode_must_be_a_schedule_mode(self, mode):
        # a mode name or None once ran as single-sample without a word:
        # "multi" gave the single-sample enhancement, 10.695 instead of 12.4
        message = r"^mode must be ScheduleMode\.MULTI_SAMPLE or SINGLE_SAMPLE, not "
        with pytest.raises(ValueError, match=message):
            make_schedule(mode)
        with pytest.raises(ValueError, match=message):
            run_effective_pure_pipeline(SpinoeParams(), CFG, mode)
        with pytest.raises(ValueError, match=message):
            run_grover_pipeline(SpinoeParams(), CFG, GroverCase("01"), mode)

    def test_an_unhashable_argument_gets_its_documented_error(self):
        # the schedule cache's key failed first: TypeError: unhashable type
        message = r"^mode must be ScheduleMode\.MULTI_SAMPLE or SINGLE_SAMPLE, not \['multi'\]$"
        with pytest.raises(ValueError, match=message):
            make_schedule(["multi"])
        for name in ("r1", "recovery", "start_delay"):
            for value in ([25.0], "25"):
                with pytest.raises(TypeError, match="^(?!unhashable)"):
                    make_schedule(ScheduleMode.SINGLE_SAMPLE, **{name: value})

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


# every float a spin system, an enhancement trajectory or a schedule takes,
# with the range rule a negative infinity breaks first (None: none)
FIELDS = [
    (SpinSystemConfig, "gamma_ratio", "gamma_ratio must be positive"),
    (SpinSystemConfig, "j_coupling", "j_coupling must be positive"),
    (SpinSystemConfig, "t2", "t2 must be positive"),
    (SpinSystemConfig, "polarization_unit", None),
    (SpinoeParams, "eps0_h", None),
    (SpinoeParams, "eps0_c", None),
    (SpinoeParams, "t1_xe", "t1_xe must be positive"),
    (SpinoeParams, "reproducibility_jitter", "jitter must be non-negative"),
]
SCHEDULE_ARGUMENTS = [
    ("r1", None),
    ("recovery", "recovery must be positive"),
    ("start_delay", "start_delay must be non-negative"),
]
FLOAT_INPUTS = [
    pytest.param(owner, name, rule, id=f"{owner.__name__}.{name}") for owner, name, rule in FIELDS
] + [
    pytest.param(functools.partial(make_schedule, mode), name, rule, id=f"{mode.value}.{name}")
    for mode in ScheduleMode
    for name, rule in SCHEDULE_ARGUMENTS
]


def test_the_table_holds_every_float_field():
    for owner in (SpinSystemConfig, SpinoeParams):
        floats = {f.name for f in dataclasses.fields(owner) if f.type == "float"}
        assert floats == {name for fed, name, _ in FIELDS if fed is owner}


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
@pytest.mark.parametrize("owner,name,negative_rule", FLOAT_INPUTS)
def test_non_finite_values_are_rejected(owner, name, negative_rule, value):
    # NaN passed every range rule and failed far downstream, if at all
    message = negative_rule if value == -np.inf and negative_rule else f"{name} must be finite"
    with pytest.raises(ValueError, match=f"^{message}$"):
        owner(**{name: value})
