"""The valid configuration space, noise off, searched by derandomized
hypothesis runs: every configuration in the README's valid ranges either
runs or fails with a documented exit code, and a search whose preparation
succeeds with q2 ≠ 0 decodes every target. The readout identity of the
search pass is checked over the same space with noise and jitter on and
off.

The acquisition grid is bounded (`n_points` ≤ 8192, `dwell_s` ≤ 2 ms) and
`j_hz` kept within [10, 500] Hz to keep the suite fast and most grids
inside the window rules; the rules still reject a share of the grids
drawn, which is part of what is tested."""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinoeqc import cli
from spinoeqc.experiments import (
    GROVER_TARGETS, DecodeError, GroverCase, Preparation, _prepare, prepare_batch,
    run_grover_pipeline,
)
from spinoeqc.labeling import (
    EQUALIZATION_TOL, SingularLabelingSystem, UnequalizedLabeling, label_row,
)
from spinoeqc.readout import PROBE_TIP_MAX, Detector, ReadoutError
from spinoeqc.spins import enhanced_deviations
from test_readout import (
    matmul_probe_amplitudes, matmul_probe_integrals, probe_integrals, probe_map,
    probe_response_matrix, probe_solve, reference_probe_setting,
)

DOCUMENTED_EXITS = {
    cli.EXIT_OK, cli.EXIT_SOLVER, cli.EXIT_DECODE, cli.EXIT_READOUT, cli.EXIT_USAGE
}


# every key of the README's table, in its valid range; noise off
CONFIGURATIONS = st.fixed_dictionaries({
    "gamma_ratio": st.floats(0.1, 10.0),
    "j_hz": st.floats(10.0, 500.0),
    "t2_s": st.floats(1e-4, 10.0),
    "polarization_unit": st.floats(-10.0, 10.0),
    "eps0_h": st.floats(-100.0, 100.0),
    "eps0_c": st.floats(-100.0, 100.0),
    "t1_xe_s": st.floats(1.0, 1e5),
    "recovery_s": st.floats(1.0, 1000.0),
    "r1_s": st.floats(0.1, 1000.0),
    "jitter": st.floats(0.0, 0.5),
    "seed": st.integers(0, 2**31 - 1),
    "n_points": st.integers(256, 8192),
    "dwell_s": st.floats(1e-5, 2e-3),
    "tip_deg": st.floats(0.01, 25.0),
    "mode": st.sampled_from(["single", "multi"]),
    "sample_age_s": st.floats(0.0, 3600.0),
})


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config=CONFIGURATIONS)
def test_every_command_ends_in_a_documented_exit_code(config):
    # in-process, so an exception that escapes `main` fails the test
    commands = (["grover", "--target", "10"], ["effpure"], ["probe", "--state", "enhanced"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command in commands:
            argv = ["--config", str(path), "--out", str(Path(tmp) / "out"), *command]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(argv)
            assert rc in DOCUMENTED_EXITS, (command, rc)
            assert "Traceback" not in err.getvalue()


# the keys whose default is a float, which take a JSON number
FLOAT_KEYS = [key for key, value in cli.RunConfig().echo().items() if isinstance(value, float)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    config=CONFIGURATIONS,
    key=st.sampled_from(FLOAT_KEYS),
    value=st.one_of(st.text(max_size=8), st.none(), st.booleans()),
)
def test_a_float_key_that_is_no_number_is_a_usage_error(config, key, value):
    # every other key is in its range, so this key's message is the one given
    config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), "--out", str(Path(tmp) / "out"), "probe"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        assert not (Path(tmp) / "out").exists()  # refused before any output
    assert rc == cli.EXIT_USAGE
    assert err.getvalue() == f"usage error: bad configuration: {key} = {value!r} (not a number)\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=CONFIGURATIONS)
def test_a_search_with_signal_decodes_every_target(config):
    cfg = cli.RunConfig(**config)
    params, system, detection = cfg.spinoe(), cfg.spin_system(), cfg.detection()
    try:
        prep = _prepare(params, system, cfg.schedule(), detection)
    except (ReadoutError, SingularLabelingSystem):
        # a typed failure before any decode: the window rules, an
        # inconsistent probe or a singular weight system
        assume(False)
    assume(prep.result.q2 != 0)
    for target in GROVER_TARGETS:
        run = run_grover_pipeline(
            params, system, GroverCase(target), cfg.schedule_mode(), r1=cfg.r1_s,
            recovery=cfg.recovery_s, sample_age=cfg.sample_age_s, detection=detection,
        )
        assert run.decoded == target


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=CONFIGURATIONS)
def test_probe_round_trip_returns_the_state(config):
    # over generated (spin system, grid, tip), the probe of a configuration's
    # enhanced state reconstructs it within 1% of its largest entry; a state
    # whose integrals are all within the round-off level is the zero diagonal
    cfg = cli.RunConfig(**config)
    system = cfg.spin_system()
    try:
        detector = Detector(system, cfg.detection())
    except ReadoutError:
        assume(False)  # a grid the window rules refuse, or no thermal signal
    d = enhanced_deviations(system, cfg.eps0_h, cfg.eps0_c)
    y = probe_integrals(detector, d).ravel().tolist()
    got = np.array(detector.reconstruct(y))
    if max(map(abs, y)) <= detector.roundoff:
        assert np.array_equal(got, np.zeros(4))
    else:
        assert np.abs(got - d).max() <= 0.01 * np.abs(d).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=CONFIGURATIONS, noise_amp=st.sampled_from([0.0, 0.01, 0.1]))
def test_a_labeling_equalizes_or_warns(config, noise_amp):
    # over generated configurations, the diagonals a preparation labels:
    # every non-singular `label_row` result has its non-ground populations
    # equal within EQUALIZATION_TOL of the largest population, or warns
    # `UnequalizedLabeling`, once, and only then
    cfg = cli.RunConfig(**config, noise_amp=noise_amp)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnequalizedLabeling)
            (prep,) = prepare_batch(
                cfg.spinoe(), cfg.spin_system(), cfg.schedule(), cfg.detection(), [cfg.seed]
            )
    except ReadoutError:
        assume(False)  # a grid the window rules refuse, or no thermal signal
    assume(isinstance(prep, Preparation))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = label_row(prep.probed.ravel().tolist())
    warned = [w for w in caught if issubclass(w.category, UnequalizedLabeling)]
    assert len(warned) == len(caught) == (not result.equalized)
    others = np.delete(result.diagonal, result.ground)
    spread = others.max() - others.min()
    assert spread <= EQUALIZATION_TOL * np.abs(result.diagonal).max() or warned


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    config=CONFIGURATIONS, noise_amp=st.sampled_from([0.0, 0.01, 0.1]), jittered=st.booleans(),
)
def test_search_integrals_are_the_response_of_their_line_amplitudes(config, noise_amp, jittered):
    # the identity behind the search pass: a target's weighted readout
    # integrals are Re(R) times its line amplitudes, A = Re(R)⁻¹ times those
    # integrals. Forming A·I, then Re(R)·(A·I), and A's own inverse residual
    # Re(R)·A − I each err by a few eps of the products' magnitudes, so the
    # bound is 8 eps of the largest entry of |Re(R)| |A| |I| per channel
    # (cond(Re R) reaches ~1e9 on grids whose lines overlap)
    cfg = cli.RunConfig(**{**config, "jitter": config["jitter"] if jittered else 0.0},
                        noise_amp=noise_amp)
    try:
        prep = _prepare(cfg.spinoe(), cfg.spin_system(), cfg.schedule(), cfg.detection())
    except (ReadoutError, SingularLabelingSystem):
        assume(False)
    for target in GROVER_TARGETS:
        try:
            run = run_grover_pipeline(
                cfg.spinoe(), cfg.spin_system(), GroverCase(target), cfg.schedule_mode(),
                r1=cfg.r1_s, recovery=cfg.recovery_s, sample_age=cfg.sample_age_s,
                detection=cfg.detection(),
            )
        except DecodeError:
            continue  # q2 = 0, or lines that the noise leaves comparable
        assert run.preparation is prep
        response, solve = prep.detector.response.real, prep.detector.amplitude_solve
        integrals, amplitudes = run.peak_integrals, run.line_amplitudes
        gap = np.abs(amplitudes @ response.T - integrals).max(axis=-1)
        scale = (np.abs(integrals) @ np.abs(solve).T @ np.abs(response).T).max(axis=-1)
        assert np.all(gap <= 8 * EPS * scale), (target, gap, scale)


MAX_FLOAT = Fraction(sys.float_info.max)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    config=CONFIGURATIONS,
    tip=st.floats(0.0, PROBE_TIP_MAX, exclude_min=True),
    pattern=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-300.0, 308.25),
)
def test_float_probe_setting_is_the_array_route(config, tip, pattern, log_scale):
    # the detector's float build against the array route it replaced
    # (`probe_response_matrix`, `array_probe_solve`, and `probe_map @ d`
    # then `@ response.T`), over generated (spin system, grid, tip), with
    # every warning an error: the probe setting is bit-identical, or both
    # refuse it with one text; the probe integrals of the configuration's
    # state and of a diagonal of any scale, and at the float range, agree
    cfg = cli.RunConfig(**{**config, "tip_deg": tip})
    system = cfg.spin_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = reference_probe_setting(system, cfg.n_points, cfg.dwell_s, tip)
        except ReadoutError as exc:
            with pytest.raises(ReadoutError, match=f"^{re.escape(str(exc))}$"):
                Detector(system, cfg.detection())
            return
        det = Detector(system, cfg.detection())
        got = (probe_map(det), det.receiver_constant, probe_solve(det), det.roundoff)
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        state = enhanced_deviations(system, cfg.eps0_h, cfg.eps0_c).tolist()
        for scale in (10.0**log_scale, sys.float_info.max):
            assert_probe_integrals_agree(det, tip, [x * scale for x in pattern])
        assert_probe_integrals_agree(det, tip, state)


def assert_probe_integrals_agree(det, tip, d):
    """The float probe integrals of the diagonal d against the matmul
    route, entry by entry, by their exact values e and forward scales
    s = |Re(response)| |R| |d| (as fractions).

    Each route forms the amplitudes as 4-term sums of products and the
    integrals as 2-term sums, so either errs from e by at most γ₄ s + γ₂ s
    (1 + γ₄) < 3 eps s, and the two differ by less than 6 eps s, plus
    8 half-units of the smallest subnormal per product where the products
    underflow. Where s (1 + 8 eps) stays below the largest float, no
    product or partial sum can overflow, and both are finite. Where |e|
    exceeds it by more than either route's error, both are past the float
    range: NaN or ±inf, whichever their operations give. The matmul fuses
    multiply-adds, so between these two its integral may stay finite, or
    read inf, where the float route's products overflow (to inf, or to NaN
    for products of opposite signs); nothing is asserted there. The
    complex product of today's route equals the real one wherever all its
    entries are finite; past the float range it turns whole rows to NaN
    through 0·inf in the imaginary part."""
    eps, tiny = Fraction(EPS), Fraction(2.0**-1074)
    got = probe_integrals(det, d).ravel().tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        real = (matmul_probe_amplitudes(tip, d) @ det.response.real.T).ravel().tolist()
    complex_route = matmul_probe_integrals(det, d)
    if np.isfinite(complex_route).all():
        assert complex_route.ravel().tolist() == real
    relations = [[Fraction(x) for x in row] for row in probe_response_matrix(tip).tolist()]
    response = [[Fraction(x) for x in row] for row in det.response.real.tolist()]
    d = [Fraction(x) for x in d]
    m = [sum(r * x for r, x in zip(row, d)) for row in relations]
    m_scale = [sum(abs(r * x) for r, x in zip(row, d)) for row in relations]
    for i, (g, w) in enumerate(zip(got, real)):
        channel, (r0, r1) = 2 * (i // 2), response[i % 2]
        exact = r0 * m[channel] + r1 * m[channel + 1]
        s = abs(r0) * m_scale[channel] + abs(r1) * m_scale[channel + 1]
        slack = 6 * eps * s + 8 * (abs(r0) + abs(r1) + 1) * tiny
        if s * (1 + 8 * eps) < MAX_FLOAT:
            assert math.isfinite(g) and math.isfinite(w), (i, g, w)
            assert abs(Fraction(g) - Fraction(w)) <= slack, (i, g, w)
        elif abs(exact) - slack > MAX_FLOAT:
            assert not math.isfinite(g) and not math.isfinite(w), (i, g, w)
