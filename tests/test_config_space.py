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
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinoeqc import cli
from spinoeqc.experiments import (
    GROVER_TARGETS, DecodeError, GroverCase, _prepare, run_grover_pipeline,
)
from spinoeqc.labeling import SingularLabelingSystem
from spinoeqc.readout import Detector, ReadoutError
from spinoeqc.spins import enhanced_deviations

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
    y = detector.probe_integrals(d).ravel().tolist()
    got = np.array(detector.reconstruct(y))
    if max(map(abs, y)) <= detector.roundoff:
        assert np.array_equal(got, np.zeros(4))
    else:
        assert np.abs(got - d).max() <= 0.01 * np.abs(d).max()


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
