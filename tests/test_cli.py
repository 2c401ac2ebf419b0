import collections
import csv
import dataclasses
import inspect
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinoeqc.cli as cli
from spinoeqc import readout
from spinoeqc.experiments import _prepare, run_effective_pure_pipeline, run_grover_pipeline
from spinoeqc.readout import DetectionSettings, _grid_map
from spinoeqc.labeling import SingularLabelingSystem
from spinoeqc.spinoe import ScheduleMode, SpinoeParams
from spinoeqc.spins import SpinSystemConfig


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestEnhanceTrace:
    def test_default_params_first_row(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "enhance-trace", "--duration", "50", "--step", "25"])
        assert rc == 0
        rows = read_csv(tmp_path / "enhancement_trace.csv")
        assert rows[0] == ["t_s", "eps_h", "eps_c"]
        assert [float(v) for v in rows[1]] == [0.0, -11.0, 18.0]
        assert len(rows) == 4

    def test_zero_duration_single_row(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "enhance-trace", "--duration", "0", "--step", "10"])
        assert rc == 0
        assert len(read_csv(tmp_path / "enhancement_trace.csv")) == 2

    def test_monotone_approach_to_thermal(self, tmp_path):
        rc = cli.main(
            ["--out", str(tmp_path), "enhance-trace", "--duration", "4500", "--step", "100"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "enhancement_trace.csv")[1:]
        eps_h = [float(r[1]) for r in rows]
        eps_c = [float(r[2]) for r in rows]
        assert all(a < b for a, b in zip(eps_h, eps_h[1:]))
        assert all(a > b for a, b in zip(eps_c, eps_c[1:]))
        assert abs(eps_h[-1] - 1.0) < 1.0 and abs(eps_c[-1] - 1.0) < 1.0

    def test_rows_are_written_as_computed(self, tmp_path):
        # without --svg, which needs every point, memory does not grow with
        # the row count: 10,000 rows peak no higher than 100 do
        def peak(rows):
            tracemalloc.start()
            argv = ["--out", str(tmp_path), "enhance-trace", "--duration", str(rows - 1)]
            assert cli.main([*argv, "--step", "1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        assert peak(10_000) < peak(100) + 256 * 1024

    def test_svg_artifact(self, tmp_path):
        rc = cli.main(
            ["--out", str(tmp_path), "--svg", "enhance-trace", "--duration", "10", "--step", "5"]
        )
        assert rc == 0
        svg = (tmp_path / "enhancement_trace.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_bad_step_is_usage_error(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "enhance-trace", "--step", "0"])
        assert rc == 64

    @pytest.mark.parametrize(
        "flag,value",
        [("--duration", "nan"), ("--duration", "inf"), ("--step", "nan"), ("--step", "inf")],
    )
    def test_non_finite_duration_or_step_is_usage_error(self, tmp_path, capsys, flag, value):
        rc = cli.main(["--out", str(tmp_path / "o"), "enhance-trace", flag, value])
        assert rc == 64
        assert capsys.readouterr().err.startswith(f"usage error: {flag} must be a finite number")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "duration,step",
        [("1e300", "1e-300"), ("1e300", "1"), ("1000000", "1")],
        ids=["overflowing", "huge", "one-past-the-limit"],
    )
    def test_row_count_above_the_limit_is_usage_error(self, tmp_path, capsys, duration, step):
        # a quotient that overflows to inf, or a finite one too large to write
        argv = ["--out", str(tmp_path / "o"), "enhance-trace", "--duration", duration]
        rc = cli.main([*argv, "--step", step])
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith(
            f"usage error: --duration / --step must give at most {cli.MAX_TRACE_ROWS} rows"
        )
        assert not (tmp_path / "o").exists()


class TestEffpure:
    def test_thermal_config_reports_unit_enhancement(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0_h": 1.0, "eps0_c": 1.0}))
        rc = cli.main(
            ["--config", str(config), "--out", str(tmp_path / "o"), "effpure", "--mode", "multi"]
        )
        assert rc == 0
        report = read_report(tmp_path / "o" / "effpure_report.json")
        assert report["enhancement"] == pytest.approx(1.0, abs=1e-12)
        assert report["weights"] == pytest.approx([1.0, 1.0, 1.0])

    def test_default_multi_matches_library_bit_exact(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "effpure", "--mode", "multi"])
        assert rc == 0
        report = read_report(tmp_path / "effpure_report.json")
        lib = run_effective_pure_pipeline(
            SpinoeParams(), SpinSystemConfig(), ScheduleMode.MULTI_SAMPLE,
            r1=25.0, recovery=120.0,
        )
        assert report["enhancement"] == lib.enhancement
        assert report["q2"] == lib.result.q2
        assert report["enhancement"] == pytest.approx(12.4, rel=1e-9)

    def test_single_mode_schedule(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "effpure", "--mode", "single"])
        assert rc == 0
        report = read_report(tmp_path / "effpure_report.json")
        assert report["schedule"]["times_s"] == [25.0, 145.0, 265.0]
        assert 9.0 < report["enhancement"] < 12.4
        assert (tmp_path / "effpure_exp1_h.csv").exists()
        assert (tmp_path / "effpure_weighted_sum_c.csv").exists()

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SingularLabelingSystem("forced")

        monkeypatch.setattr(cli, "run_effective_pure_pipeline", boom)
        rc = cli.main(["--out", str(tmp_path), "effpure", "--mode", "multi"])
        assert rc == 2

    @pytest.mark.parametrize("unit", [1e10, 1e30])
    def test_large_polarization_unit_labels_as_at_one(self, tmp_path, capsys, unit):
        # the weights' singularity test does not depend on the diagonals' scale
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"polarization_unit": unit}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "effpure"])
        assert rc == 0
        assert "enhancement = 10.6950" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_state_without_deviation_fails_the_solver(self, tmp_path, capsys, mode):
        # its probes read round-off, which is no deviation, not bad peaks
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0_h": 0, "eps0_c": 0}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"),
                       "effpure", "--mode", mode])
        assert rc == 2
        assert "every candidate ground yields q2 = 0" in capsys.readouterr().err


    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_weights_past_the_float_range_fail_the_solver(self, tmp_path, capsys, mode):
        # the first experiment's diagonal lies ~1e280 from the others', so
        # c / c_0 overflows: every ground's weights are not finite, count as
        # singular and are zeroed, and no NaN enhancement is reported
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(NON_FINITE_WEIGHTS))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), "effpure", "--mode", mode])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "weight solver failed: every candidate ground yields q2 = 0\n"
        )
        assert list(out.iterdir()) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), "grover", "--target", "01"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("target 01: decoded 01 (ok)")


# a configuration whose labeling weights leave the float range
NON_FINITE_WEIGHTS = {
    "t2_s": 3.27e48, "polarization_unit": 1.86e139, "eps0_h": 3.44e145, "t1_xe_s": 2.89e-80,
    "r1_s": 7.32e-196, "n_points": 4096, "noise_amp": 8.46e-112,
}


class TestGrover:
    def test_single_target(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "grover", "--target", "01"])
        assert rc == 0
        report = read_report(tmp_path / "grover_01_report.json")
        assert report["decoded"] == "01"
        assert 2.0 <= report["enhancement"] <= 7.0

    def test_all_cases(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "grover", "--all"])
        assert rc == 0
        for target in ("00", "01", "10", "11"):
            report = read_report(tmp_path / f"grover_{target}_report.json")
            assert report["decoded"] == target
            assert (tmp_path / f"grover_{target}_sum_h.csv").exists()

    def test_invalid_target_usage_error(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "grover", "--target", "02"]) == 64

    def test_missing_target_usage_error(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "grover"]) == 64

    def test_readout_failure_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_amp": 1.0}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"),
                       "grover", "--target", "10"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("readout failed: experiment 2 (probe at 720.0 s): ")
        assert "inconsistent peak data" in err

    def test_overlapping_lines_decode(self, tmp_path, capsys):
        # each line leaks into its partner's window; the decode reads amplitudes
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t2_s": 0.0008}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "grover", "--all"])
        assert rc == 0, capsys.readouterr().err
        for target in ("00", "01", "10", "11"):
            report = read_report(tmp_path / "o" / f"grover_{target}_report.json")
            assert report["decoded"] == target
            assert set(report["line_amplitudes"]) == {"h", "c"}

    @pytest.mark.parametrize(
        "command",
        [["grover", "--target", "10"], ["effpure"], ["probe"], ["probe", "--state", "enhanced"]],
        ids=["grover", "effpure", "probe", "probe-enhanced"],
    )
    def test_reference_without_signal_is_a_readout_failure(self, tmp_path, capsys, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"polarization_unit": 0.0}))
        out = tmp_path / "o"
        rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        assert capsys.readouterr().err == "readout failed: thermal reference produced no signal\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe"]],
        ids=["grover", "effpure", "probe"],
    )
    def test_reference_squaring_below_the_normal_floats_is_a_readout_failure(
        self, tmp_path, capsys, command
    ):
        # deviations keep their digits at any scale, but the calibration's
        # square of a thermal reference at 1e-154 is subnormal
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"polarization_unit": 1e-154}))
        out = tmp_path / "o"
        assert cli.main(["--config", str(config), "--out", str(out), *command]) == 4
        assert capsys.readouterr().err == "readout failed: thermal reference produced no signal\n"
        config.write_text(json.dumps({"polarization_unit": 1e-153}))
        assert cli.main(["--config", str(config), "--out", str(out), *command]) == 0

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe", "--state", "enhanced"]],
        ids=["grover", "effpure", "probe"],
    )
    def test_states_past_the_float_range_are_a_readout_failure(self, tmp_path, capsys, command):
        # probe integrals of inf or NaN are a readout failure that names the
        # float range, not the peaks, with no numpy warning on the way
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0_h": 1e307, "eps0_c": 1e307}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        message = "probe integrals are not finite; the probed state leaves the float range"
        experiment = "" if command[0] == "probe" else r"experiment 1 \(probe at \d+\.0 s\): "
        assert re.fullmatch(f"readout failed: {experiment}{message}\n", capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe", "--state", "enhanced"]],
        ids=["grover", "effpure", "probe"],
    )
    @pytest.mark.parametrize(
        "values,named",
        [
            ({"gamma_ratio": 1.25e264, "polarization_unit": -7.7e118}, False),
            ({"eps0_h": 1e308}, True),
            ({"polarization_unit": 5.9e66, "eps0_h": -2.6e283}, True),
        ],
        ids=["reference", "state", "scaled-state"],
    )
    def test_deviations_past_the_float_range_reach_their_refusal_quietly(
        self, tmp_path, capsys, command, values, named
    ):
        # a thermal reference or a state whose deviations leave the float
        # range becomes ±inf with no numpy warning, and the calibration or
        # the probe refuses it in its own words
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        if not named:
            message = "receiver constant overflows; lower polarization_unit or gamma_ratio"
        else:
            experiment = {"grover": "experiment 1 (probe at 600.0 s): ",
                          "effpure": "experiment 1 (probe at 0.0 s): "}.get(command[0], "")
            message = (f"{experiment}probe integrals are not finite; "
                       "the probed state leaves the float range")
        assert capsys.readouterr() == ("", f"readout failed: {message}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "10"], ["effpure"], ["probe"]],
        ids=["grover", "effpure", "probe"],
    )
    @pytest.mark.parametrize("dwell", [5e-324, 1e-310, 1e-300])
    def test_tiny_dwell_is_a_readout_failure(self, tmp_path, capsys, command, dwell):
        # a dwell whose frequency axis leaves the float range is refused as
        # too coarse a grid, with no numpy warning on the way
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dwell_s": dwell}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        assert capsys.readouterr().err == (
            "readout failed: spectral resolution too coarse for peak windows\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe"]],
        ids=["grover", "effpure", "probe"],
    )
    @pytest.mark.parametrize(
        "values,message",
        [
            ({"j_hz": 1e308, "dwell_s": 2e-314, "n_points": 1048576},
             "spectral resolution too coarse for peak windows"),
            ({"j_hz": 1e305, "dwell_s": 1e-310, "n_points": 1048576},
             "frequency axis leaves the float range; increase dwell_s"),
            ({"j_hz": 1e308, "dwell_s": 5e-309}, "line phase rate leaves the float range; lower j_hz"),
        ],
        ids=["coarse", "axis", "phase"],
    )
    def test_grid_past_the_float_range_is_a_readout_failure(
        self, tmp_path, capsys, command, values, message
    ):
        # refused before any arithmetic on the grid: no numpy warning, and
        # the message names the key at fault
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        assert capsys.readouterr().err == f"readout failed: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe"]],
        ids=["grover", "effpure", "probe"],
    )
    @pytest.mark.parametrize("t2", [5e-324, 1e-310, 2.2e-308, 2.3e-308])
    def test_decay_past_the_float_range_is_a_readout_failure(self, tmp_path, capsys, command, t2):
        # a decay exponent (n_points - 1)·dwell/t2 past the float range
        # (below 2.3e-308 here) is refused as the one flat line it leaves,
        # with no numpy warning on the way; just inside it the line is as flat
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t2_s": t2}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        assert capsys.readouterr().err == (
            "readout failed: peak windows cannot separate the doublet lines; "
            "increase t2 or shorten the dwell time\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("noise_amp", [0.0, 0.01], ids=["quiet", "noisy"])
    @pytest.mark.parametrize(
        "command", [["grover", "--target", "01"], ["effpure"], ["probe", "--state", "enhanced"]],
        ids=["grover", "effpure", "probe"],
    )
    def test_grid_near_the_float_range_runs_clean(self, tmp_path, capsys, command, noise_amp):
        # J = 1e300 Hz on a 6e-301 s dwell: the bin width df is ~4e296 and
        # the noise factor ~8e299, so the line integrals' covariance (~df²)
        # leaves the float range; the grid map and the noise conditioning
        # never form it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"j_hz": 1e300, "dwell_s": 6e-301, "noise_amp": noise_amp}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        if command[0] == "grover":
            assert stdout.startswith("target 01: decoded 01 (ok)")
            assert read_report(out / "grover_01_report.json")["decoded"] == "01"

    @pytest.mark.parametrize(
        "command", [["grover", "--all"], ["effpure"], ["probe"]], ids=["grover", "effpure", "probe"]
    )
    @pytest.mark.parametrize(
        "values", [{"polarization_unit": 1e153}, {"gamma_ratio": 1e154}], ids=["unit", "gamma"]
    )
    def test_overflowing_receiver_constant_is_a_readout_failure(
        self, tmp_path, capsys, command, values
    ):
        # in the documented range, but the thermal reference overflows
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(config), "--out", str(out), *command])
        assert rc == 4
        assert capsys.readouterr().err == (
            "readout failed: receiver constant overflows; lower polarization_unit or gamma_ratio\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_is_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        path = tmp_path / out
        rc = cli.main(["--out", str(path), "grover", "--target", "10"])
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot create output directory {path}: ")

    @pytest.mark.parametrize("name", ["grover_10_report.json", "grover_10_exp1_h.csv"],
                             ids=["report", "csv"])
    def test_output_file_that_cannot_be_written_is_usage_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.mkdir()
        rc = cli.main(["--out", str(tmp_path), "grover", "--target", "10"])
        assert rc == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {path}: ")

    def test_decode_mismatch_exit_code(self, tmp_path, monkeypatch):
        real = cli.run_grover_pipeline

        def lying(*args, **kwargs):
            run = real(*args, **kwargs)
            object.__setattr__(run, "decoded", "00" if run.case.target != "00" else "11")
            return run

        monkeypatch.setattr(cli, "run_grover_pipeline", lying)
        rc = cli.main(["--out", str(tmp_path), "grover", "--target", "10"])
        assert rc == 3


class TestProbeCommand:
    def test_thermal_probe_reconstruction(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "probe", "--state", "thermal"])
        assert rc == 0
        report = read_report(tmp_path / "probe_thermal_report.json")
        assert report["reconstructed_deviation_diagonal"] == pytest.approx(
            [2.5, 1.5, -1.5, -2.5], abs=1e-8
        )

    def test_enhanced_probe_reconstruction(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "probe", "--state", "enhanced"])
        assert rc == 0
        report = read_report(tmp_path / "probe_enhanced_report.json")
        assert report["reconstructed_deviation_diagonal"] == pytest.approx(
            [-13.0, -31.0, 31.0, 13.0], rel=1e-6
        )

    def test_state_without_deviation_reconstructs_zero(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0_h": 0, "eps0_c": 0}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"),
                       "probe", "--state", "enhanced"])
        assert rc == 0
        report = read_report(tmp_path / "o" / "probe_enhanced_report.json")
        assert report["reconstructed_deviation_diagonal"] == [0.0, 0.0, 0.0, 0.0]


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"no_such_knob": 1}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path), "effpure"])
        assert rc == 64

    def test_bad_value_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t1_xe_s": -5}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path), "effpure"])
        assert rc == 64

    @pytest.mark.parametrize(
        "values,command",
        [
            ({"r1_s": 0}, ["grover", "--target", "10"]),
            ({"r1_s": 0}, ["effpure", "--mode", "single"]),
            ({"sample_age_s": -5}, ["grover", "--target", "10"]),
            ({"noise_amp": -1}, ["probe"]),
            ({"recovery_s": 0}, ["effpure", "--mode", "single"]),
            ({"recovery_s": 0}, ["effpure", "--mode", "multi"]),
            ({"seed": -1}, ["effpure", "--mode", "multi"]),
            ({"seed": 1.5}, ["grover", "--target", "10"]),
            ({"n_points": 4096.0}, ["probe"]),
            ({"mode": "bogus"}, ["grover", "--target", "10"]),
            ({"seed": True}, ["grover", "--target", "10"]),
            ({"n_points": True}, ["probe"]),
        ],
        ids=["r1-grover", "r1-effpure", "sample-age", "noise", "recovery-single",
             "recovery-multi", "seed", "seed-fraction", "n-points-float", "mode",
             "seed-bool", "n-points-bool"],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, values, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), *command])
        assert rc == 64
        (key,) = values
        assert capsys.readouterr().err.startswith(f"usage error: bad configuration: {key} = ")

    def test_sample_count_past_the_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # rejected with the settings, before any grid array is allocated
        def refuse(*args):
            raise AssertionError("a grid map was built")

        monkeypatch.setattr(readout, "_grid_map", refuse)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_points": 2**40}))
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"),
                       "grover", "--target", "10"])
        assert rc == 64
        assert capsys.readouterr().err == (
            "usage error: bad configuration: n_points = 1099511627776 "
            "(FID takes at most 1048576 samples)\n"
        )

    @pytest.mark.parametrize(
        "key,reason",
        [("seed", "seed must be an integer"),
         ("n_points", "the number of FID samples must be an integer")],
    )
    def test_json_true_is_not_an_integer(self, tmp_path, capsys, key, reason):
        # bool is an int subclass in Python; a JSON true must still be refused
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: True}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "probe"]) == 64
        err = capsys.readouterr().err
        assert err == f"usage error: bad configuration: {key} = True ({reason})\n"

    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"r1_s": NaN}', "r1_s = nan"),
            ('{"noise_amp": Infinity}', "noise_amp = inf"),
            ('{"jitter": NaN, "mode": "multi"}', "jitter = nan"),
            ('{"eps0_h": -Infinity}', "eps0_h = -inf"),
            ('{"t2_s": 1e400}', "t2_s = inf"),
        ],
        ids=["nan", "infinity", "nan-jitter-multi", "minus-infinity", "overflow"],
    )
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, text, named):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "effpure"])
        assert rc == 64
        assert capsys.readouterr().err == (
            f"usage error: bad configuration: {named} (not a finite number)\n"
        )

    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"eps0_h": "abc"}', "eps0_h = 'abc'"),
            ('{"polarization_unit": null}', "polarization_unit = None"),
            ('{"tip_deg": true}', "tip_deg = True"),
            ('{"eps0_c": true}', "eps0_c = True"),
            ('{"j_hz": "215"}', "j_hz = '215'"),
        ],
        ids=["string", "null", "true-tip", "true-enhancement", "numeric-string"],
    )
    def test_float_key_takes_a_json_number(self, tmp_path, capsys, text, named):
        # in-process, so a traceback would be an exception escaping `main`
        config = tmp_path / "cfg.json"
        config.write_text(text)
        argv = ["--config", str(config), "--out", str(tmp_path / "o"), "probe"]
        assert cli.main([*argv, "--state", "enhanced"]) == 64
        assert capsys.readouterr().err == (
            f"usage error: bad configuration: {named} (not a number)\n"
        )

    def test_integer_too_large_for_a_float_key_is_usage_error(self, tmp_path, capsys):
        huge = 10**400
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0_h": huge}))
        argv = ["--config", str(config), "--out", str(tmp_path / "o"), "probe"]
        assert cli.main([*argv, "--state", "enhanced"]) == 64
        assert capsys.readouterr().err == (
            f"usage error: bad configuration: eps0_h = {huge} (not a finite number)\n"
        )

    @pytest.mark.parametrize(
        "content",
        [b'{"seed": 1' + b"0" * 5000 + b"}", b'{"seed": 1, "\xff": 2}'],
        ids=["integer-past-the-digit-limit", "not-utf-8"],
    )
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        config.write_bytes(content)
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "o"), "probe"]) == 64
        assert capsys.readouterr().err.startswith(f"usage error: cannot read config {config}: ")

    def test_rule_of_several_keys_names_them(self, tmp_path, capsys):
        # each key alone passes; together the 1 s gap is below the float
        # resolution at 1e17 s, so the schedule times coincide
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sample_age_s": 1e17, "recovery_s": 1}))
        argv = ["--config", str(config), "--out", str(tmp_path / "o"), "grover", "--target", "10"]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err == (
            "usage error: bad configuration: mode = 'single', r1_s = 25.0, recovery_s = 1, "
            "sample_age_s = 1e+17 (single-sample times must be strictly increasing)\n"
        )

    @pytest.mark.parametrize(
        "keys,build", cli._BUILDERS, ids=[build.__name__ for _, build in cli._BUILDERS]
    )
    def test_builder_keys_are_the_keys_it_reads(self, keys, build):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        read = set()

        class Recording(cli.RunConfig):
            def __getattribute__(self, name):
                if name in fields:
                    read.add(name)
                return super().__getattribute__(name)

        build(Recording())
        assert set(keys) == read

    def test_readme_documents_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Configuration file", 1)[1].split("\n#", 1)[0]
        keys = {
            key
            for row in table.splitlines()
            if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])
        }
        assert keys == {f.name for f in dataclasses.fields(cli.RunConfig)}

    def test_readme_lists_the_keys_in_echo_order(self):
        # reports echo the configuration in field order; the table documents it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Configuration file", 1)[1].split("\n#", 1)[0]
        keys = [
            key
            for row in table.splitlines()
            if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])
        ]
        assert keys == list(cli.RunConfig().echo())

    def test_documented_exit_codes_are_the_exit_constants(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        want = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
        for text in (readme, cli.__doc__):
            paragraph = text.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
            codes = re.findall(r"(?:^|,)\s+`?(\d+)`?\s", paragraph)
            assert sorted(int(code) for code in codes) == want

    def test_missing_file_rejected(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "effpure"])
        assert rc == 64

    def test_flag_overrides_config_seed(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 7, "jitter": 0.05}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(config), "--out", str(out_a), "--seed", "9",
                         "effpure", "--mode", "multi"]) == 0
        assert cli.main(["--config", str(config), "--out", str(out_b),
                         "effpure", "--mode", "multi"]) == 0
        ra = read_report(out_a / "effpure_report.json")
        rb = read_report(out_b / "effpure_report.json")
        assert ra["config"]["seed"] == 9
        assert rb["config"]["seed"] == 7
        assert ra["weights"] != rb["weights"]


class TestConfigTable:
    """The key table covers the library: every field a configuration can
    set has one key, and every default is the library's."""

    def test_every_library_field_is_fed_by_one_key(self):
        fed = collections.Counter((owner, param) for _, owner, param in cli._KEYS)
        for owner in (SpinSystemConfig, SpinoeParams, DetectionSettings):
            for f in dataclasses.fields(owner):
                assert fed[owner, f.name] == 1, (owner.__name__, f.name)

    def test_every_schedule_parameter_of_a_search_is_fed_by_one_key(self):
        # a search's other parameters are the spin system, the enhancement
        # trajectory, the detection settings and the case
        search = inspect.signature(run_grover_pipeline).parameters
        schedule = [name for name in search if name not in ("p", "cfg", "case", "detection")]
        assert list(inspect.signature(cli._schedule).parameters) == schedule
        fed = collections.Counter(param for _, owner, param in cli._KEYS if owner is cli._schedule)
        assert fed == collections.Counter(schedule)

    def test_defaults_are_the_library_defaults(self):
        search = inspect.signature(run_grover_pipeline).parameters
        cfg = cli.RunConfig()
        for key, owner, param in cli._KEYS:
            if owner is cli._schedule:
                want = search[param].default
                want = getattr(want, "value", want)  # the mode by its name
            else:
                want = {f.name: f.default for f in dataclasses.fields(owner)}[param]
            got = getattr(cfg, key)
            assert (got, type(got)) == (want, type(want)), key


def assert_same_files_outside_timestamp(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if name.endswith(".json"):
            ja, jb = read_report(fa), read_report(fb)
            ja.pop("timestamp"), jb.pop("timestamp")
            assert ja == jb, name
        else:
            assert fa.read_bytes() == fb.read_bytes(), name


class TestDeterminism:
    def test_repeat_runs_byte_identical_outside_timestamp(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["--out", str(out), "--svg", "effpure", "--mode", "single"]) == 0
        assert_same_files_outside_timestamp(out_a, out_b)

    def test_all_targets_match_separate_cold_runs(self, tmp_path):
        # --all shares one preparation across its four cases; each separate
        # run starts on empty caches and prepares and maps for itself
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_amp": 0.01, "seed": 3}))
        common = ["--config", str(config)]
        _prepare.cache_clear()
        _grid_map.cache_clear()
        assert cli.main([*common, "--out", str(tmp_path / "all"), "grover", "--all"]) == 0
        for target in ("00", "01", "10", "11"):
            _prepare.cache_clear()
            _grid_map.cache_clear()
            argv = [*common, "--out", str(tmp_path / "one"), "grover", "--target", target]
            assert cli.main(argv) == 0
        assert_same_files_outside_timestamp(tmp_path / "all", tmp_path / "one")
