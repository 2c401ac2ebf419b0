"""Command-line front end: run the pipelines, emit reports, spectra, plots.

Subcommands
    enhance-trace   enhancement-vs-time table (CSV, optional SVG)
    effpure         effective-pure-state preparation (JSON report + CSV spectra)
    grover          one or all search cases (JSON report + CSV spectra per case)
    probe           probing experiment on a thermal or enhanced state

Configuration is a flat snake_case JSON file; command-line flags override
file values. Outputs are pure functions of (config, flags, seed): repeat
runs are byte-identical except for the single timestamp field in each
JSON report.

Exit codes: 0 ok, 2 weight-solver failure, 3 decoded answer mismatch,
4 readout failure (inconsistent probe peaks), 64 usage error (bad flags
or configuration, an --out path that cannot be made a directory, or an
output file that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .experiments import (
    GROVER_TARGETS,
    DecodeError,
    GroverCase,
    effective_pure_report,
    grover_report,
    run_effective_pure_pipeline,
    run_grover_pipeline,
    run_id,
)
from .labeling import SingularLabelingSystem
from .readout import (
    DetectionSettings,
    Detector,
    PeakTable,
    ReadoutError,
    reconstruct_diagonal,
    spectrum_to_csv,
)
from .spinoe import (
    DEFAULT_R1_S, DEFAULT_RECOVERY_S, DEFAULT_SAMPLE_AGE_S, ExperimentSchedule, ScheduleMode,
    SpinoeParams, enhancement_at, make_schedule,
)
from .spins import SpinSystemConfig, enhanced_populations
from .svg import line_chart

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_DECODE = 3
EXIT_READOUT = 4
EXIT_USAGE = 64

# the default trace has 361 rows; more than a million (~27 MB of CSV) is
# taken for a typo in --duration or --step
MAX_TRACE_ROWS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every tunable, mirroring the JSON config file keys."""

    gamma_ratio: float = 4.0
    j_hz: float = 215.0
    t2_s: float = 0.5
    polarization_unit: float = 1.0
    eps0_h: float = -11.0
    eps0_c: float = 18.0
    t1_xe_s: float = 900.0
    recovery_s: float = DEFAULT_RECOVERY_S
    r1_s: float = DEFAULT_R1_S
    jitter: float = 0.0
    seed: int = 0
    n_points: int = 4096
    dwell_s: float = 0.001
    tip_deg: float = 15.0
    noise_amp: float = 0.0
    mode: str = "single"
    sample_age_s: float = DEFAULT_SAMPLE_AGE_S

    def spin_system(self) -> SpinSystemConfig:
        return SpinSystemConfig(
            gamma_ratio=self.gamma_ratio,
            j_coupling=self.j_hz,
            t2=self.t2_s,
            polarization_unit=self.polarization_unit,
        )

    def spinoe(self) -> SpinoeParams:
        return SpinoeParams(
            eps0_h=self.eps0_h,
            eps0_c=self.eps0_c,
            t1_xe=self.t1_xe_s,
            reproducibility_jitter=self.jitter,
            seed=self.seed,
        )

    def detection(self) -> DetectionSettings:
        return DetectionSettings(
            n_points=self.n_points,
            dwell=self.dwell_s,
            probe_tip_deg=self.tip_deg,
            noise_amp=self.noise_amp,
        )

    def schedule_mode(self) -> ScheduleMode:
        return ScheduleMode(self.mode)

    def schedule(self) -> ExperimentSchedule:
        return make_schedule(
            self.schedule_mode(),
            r1=self.r1_s,
            recovery=self.recovery_s,
            start_delay=self.sample_age_s,
        )

    def echo(self) -> dict:
        return dataclasses.asdict(self)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


# every library object the configuration feeds, with the keys its builder
# reads; the objects' constructors hold the range rules
_BUILDERS = (
    (("gamma_ratio", "j_hz", "t2_s", "polarization_unit"), RunConfig.spin_system),
    (("eps0_h", "eps0_c", "t1_xe_s", "jitter", "seed"), RunConfig.spinoe),
    (("n_points", "dwell_s", "tip_deg", "noise_amp"), RunConfig.detection),
    (("mode", "r1_s", "recovery_s", "sample_age_s"), RunConfig.schedule),
)


def _check_ranges(cfg: RunConfig, keys: tuple[str, ...] | None = None) -> None:
    """Build every library object of `cfg`. A broken rule is reported with
    the values of `keys`, by default the keys its builder reads."""
    for reads, build in _BUILDERS:
        try:
            build(cfg)
        except (TypeError, ValueError) as exc:
            named = ", ".join(f"{key} = {getattr(cfg, key)!r}" for key in keys or reads)
            raise UsageError(f"bad configuration: {named} ({exc})") from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    # each key alone on the defaults first, so an error names that key
    # alone; then the whole configuration, for rules that read several keys
    for key, value in values.items():
        # JSON admits NaN, Infinity and overflowing literals such as 1e400
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"bad configuration: {key} = {value!r} (not a finite number)")
        _check_ranges(RunConfig(**{key: value}), (key,))
    cfg = RunConfig(**values)
    _check_ranges(cfg)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. the path or one of its parents is a file
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_report(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_enhance_trace(cfg: RunConfig, args) -> int:
    # a non-finite value passes both comparisons and fails the row count
    if not (math.isfinite(args.duration) and args.duration >= 0):
        raise UsageError(f"--duration must be a finite number >= 0, not {args.duration!r}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError(f"--step must be a finite number > 0, not {args.step!r}")
    # the rows after the first; the quotient of two finite numbers may be inf
    steps = args.duration / args.step
    if not steps < MAX_TRACE_ROWS:
        raise UsageError(
            f"--duration / --step must give at most {MAX_TRACE_ROWS} rows, "
            f"not {args.duration!r} / {args.step!r}"
        )
    out = _out_dir(args)
    p = cfg.spinoe()
    times = (i * args.step for i in range(int(steps) + 1))
    rows = ((t, *enhancement_at(p, t)) for t in times)
    if args.svg:
        rows = list(rows)  # the chart needs every point; the CSV alone is streamed
    csv_path = out / "enhancement_trace.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "eps_h", "eps_c"])
        for t, eh, ec in rows:
            writer.writerow([repr(float(t)), repr(float(eh)), repr(float(ec))])
    if args.svg:
        line_chart(
            out / "enhancement_trace.svg",
            [r[0] for r in rows],
            {"eps_H": [r[1] for r in rows], "eps_C": [r[2] for r in rows]},
            title="polarization enhancement vs time",
            x_label="time (s)",
            y_label="enhancement",
        )
    print(f"wrote {csv_path}")
    return EXIT_OK


def _dump_spectra(out: Path, stem: str, spec_h, spec_c, svg: bool) -> None:
    spectrum_to_csv(spec_h, out / f"{stem}_h.csv")
    spectrum_to_csv(spec_c, out / f"{stem}_c.csv")
    if svg:
        for spec, ch in ((spec_h, "h"), (spec_c, "c")):
            line_chart(
                out / f"{stem}_{ch}.svg",
                spec.freqs,
                {"real": list(spec.values.real)},
                title=f"{stem} {ch.upper()} channel",
                x_label="frequency (Hz)",
                y_label="signal",
            )


def cmd_effpure(cfg: RunConfig, args) -> int:
    out = _out_dir(args)
    run = run_effective_pure_pipeline(
        cfg.spinoe(),
        cfg.spin_system(),
        cfg.schedule_mode(),
        r1=cfg.r1_s,
        recovery=cfg.recovery_s,
        detection=cfg.detection(),
    )
    report = effective_pure_report(run, cfg.echo())
    _write_report(out / "effpure_report.json", report)
    for i, rec in enumerate(run.records, start=1):
        _dump_spectra(out, f"effpure_exp{i}", rec.readout_h, rec.readout_c, args.svg)
    _dump_spectra(out, "effpure_weighted_sum", run.sum_readout_h, run.sum_readout_c, args.svg)
    print(
        f"effective pure state: ground |{run.result.ground:02b}>, "
        f"q2 = {run.result.q2:.4f}, enhancement = {run.enhancement:.4f}"
    )
    return EXIT_OK


def cmd_grover(cfg: RunConfig, args) -> int:
    if args.all:
        cases = [GroverCase(t) for t in GROVER_TARGETS]
    elif args.target is None:
        raise UsageError("grover needs --target or --all")
    else:
        try:
            cases = [GroverCase(args.target)]
        except ValueError as exc:
            raise UsageError(f"invalid target {args.target!r}: {exc}") from exc
    out = _out_dir(args)
    mismatch = False
    for case in cases:
        target = case.target
        run = run_grover_pipeline(
            cfg.spinoe(),
            cfg.spin_system(),
            case,
            cfg.schedule_mode(),
            r1=cfg.r1_s,
            recovery=cfg.recovery_s,
            sample_age=cfg.sample_age_s,
            detection=cfg.detection(),
        )
        report = grover_report(run, cfg.echo())
        _write_report(out / f"grover_{target}_report.json", report)
        for i, rec in enumerate(run.records, start=1):
            _dump_spectra(out, f"grover_{target}_exp{i}", rec.readout_h, rec.readout_c, args.svg)
        _dump_spectra(out, f"grover_{target}_sum", run.sum_readout_h, run.sum_readout_c, args.svg)
        ok = run.decoded == target
        mismatch |= not ok
        print(
            f"target {target}: decoded {run.decoded} "
            f"({'ok' if ok else 'MISMATCH'}), enhancement = {run.enhancement:.3f}"
        )
    return EXIT_DECODE if mismatch else EXIT_OK


def cmd_probe(cfg: RunConfig, args) -> int:
    out = _out_dir(args)
    system = cfg.spin_system()
    eps = (1.0, 1.0) if args.state == "thermal" else (cfg.eps0_h, cfg.eps0_c)
    detector = Detector(system, cfg.detection())
    noise = detector.draw(np.random.default_rng(cfg.seed))
    detection = detector.probe(enhanced_populations(system, *eps), noise)
    k = detector.receiver_constant
    diag = reconstruct_diagonal(*map(PeakTable, detection.integrals), cfg.tip_deg, k)
    _dump_spectra(out, f"probe_{args.state}", *detection.spectra, args.svg)
    report = {
        "run_id": run_id(cfg.echo(), args.state),
        "config": cfg.echo(),
        "state": args.state,
        "calibration": k,
        "reconstructed_deviation_diagonal": [float(x) for x in diag],
    }
    _write_report(out / f"probe_{args.state}_report.json", report)
    print(f"reconstructed deviation diagonal: {[round(float(x), 6) for x in diag]}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spinoeqc", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--svg", action="store_true", help="also write SVG plots")
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("enhance-trace", help="enhancement vs time table")
    trace.add_argument("--duration", type=float, default=3600.0, help="seconds to cover")
    trace.add_argument("--step", type=float, default=10.0, help="row spacing in seconds")

    eff = sub.add_parser("effpure", help="effective pure state preparation")
    eff.add_argument("--mode", choices=("multi", "single"), help="scheduling mode")

    gro = sub.add_parser("grover", help="two-qubit search experiment")
    gro.add_argument("--target", help="marked element: 00, 01, 10 or 11")
    gro.add_argument("--all", action="store_true", help="run all four cases")

    prb = sub.add_parser("probe", help="probing experiment")
    prb.add_argument("--state", choices=("thermal", "enhanced"), default="thermal")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {"seed": args.seed}
        if getattr(args, "mode", None) is not None:
            overrides["mode"] = args.mode
        cfg = load_config(args.config, overrides)
        handler = {
            "enhance-trace": cmd_enhance_trace,
            "effpure": cmd_effpure,
            "grover": cmd_grover,
            "probe": cmd_probe,
        }[args.command]
        try:
            return handler(cfg, args)
        except OSError as exc:
            # the handlers read no file, so this is an output write
            raise UsageError(f"cannot write {exc.filename or 'an output file'}: {exc}") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularLabelingSystem as exc:
        print(f"weight solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DecodeError as exc:
        print(f"decode failed: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except ReadoutError as exc:
        print(f"readout failed: {exc}", file=sys.stderr)
        return EXIT_READOUT


if __name__ == "__main__":
    sys.exit(main())
