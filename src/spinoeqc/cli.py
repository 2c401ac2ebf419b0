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
import inspect
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

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
from .readout import DetectionSettings, Detector, ReadoutError, spectrum_to_csv
from .spinoe import (
    DEFAULT_R1_S, DEFAULT_RECOVERY_S, DEFAULT_SAMPLE_AGE_S, ExperimentSchedule, ScheduleMode,
    SpinoeParams, enhancement_at, make_schedule,
)
from .spins import SpinSystemConfig, enhanced_deviations
from .svg import line_chart

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_DECODE = 3
EXIT_READOUT = 4
EXIT_USAGE = 64

# the default trace has 361 rows; more than a million (~27 MB of CSV) is
# taken for a typo in --duration or --step
MAX_TRACE_ROWS = 1_000_000


def _schedule(
    mode: str = ScheduleMode.SINGLE_SAMPLE.value, r1: float = DEFAULT_R1_S,
    recovery: float = DEFAULT_RECOVERY_S, sample_age: float = DEFAULT_SAMPLE_AGE_S,
) -> ExperimentSchedule:
    """`run_grover_pipeline`'s schedule, with its defaults, from a mode name."""
    return make_schedule(ScheduleMode(mode), r1, recovery, sample_age)


# every configuration key in echo order, with the library object it feeds
# and that object's parameter; the objects' signatures hold the defaults
# and their constructors the range rules
_KEYS = (
    ("gamma_ratio", SpinSystemConfig, "gamma_ratio"),
    ("j_hz", SpinSystemConfig, "j_coupling"),
    ("t2_s", SpinSystemConfig, "t2"),
    ("polarization_unit", SpinSystemConfig, "polarization_unit"),
    ("eps0_h", SpinoeParams, "eps0_h"),
    ("eps0_c", SpinoeParams, "eps0_c"),
    ("t1_xe_s", SpinoeParams, "t1_xe"),
    ("recovery_s", _schedule, "recovery"),
    ("r1_s", _schedule, "r1"),
    ("jitter", SpinoeParams, "reproducibility_jitter"),
    ("seed", SpinoeParams, "seed"),
    ("n_points", DetectionSettings, "n_points"),
    ("dwell_s", DetectionSettings, "dwell"),
    ("tip_deg", DetectionSettings, "probe_tip_deg"),
    ("noise_amp", DetectionSettings, "noise_amp"),
    ("mode", _schedule, "mode"),
    ("sample_age_s", _schedule, "sample_age"),
)
# RunConfig's builders, each named for the object it returns
_OWNERS = {
    "spin_system": SpinSystemConfig, "spinoe": SpinoeParams,
    "detection": DetectionSettings, "schedule": _schedule,
}
_PARAMETERS = {owner: inspect.signature(owner).parameters for owner in _OWNERS.values()}
_DEFAULTS = {key: _PARAMETERS[owner][param].default for key, owner, param in _KEYS}


def _builder(name: str, owner) -> tuple[tuple[str, ...], Callable]:
    """RunConfig's method `name`, which builds `owner` from the keys that
    feed it, with those keys in the order of the owner's parameters."""
    key_of = {param: key for key, fed, param in _KEYS if fed is owner}
    feeds = [(key_of[param], param) for param in _PARAMETERS[owner] if param in key_of]

    def build(cfg):
        return owner(**{param: getattr(cfg, key) for key, param in feeds})

    build.__name__ = build.__qualname__ = name
    return tuple(key for key, _ in feeds), build


# every library object the configuration feeds, with the keys its builder reads
_BUILDERS = tuple(_builder(name, owner) for name, owner in _OWNERS.items())
_BUILDER_OF = {key: build for keys, build in _BUILDERS for key in keys}
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(key, type(default), default) for key, default in _DEFAULTS.items()],
    namespace={
        "__module__": __name__,
        "__doc__": "Flat bag of every tunable, mirroring the JSON config file keys.",
        **{build.__name__: build for _, build in _BUILDERS},
        "schedule_mode": lambda cfg: ScheduleMode(cfg.mode),
        "echo": dataclasses.asdict,
    },
    frozen=True,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


def _check(cfg: RunConfig, keys: tuple[str, ...], build) -> None:
    """Run `build(cfg)`; a broken rule is reported with the values of `keys`."""
    try:
        build(cfg)
    except (TypeError, ValueError) as exc:
        named = ", ".join(f"{key} = {getattr(cfg, key)!r}" for key in keys)
        raise UsageError(f"bad configuration: {named} ({exc})") from exc


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        # a ValueError is malformed JSON, text that is not UTF-8, or an
        # integer literal longer than Python converts
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(values) - set(_DEFAULTS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    # each key alone on the defaults first, so an error names that key
    # alone; then the whole configuration, for rules that read several keys
    for key, value in values.items():
        floating = isinstance(_DEFAULTS[key], float)
        # a float key takes a JSON number; the exact type, as a JSON true
        # is a Python int
        if floating and type(value) not in (int, float):
            raise UsageError(f"bad configuration: {key} = {value!r} (not a number)")
        # JSON admits NaN, Infinity and literals too large for a float: 1e400
        # reads as inf, and a 400-digit integer overflows the float it feeds
        if (floating or isinstance(value, float)) and not abs(value) <= sys.float_info.max:
            raise UsageError(f"bad configuration: {key} = {value!r} (not a finite number)")
        _check(RunConfig(**{key: value}), (key,), _BUILDER_OF[key])
    cfg = RunConfig(**values)
    for keys, build in _BUILDERS:
        _check(cfg, keys, build)
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


def _dump_spectra(out: Path, stem: str, spectra, svg: bool) -> None:
    """Write the (H, C) pair `spectra` as CSV, and as SVG if asked."""
    for spec, ch in zip(spectra, "hc"):
        spectrum_to_csv(spec, out / f"{stem}_{ch}.csv")
        if svg:
            line_chart(
                out / f"{stem}_{ch}.svg",
                spec.freqs,
                {"real": list(spec.values.real)},
                title=f"{stem} {ch.upper()} channel",
                x_label="frequency (Hz)",
                y_label="signal",
            )


def _write_run(out: Path, stem: str, sum_stem: str, run, report: dict, svg: bool) -> None:
    """A labeled run's report, each experiment's spectra and the weighted sum's."""
    _write_report(out / f"{stem}_report.json", report)
    for i, rec in enumerate(run.records, start=1):
        _dump_spectra(out, f"{stem}_exp{i}", (rec.readout_h, rec.readout_c), svg)
    _dump_spectra(out, f"{stem}_{sum_stem}", (run.sum_readout_h, run.sum_readout_c), svg)


def cmd_effpure(cfg: RunConfig, args) -> int:
    out = _out_dir(args)
    run = run_effective_pure_pipeline(
        cfg.spinoe(), cfg.spin_system(), cfg.schedule_mode(), r1=cfg.r1_s,
        recovery=cfg.recovery_s, detection=cfg.detection(),
    )
    report = effective_pure_report(run, cfg.echo())
    _write_run(out, "effpure", "weighted_sum", run, report, args.svg)
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
            cfg.spinoe(), cfg.spin_system(), case, cfg.schedule_mode(), r1=cfg.r1_s,
            recovery=cfg.recovery_s, sample_age=cfg.sample_age_s, detection=cfg.detection(),
        )
        _write_run(out, f"grover_{target}", "sum", run, grover_report(run, cfg.echo()), args.svg)
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
    d, noise = enhanced_deviations(system, *eps), detector.draw(cfg.seed)
    y = detector.probe_integrals(d)
    diag, errors = detector.reconstruct((y if noise is None else y + noise[0]).reshape(4))
    if errors:
        raise errors[()]
    noise_spectra = None if noise is None else detector.noise_spectra(cfg.seed, noise)[0]
    spectra = detector.spectra(detector.probe_map @ d, noise_spectra)
    _dump_spectra(out, f"probe_{args.state}", spectra, args.svg)
    report = {
        "run_id": run_id(cfg.echo(), args.state),
        "config": cfg.echo(),
        "state": args.state,
        "calibration": detector.receiver_constant,
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
    eff.add_argument("--mode", choices=[m.value for m in ScheduleMode], help="scheduling mode")

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
        cfg = load_config(args.config, {"seed": args.seed, "mode": getattr(args, "mode", None)})
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
