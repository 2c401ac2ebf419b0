"""spinoeqc benchmark: one workload, one closed-loop client, one operation
at a time.

    python3 bench/run.py --workload search-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, ops_per_s, op_ms_p50, peak_rss_mib); with
`--trace 1` it holds the per-layer metrics of a traced run instead. Every
output is checked (see workloads.py); `correct` is false when any check
failed, and `failed` counts operations that raised. Spans of a traced run
go to .bench_out/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("search-sweep", "prep-scan", "cli-export")
# fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 7
# reference work run after each of them, as a share of its time (a start-up
# is short, so it gets a larger share than an operation)
SETUP_REFERENCE_SHARE = 1.0
MAX_ERRORS_SHOWN = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, make the inputs and exit (times set-up)")
    return parser.parse_args(argv)


def import_workloads():
    """The workload module, importing the package from src/ of this checkout."""
    if not (SRC / "spinoeqc" / "__init__.py").is_file():
        print(f"bench: no spinoeqc package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the package and
    making the workload's inputs: scaled to nominal speed, and raw."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    midpoints, raw = [], []
    meter = SpeedMeter()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        meter.follow(elapsed, SETUP_REFERENCE_SHARE)
        midpoints.append(start + elapsed / 2)
        raw.append(elapsed)
    scaled = [r / meter.factor(t) for t, r in zip(midpoints, raw)]
    return statistics.median(scaled), statistics.median(raw)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


class Loop:
    """Closed loop over whole rounds; times each operation alone and runs
    reference work after it (see reference.py).

    `plain` and `traced` hold (midpoint, raw seconds) of the untraced and
    traced operations. `check_raised_kib` is how far the checks, which run
    in the same process, raised its peak resident set beyond what the
    operations had reached.
    """

    def __init__(self, workload):
        self.workload = workload
        self.meter = SpeedMeter()
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.plain: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []
        self.errors: list[str] = []
        self.check_raised_kib = 0

    def round(self, tracer=None, record=True) -> None:
        times = self.traced if tracer is not None else self.plain
        for op in self.workload.next_round():
            if record:
                self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.attempted
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += record
                self.errors.append(f"{op.label}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            self.meter.follow(elapsed)
            if record:
                times.append((start + elapsed / 2, elapsed))
            before = peak_rss_kib()
            try:
                written = op.check(result)
            except Exception as exc:  # a malformed output fails its check
                self.errors.append(f"{op.label}: check failed: {exc!r}")
                continue
            finally:
                self.check_raised_kib += peak_rss_kib() - before
            if record:
                self.bytes_written += written

    def scaled(self, ops) -> list[float]:
        """Seconds at nominal machine speed."""
        return [raw / self.meter.factor(t) for t, raw in ops]


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_untraced(loop, seconds: float) -> None:
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        loop.round()


def run_traced(loop, tracer, seconds: float) -> None:
    """Alternate untraced and traced rounds."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        loop.round()
        tracer.install()
        try:
            loop.round(tracer)
        finally:
            tracer.uninstall()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, OUT).next_round()
        return 0

    env = environment(args)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    loop = Loop(workload)
    try:
        loop.round(record=False)  # warm-up: first-call costs, reference outputs
        if args.trace == 0:
            setup_s, env["raw_setup_s"] = measure_setup(args)
            run_untraced(loop, args.seconds)
            raw = [r for _, r in loop.plain]
            env["raw_ops_per_s"] = len(raw) / sum(raw)
            env["raw_op_ms_p50"] = statistics.median(raw) * 1e3
            times = loop.scaled(loop.plain)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "ops_per_s": metric(len(times) / sum(times), "op/s"),
                "op_ms_p50": metric(statistics.median(times) * 1e3, "ms"),
                "peak_rss_mib": metric(peak_rss_kib() / 1024.0, "MiB"),
            }
            env["check_raised_peak_kib"] = loop.check_raised_kib
        else:
            tracer = Tracer("spinoeqc")
            run_traced(loop, tracer, args.seconds)
            metrics = per_layer_metrics(tracer, loop)
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(span_file)
            env["spans"] = len(tracer.spans)
            env["span_file"] = str(span_file.relative_to(ROOT))
            env["absent"] = tracer.absent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in loop.errors[:MAX_ERRORS_SHOWN]:
        print(f"bench: {error}", file=sys.stderr)
    env["errors"] = len(loop.errors)
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(tracer, loop) -> dict:
    """Per traced operation: calls and self time of every traced function,
    bytes written, and traced against untraced time per operation."""
    totals = tracer.totals()
    plain, traced = loop.scaled(loop.plain), loop.scaled(loop.traced)
    n = len(traced)
    factor = loop.meter.mean_factor()
    metrics = {}
    for name in tracer.names:
        calls, self_ms = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = metric(calls / n, "count")
        metrics[f"{name}.self_ms"] = metric(self_ms / n / factor, "ms")
    metrics["cli.bytes_written"] = metric(loop.bytes_written / loop.attempted, "B")
    overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
    metrics["trace.overhead_ratio"] = metric(overhead, "x")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
