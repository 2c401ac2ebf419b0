"""Steadiness check: run workloads repeatedly in sets and compare the sets.

    python3 bench/steady.py --runs 10 --sets 2                 # all workloads
    python3 bench/steady.py --workloads prep-scan --runs 5 --sets 1
    python3 bench/steady.py --runs 3 --sets 1 --trace 1        # per-layer

Run from the repository root. Each set runs every workload once per seed
(seeds 1 .. runs, workloads interleaved), each run as long as
BENCHMARK.json's run_seconds. For every metric it prints each set's median and the spread of the set, the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, beside the bound from BENCHMARK.json, and
the change of the median from the first set to each later one. It also
checks that every run was correct, that the share of failed operations is
the same in every run, and with --trace 1 that every `.calls` count repeats
exactly. All runs, with their versions, nproc, commit and seed, go to
.bench_out/steady-<time>.json. Exits 1 if any of these checks fails or a
spread or change of an end-to-end metric exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "exit": proc.returncode, "wall_s": wall}
    if proc.returncode != 0 or not lines:
        record["stderr"] = proc.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    if env:
        record["env"] = json.loads(env[-1])
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median); a metric that reads 0 throughout has
    spread 0."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return median, 0.0 if q1 == q3 else float("inf")
    return median, (q3 - q1) / median


def summarize(bench: dict, records: list[dict], sets: int, trace: int) -> list[str]:
    """Print the per-metric table; return the problems found."""
    problems = []
    for record in records:
        if "result" not in record:
            problems.append(f"{record['workload']} seed {record['seed']}: exit {record['exit']}")
        elif not record["result"]["correct"]:
            problems.append(f"{record['workload']} seed {record['seed']}: incorrect output")
    ok = [r for r in records if "result" in r]
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in ok if r["workload"] == workload]
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        attempted = [r["result"]["attempted"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, attempted {min(attempted, default=0)}"
              f"..{max(attempted, default=0)}, failed shares {sorted(shares)}")
        if len(shares) > 1:
            problems.append(f"{workload}: failed share differs between runs")
        for spec in specs:
            name = spec["name"]
            by_set = [[r["result"]["metrics"][name]["value"] for r in runs if r["set"] == s]
                      for s in range(sets)]
            if name.endswith(".calls") and len({v for vs in by_set for v in vs}) > 1:
                problems.append(f"{workload} {name}: calls differ between runs")
            if any(len(vs) < 2 for vs in by_set):
                continue
            cells, first = [], None
            for s, values in enumerate(by_set):
                median, iqr = spread(values)
                cells.append(f"set{s + 1} {median:12.5g} spread {iqr:6.1%}")
                bound = spec.get("bound")
                if first is None:
                    first = median
                elif median != first and first != 0:
                    worse = (median - first) / first * (1 if spec["better"] == "lower" else -1)
                    cells.append(f"worse by {worse:+6.1%}")
                    if bound is not None and worse > bound:
                        problems.append(f"{workload} {name}: set {s + 1} worse by {worse:.1%}")
                if bound is not None and iqr > bound:
                    problems.append(f"{workload} {name}: spread {iqr:.1%} > bound {bound:.0%}")
            bound = f"bound {spec['bound']:.0%}" if "bound" in spec else ""
            print(f"  {name:44s} {' | '.join(cells)} {bound}")
    return problems


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    records = []
    for s in range(args.sets):
        for seed in range(1, args.runs + 1):
            for workload in args.workloads:
                record = run_once(workload, seed, bench["run_seconds"], args.trace)
                record["set"] = s
                records.append(record)
                status = "ok" if "result" in record else f"exit {record['exit']}"
                print(f"set {s + 1} seed {seed} {workload}: {status} "
                      f"({record['wall_s']:.1f} s)", flush=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "runs": records}, indent=1))
    problems = summarize(bench, records, args.sets, args.trace)
    print(f"\nruns written to {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
