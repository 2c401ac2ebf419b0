"""A/B runs of the benchmark: a base revision against the working tree.

    python tools/ab.py --base <rev> --workload W --pairs N --seconds S

Checks `<rev>` out into a temporary directory (`git worktree add
--detach`, removed afterwards whatever happens) and runs `bench/run.py
--workload W --seed K --seconds S --trace 0` in both checkouts, one pair
per seed. Pairs alternate which side runs first, and each pair's seed
comes from `SEEDS`, a fixed list kept apart from the seeds used while
building changes, so a claim is measured on inputs it was not tuned on.
A pair with a run that is not correct or that failed an operation is
refused: it is reported and left out of the statistics, and the exit
status is 1.

Per end-to-end metric of `BENCHMARK.json` it prints and records both
sides' median and interquartile range (IQR), scaled and raw (the `env`
line's `raw_` figures), the change's median over the base's, and in how
many pairs the change was better by the metric's `better`, and whether
it shows a gain (`gain_shown`, the claim rule: better in at least 9 of 10
pairs, ties counting for neither, and the medians apart by more than the
base's IQR in the `better` direction). A metric is
unresolved when the base's IQR exceeds its bound (as a share of the base
median): the runs spread too widely to tell a change of that size. Where
its scaled and raw ratios lie on opposite sides of 1, the two figures
disagree on the direction of the change, which neither can then carry:
the metric records `directions_disagree` true and its raw line is flagged
SCALED-RAW-DISAGREE. The
results go to `BENCH_<short-sha>.json` at the repository root, with the
commit, base, nproc, python, numpy, seeds and pair count; a later run of
another workload on the same commit and base adds its entry to the file.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
# no change used these seeds while it was built
SEEDS = tuple(range(4001, 4031))
RAW = {"setup_s": "raw_setup_s", "ops_per_s": "raw_ops_per_s", "op_ms_p50": "raw_op_ms_p50"}


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation
    between the sorted values (the 'inclusive' method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(p: float) -> float:
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summary(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": list(values)}


def is_better(change: float, base: float, better: str) -> bool:
    """Whether `change` beats `base` for a metric whose `better` is
    'higher' or 'lower'; a tie is neither."""
    return change > base if better == "higher" else change < base


def gain_shown(better_pairs: int, pairs: int, b: dict, c: dict, better: str) -> bool:
    """The claim rule: the change is better in at least 9 of 10 pairs (a tie
    counts for neither side), and its median beats the base's, in the
    metric's `better` direction, by more than the base's IQR."""
    lead = c["median"] - b["median"] if better == "higher" else b["median"] - c["median"]
    return 10 * better_pairs >= 9 * pairs and lead > b["iqr"]


def compare(metric: dict, base: list, change: list) -> dict:
    """Statistics of one metric over the paired `base` and `change` values."""
    b, c = summary(base), summary(change)
    ratio = c["median"] / b["median"] if b["median"] else None
    spread = b["iqr"] / abs(b["median"]) if b["median"] else None
    if ratio is None:
        worse = None
    elif metric["better"] == "higher":
        worse = ratio < 1 - metric["bound"]
    else:
        worse = ratio > 1 + metric["bound"]
    better_pairs = sum(is_better(x, y, metric["better"]) for x, y in zip(change, base))
    return {
        "base": b, "change": c, "ratio": ratio,
        "better_pairs": better_pairs,
        "gain_shown": gain_shown(better_pairs, len(base), b, c, metric["better"]),
        "unresolved": spread is None or spread > metric["bound"],
        "worse_than_bound": worse,
    }


def parse_run(stdout: str) -> dict:
    """The `env` line and the last line (the metrics) of a bench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    return {"env": env, **result}


def refusal(run: dict) -> str | None:
    """Why a run cannot enter the statistics, or None."""
    if not run.get("correct"):
        return "incorrect output"
    if run.get("failed", 0):
        return f"{run['failed']} failed operations"
    return None


def run_pairs(runner: Callable[[str, int], dict], pairs: int, seeds=SEEDS) -> dict:
    """Run `pairs` alternating pairs through `runner(side, seed)`, side
    'base' or 'change'; pair i takes seeds[i], and the base goes first in
    even pairs. Returns the accepted pairs and the refused ones."""
    if not 1 <= pairs <= len(seeds):
        raise ValueError(f"pairs must be 1 to {len(seeds)}")
    accepted, refused = [], []
    for i in range(pairs):
        seed = seeds[i]
        sides = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {side: runner(side, seed) for side in sides}
        reasons = {side: refusal(run) for side, run in runs.items() if refusal(run)}
        if reasons:
            refused.append({"seed": seed, "reasons": reasons})
        else:
            accepted.append({"seed": seed, **runs})
    return {"accepted": accepted, "refused": refused}


def disagree(scaled: dict, raw: dict) -> bool:
    """Whether the scaled and raw ratios lie on opposite sides of 1 (a
    ratio of 1, or none, takes no side)."""
    a, b = scaled["ratio"], raw["ratio"]
    return a is not None and b is not None and (a - 1) * (b - 1) < 0


def statistics_of(metrics: list, accepted: list) -> dict:
    """Per end-to-end metric, the scaled and raw statistics of the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        base = [p["base"]["metrics"][name]["value"] for p in accepted]
        change = [p["change"]["metrics"][name]["value"] for p in accepted]
        if base:
            entry["scaled"] = compare(metric, base, change)
            raw = RAW.get(name)
            if raw and all(raw in p[side]["env"] for p in accepted for side in ("base", "change")):
                entry["raw"] = compare(metric, [p["base"]["env"][raw] for p in accepted],
                                       [p["change"]["env"][raw] for p in accepted])
                entry["directions_disagree"] = disagree(entry["scaled"], entry["raw"])
        out[name] = entry
    return out


def record(path: Path, header: dict, workload: str, result: dict) -> dict:
    """Write `result` for `workload` into the BENCH file at `path`, keeping
    other workloads measured on the same commit and base."""
    data = json.loads(path.read_text()) if path.exists() else {}
    same = all(data.get(key) == header[key] for key in ("commit", "base"))
    workloads = data.get("workloads", {}) if same else {}
    workloads[workload] = result
    data = {**header, "workloads": workloads}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def report(workload: str, stats: dict, pairs: int, refused: list) -> str:
    lines = [f"{workload}: {pairs} pairs accepted, {len(refused)} refused"]
    for name, entry in stats.items():
        if "scaled" not in entry:
            continue
        for kind in ("scaled", "raw"):
            s = entry.get(kind)
            if s is None:
                continue
            flag = " UNRESOLVED" if s["unresolved"] else ""
            flag += " WORSE-THAN-BOUND" if s["worse_than_bound"] else ""
            flag += " SCALED-RAW-DISAGREE" if kind == "raw" and entry["directions_disagree"] else ""
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.4f}"
            base, change = s["base"], s["change"]
            lines.append(
                f"  {name:13s} {kind:6s} base {base['median']:.6g} (IQR {base['iqr']:.3g})"
                f"  change {change['median']:.6g} (IQR {change['iqr']:.3g})"
                f"  ratio {ratio}  better {s['better_pairs']}/{pairs}"
                f"  gain {'shown' if s['gain_shown'] else 'not shown'}{flag}"
            )
    for r in refused:
        lines.append(f"  refused seed {r['seed']}: {r['reasons']}")
    return "\n".join(lines)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_runner(checkouts: dict, workload: str, seconds: float) -> Callable[[str, int], dict]:
    def run(side: str, seed: int) -> dict:
        command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=checkouts[side], capture_output=True, text=True,
                              timeout=600 + 20 * seconds)
        if done.returncode != 0:
            return {"correct": False, "failed": 0, "env": {}, "error": done.stderr[-2000:]}
        return parse_run(done.stdout)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not 1 <= args.pairs <= len(SEEDS):
        parser.error(f"--pairs must be 1 to {len(SEEDS)}")
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    checkout = tmp / "base"
    try:
        git("worktree", "add", "--detach", str(checkout), base)
        runner = bench_runner({"base": checkout, "change": ROOT}, args.workload, args.seconds)
        runs = run_pairs(runner, args.pairs)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(checkout)], cwd=ROOT,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    accepted = runs["accepted"]
    stats = statistics_of(bench["end_to_end"], accepted)
    env = accepted[0]["change"]["env"] if accepted else {}
    header = {
        "commit": commit, "base": base, "dirty": dirty, "nproc": os.cpu_count(),
        "python": env.get("python", sys.version.split()[0]), "numpy": env.get("numpy"),
    }
    result = {
        "seconds": args.seconds, "pairs": len(accepted),
        "seeds": [p["seed"] for p in accepted], "refused": runs["refused"], "metrics": stats,
    }
    path = ROOT / f"BENCH_{commit[:7]}.json"
    record(path, header, args.workload, result)
    print(report(args.workload, stats, len(accepted), runs["refused"]))
    print(f"written to {path.name}")
    return 1 if runs["refused"] else 0


if __name__ == "__main__":
    sys.exit(main())
