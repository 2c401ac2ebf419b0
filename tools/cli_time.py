"""Wall time of the CLI's commands as separate processes: a base revision
against the working tree.

    python tools/cli_time.py --base <rev> [--runs N]

Exports `<rev>` with `git archive`, and copies the working tree's `src/`,
into a temporary directory, so neither tree holds bytecode at the start.
Then it times `python -m spinoeqc.cli` runs of `effpure`, `grover --all`,
`grover --target 10` and `probe --state enhanced` on both trees, each
into a new output directory. The two trees alternate: in even pairs the
base runs first. Every command is timed in two modes:

- `nocache`: `PYTHONDONTWRITEBYTECODE=1`, so each run compiles the
  package (numpy reads its installed bytecode), as on a host that sets it;
- `cache`: bytecode kept under a `PYTHONPYCACHEPREFIX` of each tree's
  own, written by an untimed run of each command first, so nothing is
  written beside an installed package.

Per command and mode it prints each side's median and interquartile
range (IQR) in seconds, the change's median over the base's, and in how
many pairs the change was faster. It writes them to
`BENCH_cli_<short-sha>.json` at the repository root, with the commit,
base, nproc, python and run count. A run that exits non-zero stops the
tool with its error. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import git, summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "effpure": ["effpure"],
    "grover-all": ["grover", "--all"],
    "grover-10": ["grover", "--target", "10"],
    "probe": ["probe", "--state", "enhanced"],
}
MODES = ("nocache", "cache")


def environment(src: Path, mode: str, prefix: Path) -> dict:
    """The environment of a run of the package at `src` in `mode`."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if mode == "nocache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def timed(argv: list, env: dict, out: Path) -> float:
    """Seconds of wall time of one CLI run into `out`, which is removed."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "spinoeqc.cli", "--out", str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    shutil.rmtree(out, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    return elapsed


def time_pairs(runner: Callable[[str, str, str], float], runs: int) -> dict:
    """`runs` alternating pairs of `runner(side, command, mode)` per mode and
    command; the base goes first in even pairs. Returns per mode and
    command the two sides' times in pair order."""
    times = {}
    for mode in MODES:
        for command in COMMANDS:
            got = {"base": [], "change": []}
            for i in range(runs):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    got[side].append(runner(side, command, mode))
            times.setdefault(mode, {})[command] = got
    return times


def statistics_of(times: dict) -> dict:
    """Per mode and command, both sides' summaries, the ratio of the
    change's median to the base's and the pairs the change was faster in."""
    out = {}
    for mode, commands in times.items():
        for command, got in commands.items():
            base, change = summary(got["base"]), summary(got["change"])
            out.setdefault(mode, {})[command] = {
                "base": base, "change": change, "ratio": change["median"] / base["median"],
                "faster_pairs": sum(c < b for b, c in zip(got["base"], got["change"])),
            }
    return out


def report(stats: dict, runs: int) -> str:
    lines = []
    for mode, commands in stats.items():
        for command, s in commands.items():
            base, change = s["base"], s["change"]
            lines.append(
                f"{mode:7s} {command:10s} base {base['median']:.3f} s (IQR {base['iqr']:.3f})"
                f"  change {change['median']:.3f} s (IQR {change['iqr']:.3f})"
                f"  ratio {s['ratio']:.3f}  faster {s['faster_pairs']}/{runs}"
            )
    return "\n".join(lines)


def export(rev: str, dest: Path) -> Path:
    """The `src/` of revision `rev`, extracted under `dest`."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--runs", type=int, default=10, help="pairs per command and mode")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    commit = git("rev-parse", "HEAD")
    tmp = Path(tempfile.mkdtemp(prefix="cli-time-"))
    try:
        trees = {"base": export(base, tmp / "base"),
                 "change": Path(shutil.copytree(ROOT / "src", tmp / "change" / "src",
                                                ignore=shutil.ignore_patterns("__pycache__")))}
        envs = {(side, mode): environment(src, mode, tmp / f"pycache-{side}")
                for side, src in trees.items() for mode in MODES}
        for side in trees:  # write each tree's cache, untimed
            for command in COMMANDS.values():
                timed(command, envs[side, "cache"], tmp / "out")
        times = time_pairs(lambda side, command, mode: timed(
            COMMANDS[command], envs[side, mode], tmp / "out"), args.runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stats = statistics_of(times)
    data = {
        "commit": commit, "base": base, "dirty": bool(git("status", "--porcelain",
                                                          "--untracked-files=no")),
        "nproc": os.cpu_count(), "python": sys.version.split()[0], "runs": args.runs,
        "commands": {name: " ".join(argv) for name, argv in COMMANDS.items()}, "modes": stats,
    }
    path = ROOT / f"BENCH_cli_{commit[:7]}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(report(stats, args.runs))
    print(f"written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
