"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload hands out whole rounds of operations. Every round has the
same operations in the same number, drawn afresh from the workload's
seeded generator, so a run of any length attempts whole rounds and a
per-operation count (calls, bytes) is exact. The program receives only the
generated inputs; the checks compare its outputs with `oracle` or with a
stated property of the files it writes.

Tolerances (see README.md for the derivation):

* noise-free runs match the oracle to 1e-6 relative: the simulated
  detection is exact up to rounding (1e-14 measured), and 1e-6 still
  leaves room for a reordering of the arithmetic;
* at noise_amp 0.01 the detection noise on one line integral is ~0.25% of
  an enhanced line and ~1.3% of a thermal one, so enhancements and q2 get
  2% and probed diagonals 3% of their largest entry; the largest
  deviations seen over 120 seeded cases are 0.28% and 0.73%.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import spinoeqc as sq
from spinoeqc import cli as sq_cli

TARGETS = ("00", "01", "10", "11")
RECOVERY_S = 120.0  # default 5 * t1_ch with t1_ch = 24 s
SAMPLE_AGE_S = 600.0  # run_grover_pipeline's default start delay


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


@dataclass(frozen=True)
class Op:
    """One timed call, and the check of its result.

    `check` raises CheckFailed on a wrong output and returns the number of
    bytes the call wrote to disk.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances: probed diagonals against their largest entry,
    q2 and enhancement against their value, weights against the largest."""

    diagonal: float
    q2: float
    weights: float


EXACT = Tolerances(diagonal=1e-6, q2=1e-6, weights=1e-6)
NOISY = Tolerances(diagonal=0.03, q2=0.02, weights=0.1)


def check_labeling(label: str, diags, weights, ground: int, q2: float,
                   enhancement: float, expected_diags, tol: Tolerances) -> None:
    """Probed diagonals, ground, weights, q2 and enhancement against the oracle."""
    for i, (got, want) in enumerate(zip(diags, expected_diags)):
        err = float(np.abs(np.asarray(got) - want).max())
        require(err <= tol.diagonal * np.abs(want).max(),
                f"{label}: probed diagonal {i} off by {err:.3e}")
    best = oracle.best_label(expected_diags)
    mine = oracle.label(expected_diags, ground)
    require(mine is not None and close(abs(mine["q2"]), abs(best["q2"]), tol.q2),
            f"{label}: ground {ground} is not a best ground")
    q2_norm = q2 * oracle.N_EXPERIMENTS / float(np.sum(weights))
    require(close(q2_norm, mine["q2"], tol.q2),
            f"{label}: q2 {q2_norm:.6g}, oracle {mine['q2']:.6g}")
    err = float(np.abs(np.asarray(weights) - mine["weights"]).max())
    require(err <= tol.weights * np.abs(mine["weights"]).max(),
            f"{label}: weights {list(weights)}, oracle {list(mine['weights'])}")
    want = oracle.enhancement(expected_diags)
    require(close(enhancement, want, tol.q2),
            f"{label}: enhancement {enhancement:.6g}, oracle {want:.6g}")


class SearchSweep:
    """Seeds x all four targets through `run_grover_pipeline`.

    Default single-sample configuration with detection noise 0.01; the four
    cases of a round share one configuration and differ only in the target.
    """

    NOISE_AMP = 0.01

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.system = sq.SpinSystemConfig()
        self.detection = sq.DetectionSettings(noise_amp=self.NOISE_AMP)
        self.expected = oracle.expected_diagonals(True, SAMPLE_AGE_S, RECOVERY_S)

    def next_round(self) -> list[Op]:
        params = sq.SpinoeParams(seed=int(self.rng.integers(2**31)))
        return [
            Op(f"grover {target} seed {params.seed}",
               lambda t=target: sq.run_grover_pipeline(
                   params, self.system, sq.GroverCase(t), detection=self.detection),
               lambda run, t=target: self.check(t, run))
            for target in TARGETS
        ]

    def check(self, target: str, run) -> int:
        label = f"grover {target}"
        require(run.decoded == oracle.marked_element(target),
                f"{label}: decoded {run.decoded}")
        check_labeling(label, [r.probed_diagonal for r in run.records],
                       run.result.weights, run.result.ground, run.result.q2,
                       run.enhancement, self.expected, NOISY)
        return 0


class PrepScan:
    """`run_effective_pure_pipeline` over fresh detection settings, no noise.

    A round covers every grid size in both modes, in a seeded order, each
    operation with its own tip angle drawn from [10, 20] degrees, so no two
    operations share detection settings.
    """

    N_POINTS = (1024, 2048, 4096, 8192)

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.system = sq.SpinSystemConfig()
        self.params = sq.SpinoeParams()
        self.expected = {
            single: oracle.expected_diagonals(single, 0.0, RECOVERY_S)
            for single in (True, False)
        }

    def next_round(self) -> list[Op]:
        ops = []
        for n_points in self.rng.permutation(self.N_POINTS):
            for single in (True, False):
                detection = sq.DetectionSettings(
                    n_points=int(n_points),
                    probe_tip_deg=float(self.rng.uniform(10.0, 20.0)))
                mode = sq.ScheduleMode.SINGLE_SAMPLE if single else sq.ScheduleMode.MULTI_SAMPLE
                ops.append(Op(
                    f"effpure {mode.value} n={n_points} tip={detection.probe_tip_deg:.3f}",
                    lambda m=mode, d=detection: sq.run_effective_pure_pipeline(
                        self.params, self.system, m, detection=d),
                    lambda run, s=single: self.check(s, run)))
        return ops

    def check(self, single: bool, run) -> int:
        check_labeling("effpure", [r.probed_diagonal for r in run.records],
                       run.result.weights, run.result.ground, run.result.q2,
                       run.enhancement, self.expected[single], EXACT)
        return 0


def digest_without_timestamp(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    if path.suffix == ".json":
        lines = [line for line in lines if not line.lstrip().startswith(b'"timestamp"')]
    return hashlib.sha256(b"".join(lines)).hexdigest()


class CliExport:
    """In-process `spinoeqc.cli.main` calls, each into a fresh directory.

    Every round runs the same five commands with the same seed, so from the
    second round on each command is a rerun whose files must be
    byte-identical to the first round's apart from the timestamp.
    """

    # name, arguments, number of files written
    COMMANDS = (
        ("grover-all", ["grover", "--all"], 36),
        ("grover-10-svg", ["--svg", "grover", "--target", "10"], 17),
        ("effpure-single", ["effpure", "--mode", "single"], 9),
        ("effpure-multi", ["effpure", "--mode", "multi"], 9),
        ("probe-enhanced", ["probe", "--state", "enhanced"], 3),
    )
    N_POINTS = 4096
    DWELL_S = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.cli_seed = int(np.random.default_rng(seed).integers(2**31))
        self.workdir = workdir
        self.count = 0
        self.first_digests: dict[str, dict[str, str]] = {}

    def next_round(self) -> list[Op]:
        ops = []
        for name, args, n_files in self.COMMANDS:
            self.count += 1
            out = self.workdir / f"op{self.count}"
            argv = ["--out", str(out), "--seed", str(self.cli_seed), *args]
            svg = "--svg" in args
            ops.append(Op(name, lambda a=argv: self._main(a),
                          lambda code, n=name, o=out, k=n_files, s=svg:
                          self.check(n, o, k, s, code)))
        return ops

    @staticmethod
    def _main(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return sq_cli.main(argv)

    def check(self, name: str, out: Path, n_files: int, svg: bool, code: int) -> int:
        """Tables are read one at a time and dropped, so that the check's
        memory stays below the program's (peak_rss_mib is the process's)."""
        try:
            require(code == 0, f"{name}: exit code {code}")
            files = sorted(out.iterdir())
            require(len(files) == n_files, f"{name}: wrote {len(files)} files, not {n_files}")
            by_name = {f.name: f for f in files}
            csv_names = [f.name for f in files if f.suffix == ".csv"]
            if svg:
                for csv_name in csv_names:
                    chart = by_name.get(csv_name[:-4] + ".svg")
                    require(chart is not None, f"{name}: no SVG for {csv_name}")
                    text = chart.read_text()
                    require(text.startswith("<svg") and text.endswith("</svg>\n"),
                            f"{name}: malformed {chart.name}")
            reports = {f.name: json.loads(f.read_text()) for f in files if f.suffix == ".json"}
            require(reports, f"{name}: no report written")
            read = set()
            for report_name, report in reports.items():
                read |= self.check_report(name, report_name, report, by_name)
            for csv_name in csv_names:
                if csv_name not in read:
                    self.read_csv(name, by_name[csv_name])
            digests = {f.name: digest_without_timestamp(f) for f in files}
            first = self.first_digests.setdefault(name, digests)
            require(digests == first, f"{name}: rerun output differs from the first run")
            return sum(f.stat().st_size for f in files)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def read_csv(self, name: str, path: Path) -> np.ndarray:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            require(header == "freq_hz,real,imag", f"{name}: bad header in {path.name}")
            table = np.loadtxt(fh, delimiter=",")
        require(table.shape == (self.N_POINTS, 3), f"{name}: {path.name} has shape {table.shape}")
        step = 1.0 / (self.N_POINTS * self.DWELL_S)
        require(np.allclose(np.diff(table[:, 0]), step, rtol=1e-9, atol=0.0),
                f"{name}: {path.name} axis is not uniform with spacing {step}")
        return table

    def check_report(self, name: str, report_name: str, report: dict,
                     by_name: dict[str, Path]) -> set[str]:
        """Check one report; return the names of the CSVs it read."""
        label = f"{name} {report_name}"
        stem = report_name.removesuffix("_report.json")
        read = set()
        if "weights" in report:
            # the weighted-sum spectrum is the weighted sum of the experiments'
            total = "sum" if stem.startswith("grover") else "weighted_sum"
            for ch in ("h", "c"):
                names = [f"{stem}_exp{i}_{ch}.csv" for i in (1, 2, 3)]
                names.append(f"{stem}_{total}_{ch}.csv")
                missing = [n for n in names if n not in by_name]
                require(not missing, f"{label}: missing {missing}")
                want = 0.0
                for w, part in zip(report["weights"], names[:3]):
                    want = want + w * self.read_csv(name, by_name[part])[:, 1:]
                got = self.read_csv(name, by_name[names[3]])[:, 1:]
                require(np.abs(got - want).max() <= 1e-12 * np.abs(want).max(),
                        f"{label}: weighted-sum {ch} spectrum differs")
                read.update(names)
        single = report["config"]["mode"] == "single"
        if stem.startswith("grover"):
            expected = oracle.expected_diagonals(single, SAMPLE_AGE_S, RECOVERY_S)
            require(report["decoded"] == oracle.marked_element(report["target"]),
                    f"{label}: decoded {report['decoded']}")
        elif stem.startswith("effpure"):
            expected = oracle.expected_diagonals(single, 0.0, RECOVERY_S)
        else:
            want = oracle.deviation_diagonal(-11.0, 18.0)
            got = np.array(report["reconstructed_deviation_diagonal"])
            require(np.abs(got - want).max() <= EXACT.diagonal * np.abs(want).max(),
                    f"{label}: reconstructed diagonal {got.tolist()}")
            return read
        check_labeling(label, [e["probed_diagonal"] for e in report["experiments"]],
                       report["weights"], report["ground_state"], report["q2"],
                       report["enhancement"], expected, EXACT)
        return read


WORKLOADS = {
    "search-sweep": SearchSweep,
    "prep-scan": PrepScan,
    "cli-export": CliExport,
}
