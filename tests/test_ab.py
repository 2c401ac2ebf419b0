import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
]


def fake_run(ops, ms, rss=40.0, correct=True, failed=0):
    """The parsed output of one bench run."""
    return {
        "correct": correct, "failed": failed,
        "env": {"raw_ops_per_s": ops * 0.8, "raw_op_ms_p50": ms * 1.25},
        "metrics": {"ops_per_s": {"value": ops}, "op_ms_p50": {"value": ms},
                    "peak_rss_mib": {"value": rss}},
    }


class FakeRunner:
    """Records each call; the change runs 10% faster than the base, and
    the seed shifts both sides alike."""

    def __init__(self, bad=None):
        self.calls, self.bad = [], bad or {}

    def __call__(self, side, seed):
        self.calls.append((side, seed))
        if (side, seed) in self.bad:
            return fake_run(1.0, 1.0, **self.bad[(side, seed)])
        ops = 100.0 + seed - ab.SEEDS[0] + (10.0 if side == "change" else 0.0)
        return fake_run(ops, 1000.0 / ops)


def test_quartiles_interpolate_between_sorted_values():
    assert ab.quartiles([5, 1, 3, 2, 4]) == (2, 3, 4)
    assert ab.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        ab.quartiles([])


def test_pairs_alternate_which_side_goes_first():
    runner = FakeRunner()
    runs = ab.run_pairs(runner, 4)
    s = ab.SEEDS
    assert runner.calls == [("base", s[0]), ("change", s[0]), ("change", s[1]), ("base", s[1]),
                            ("base", s[2]), ("change", s[2]), ("change", s[3]), ("base", s[3])]
    assert [p["seed"] for p in runs["accepted"]] == list(s[:4]) and runs["refused"] == []
    with pytest.raises(ValueError):
        ab.run_pairs(runner, len(ab.SEEDS) + 1)
    with pytest.raises(ValueError):
        ab.run_pairs(runner, 0)


def test_a_pair_with_an_incorrect_run_or_a_failed_operation_is_refused():
    s = ab.SEEDS
    runner = FakeRunner(bad={("change", s[1]): {"correct": False},
                             ("base", s[2]): {"failed": 3}})
    runs = ab.run_pairs(runner, 4)
    assert [p["seed"] for p in runs["accepted"]] == [s[0], s[3]]
    assert runs["refused"] == [
        {"seed": s[1], "reasons": {"change": "incorrect output"}},
        {"seed": s[2], "reasons": {"base": "3 failed operations"}},
    ]
    # a refused pair's runs enter no statistic
    stats = ab.statistics_of(METRICS, runs["accepted"])
    assert stats["ops_per_s"]["scaled"]["base"]["values"] == [100.0, 103.0]


def test_statistics_follow_each_metrics_better():
    runs = ab.run_pairs(FakeRunner(), 5)
    stats = ab.statistics_of(METRICS, runs["accepted"])
    ops = stats["ops_per_s"]["scaled"]
    assert ops["base"]["values"] == [100.0, 101.0, 102.0, 103.0, 104.0]
    assert (ops["base"]["median"], ops["base"]["iqr"]) == (102.0, 2.0)
    assert ops["change"]["median"] == 112.0 and ops["ratio"] == 112.0 / 102.0
    assert ops["better_pairs"] == 5 and not ops["unresolved"] and not ops["worse_than_bound"]
    # lower is better for the latency: the faster change wins every pair
    assert stats["op_ms_p50"]["scaled"]["better_pairs"] == 5
    assert stats["op_ms_p50"]["scaled"]["ratio"] < 1
    # raw figures come from the env line, with their own statistics
    raw = stats["ops_per_s"]["raw"]
    assert raw["base"]["median"] == pytest.approx(0.8 * 102.0) and raw["better_pairs"] == 5
    # equal peaks: a tie counts for neither side, and there is no raw figure
    rss = stats["peak_rss_mib"]
    assert rss["scaled"]["better_pairs"] == 0 and rss["scaled"]["ratio"] == 1.0
    assert "raw" not in rss
    lines = ab.report("prep-scan", stats, 5, []).splitlines()
    assert lines[0] == "prep-scan: 5 pairs accepted, 0 refused"
    assert [line.split()[:2] for line in lines[1:]] == [
        ["ops_per_s", "scaled"], ["ops_per_s", "raw"], ["op_ms_p50", "scaled"],
        ["op_ms_p50", "raw"], ["peak_rss_mib", "scaled"]]
    assert "ratio 1.0980  better 5/5" in lines[1]


def test_scaled_and_raw_figures_that_move_apart_are_flagged():
    # scaled ops/s falls 10% while raw ops/s rises 6%; both latencies fall
    pairs = [{"seed": seed,
              "base": fake_run(100.0 + i, 10.0 + i, rss=40.0),
              "change": {**fake_run(90.0 + i, 9.0 + i, rss=40.0),
                         "env": {"raw_ops_per_s": 0.8 * 1.06 * (100.0 + i),
                                 "raw_op_ms_p50": 1.25 * (9.5 + i)}}}
             for i, seed in enumerate(ab.SEEDS[:5])]
    stats = ab.statistics_of(METRICS, pairs)
    ops = stats["ops_per_s"]
    assert ops["scaled"]["ratio"] < 1 < ops["raw"]["ratio"]
    assert ops["directions_disagree"] is True
    assert stats["op_ms_p50"]["directions_disagree"] is False
    # a metric with no raw figure has no direction to compare
    assert "directions_disagree" not in stats["peak_rss_mib"]
    lines = ab.report("cli-export", stats, 5, []).splitlines()
    assert [line.split()[:2] for line in lines if "SCALED-RAW-DISAGREE" in line] == [
        ["ops_per_s", "raw"]]
    # a ratio of exactly 1 takes no side
    flat = {"ratio": 1.0}
    assert not ab.disagree(flat, {"ratio": 1.2}) and not ab.disagree({"ratio": None}, flat)
    assert ab.disagree({"ratio": 1.01}, {"ratio": 0.99})


def test_a_metric_is_unresolved_when_the_base_spreads_past_its_bound():
    metric = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.2}
    tight = ab.compare(metric, [100, 101, 102, 103], [90, 91, 92, 93])
    assert not tight["unresolved"] and not tight["worse_than_bound"]
    assert tight["better_pairs"] == 0
    wide = ab.compare(metric, [60, 100, 140, 180], [60, 100, 140, 180])
    # IQR 60 against a median of 120: 50% > 20%
    assert wide["unresolved"]
    slow = ab.compare(metric, [100, 100, 100], [70, 75, 79])
    assert slow["worse_than_bound"] and slow["ratio"] == 0.75


def test_a_gain_is_shown_in_9_of_10_pairs_by_more_than_the_base_iqr():
    higher = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.2}
    lower = {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}
    base = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
    ahead = [x + 10.0 for x in base]
    shown = ab.compare(higher, base, ahead)
    assert shown["better_pairs"] == 10 and shown["gain_shown"]
    # one pair lost of ten still shows it; two lost do not
    assert ab.compare(higher, base, [90.0] + ahead[1:])["gain_shown"]
    assert not ab.compare(higher, base, [90.0, 90.0] + ahead[2:])["gain_shown"]
    # a tie counts for neither side: one tie and one loss are two of ten not better
    tie_and_loss = ab.compare(higher, base, [base[0], 90.0] + ahead[2:])
    assert tie_and_loss["better_pairs"] == 8 and not tie_and_loss["gain_shown"]
    # better in every pair, but the medians lie within the base's IQR
    near = ab.compare(higher, base, [x + 4.0 for x in base])
    assert near["better_pairs"] == 10 and not near["gain_shown"]
    # `better` sets the direction: a rise is no gain on a latency
    assert not ab.compare(lower, base, ahead)["gain_shown"]
    assert ab.compare(lower, ahead, base)["gain_shown"]
    stats = {"ops_per_s": {"scaled": shown}, "op_ms_p50": {"scaled": near}}
    lines = ab.report("prep-scan", stats, 10, []).splitlines()
    assert "better 10/10  gain shown" in lines[1] and "gain not shown" in lines[2]


def test_bench_file_holds_the_header_and_one_entry_per_workload(tmp_path):
    path = tmp_path / "BENCH_abc1234.json"
    header = {"commit": "abc1234" + "0" * 33, "base": "f" * 40, "dirty": False, "nproc": 2,
              "python": "3.11.7", "numpy": "2.4.6"}
    runs = ab.run_pairs(FakeRunner(), 3)
    result = {"seconds": 8.0, "pairs": 3, "seeds": [p["seed"] for p in runs["accepted"]],
              "refused": [], "metrics": ab.statistics_of(METRICS, runs["accepted"])}
    ab.record(path, header, "prep-scan", result)
    ab.record(path, header, "search-sweep", result)
    data = json.loads(path.read_text())
    assert {k: data[k] for k in header} == header
    assert sorted(data["workloads"]) == ["prep-scan", "search-sweep"]
    entry = data["workloads"]["prep-scan"]
    assert entry["pairs"] == 3 and entry["seeds"] == list(ab.SEEDS[:3])
    assert entry["metrics"]["ops_per_s"]["scaled"]["better_pairs"] == 3
    # another base starts the file afresh
    ab.record(path, {**header, "base": "e" * 40}, "cli-export", result)
    assert sorted(json.loads(path.read_text())["workloads"]) == ["cli-export"]


def test_a_bench_run_is_read_from_its_last_two_lines():
    stdout = ("bench: a warning\n"
              'env {"python": "3.11.7", "raw_ops_per_s": 80.0}\n'
              '{"correct": true, "attempted": 10, "failed": 0, "metrics": {}}\n')
    run = ab.parse_run(stdout)
    assert run["env"]["raw_ops_per_s"] == 80.0 and run["correct"] and run["failed"] == 0
    assert ab.refusal(run) is None

