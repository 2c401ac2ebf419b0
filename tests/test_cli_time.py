import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_time.py"
spec = importlib.util.spec_from_file_location("cli_time", TOOL)
cli_time = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_time)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_modes_set_the_bytecode_cache(tmp_path):
    nocache = cli_time.environment(SRC, "nocache", tmp_path)
    cache = cli_time.environment(SRC, "cache", tmp_path)
    assert nocache["PYTHONPATH"] == cache["PYTHONPATH"] == str(SRC)
    assert nocache["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in nocache
    assert cache["PYTHONPYCACHEPREFIX"] == str(tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in cache


def test_pairs_alternate_and_summarize():
    calls = []

    def runner(side, command, mode):
        calls.append((side, command, mode))
        return 1.0 if side == "base" else 0.8

    times = cli_time.time_pairs(runner, 3)
    assert len(calls) == 2 * 3 * len(cli_time.COMMANDS) * len(cli_time.MODES)
    first = [side for side, command, mode in calls if (command, mode) == ("effpure", "cache")]
    assert first == ["base", "change", "change", "base", "base", "change"]
    stats = cli_time.statistics_of(times)
    assert set(stats) == set(cli_time.MODES)
    for mode in cli_time.MODES:
        for command in cli_time.COMMANDS:
            s = stats[mode][command]
            assert s["ratio"] == pytest.approx(0.8)
            assert s["faster_pairs"] == 3
    assert "faster 3/3" in cli_time.report(stats, 3)


def test_a_run_is_timed_and_its_output_removed(tmp_path):
    prefix = tmp_path / "pycache"
    env = cli_time.environment(SRC, "nocache", prefix)
    assert cli_time.timed(["probe"], env, tmp_path / "out") > 0.0
    assert not (tmp_path / "out").exists() and not prefix.exists()
    # a tree without the package fails at once
    missing = cli_time.environment(tmp_path / "none", "nocache", prefix)
    with pytest.raises(RuntimeError, match="exited 1: .*No module named 'spinoeqc'"):
        cli_time.timed(["probe"], missing, tmp_path / "out")
