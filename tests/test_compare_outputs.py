import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

CSV = "freq_hz,real,imag\r\n-1.0,{},0.5\r\n1.0,4.0,-0.25\r\n"


def write_tree(root: Path, real: float, report: dict) -> Path:
    root.mkdir()
    (root / "sum_h.csv").write_text(CSV.format(repr(real)), newline="")
    (root / "same.csv").write_text(CSV.format("2.0"), newline="")
    (root / "report.json").write_text(json.dumps(report))
    return root


REPORT = {"decoded": "01", "q2": 2.0, "weights": [1.0, 0.5], "ok": True, "timestamp": "t0"}


def test_numbers_that_move_are_reported_relative_to_the_largest_entry(tmp_path, capsys):
    a = write_tree(tmp_path / "a", 2.0, REPORT)
    moved = {**REPORT, "weights": [1.0, 0.5 + 2**-52], "timestamp": "t1"}
    b = write_tree(tmp_path / "b", 2.0 + 4 * 2**-52, moved)
    assert compare_outputs.main([str(a), str(b)]) == 0
    # the CSV's largest entry is 4.0 and the report's 2.0
    assert capsys.readouterr().out.splitlines() == [
        "report.json: JSON, keys differ: weights; largest move 1.1e-16 of the largest entry",
        "same.csv: identical",
        "sum_h.csv: CSV, largest move 2.2e-16 of the largest entry (column real)",
        "3 files: 1 identical apart from timestamp, 2 moved, 0 failed; "
        "largest move 2.2e-16 of the largest entry, in sum_h.csv",
    ]


def test_a_timestamp_alone_is_no_difference(tmp_path, capsys):
    a = write_tree(tmp_path / "a", 2.0, REPORT)
    b = write_tree(tmp_path / "b", 2.0, {**REPORT, "timestamp": "t1"})
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "report.json: JSON, identical apart from timestamp"
    )


def test_missing_files_and_values_that_are_no_numbers_fail(tmp_path, capsys):
    a = write_tree(tmp_path / "a", 2.0, REPORT)
    b = write_tree(tmp_path / "b", 2.0, {**REPORT, "decoded": "10", "ok": 1})
    (b / "same.csv").write_text(CSV.format("nan"), newline="")
    (a / "only_a.svg").write_text("<svg/>")
    (b / "sum_h.csv").write_text(CSV.format("2.0").replace("imag", "im"), newline="")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only_a.svg: missing in B",
        "report.json: decoded differs",
        "same.csv: a non-finite cell differs",
        "sum_h.csv: header differs",
        "4 files: 0 identical apart from timestamp, 0 moved, 4 failed",
    ]


def test_usage(tmp_path, capsys):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage:")
