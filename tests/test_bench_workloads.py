"""One round of each benchmark workload with every output check, so that a
library change which breaks the benchmark fails in the unit tests too."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_its_checks(name, tmp_path):
    ops = workloads.WORKLOADS[name](1, tmp_path).next_round()
    assert ops
    for op in ops:
        op.check(op.run())
