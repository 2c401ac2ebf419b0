"""Tests of the benchmark's own parts: the oracle against the paper's pinned
values, the tracer's patching and self-time arithmetic, and a control of the
speed scaling.

    python3 -m pytest bench/test_bench.py -q
"""

import statistics
import sys
import time
import types

import numpy as np
import pytest

import oracle
from run import Loop
from tracing import Tracer

DECAYING = [oracle.deviation_diagonal(-11.0, 18.0),
            oracle.deviation_diagonal(-8.0, 13.0),
            oracle.deviation_diagonal(-6.0, 9.0)]


def test_deviation_diagonal_matches_the_worked_example():
    assert np.array_equal(DECAYING[0], [-13.0, -31.0, 31.0, 13.0])
    assert np.array_equal(oracle.thermal_diagonal(), [2.5, 1.5, -1.5, -2.5])


def test_cycle_moves_nonground_populations_up_one_index():
    # ground |00>: 01 -> 10 -> 11 -> 01
    assert np.array_equal(oracle.cycle_matrix(0, 1) @ [0.0, 1.0, 2.0, 3.0], [0, 3, 1, 2])
    assert np.array_equal(oracle.cycle_matrix(2, 2) @ oracle.cycle_matrix(2, 1), np.eye(4))


def test_classic_temporal_averaging():
    result = oracle.label([oracle.thermal_diagonal()] * 3, 0)
    assert np.allclose(result["weights"], 1.0, atol=1e-12)
    assert np.allclose(result["diagonal"], [7.5, -2.5, -2.5, -2.5], atol=1e-12)


def test_worked_weight_solution():
    weights = oracle.label(DECAYING, 0)["weights"]
    assert np.allclose(weights, [1.0, 550.0 / 391.0, 738.0 / 391.0], atol=1e-12)


def test_constant_enhancement_ceiling():
    assert oracle.enhancement([DECAYING[0]] * 3) == pytest.approx(12.4, abs=1e-9)
    multi = oracle.expected_diagonals(False, 0.0, 120.0)
    assert oracle.enhancement(multi) == pytest.approx(12.4, abs=1e-9)


def test_single_sample_enhancement():
    single = oracle.expected_diagonals(True, 0.0, 120.0)
    assert oracle.enhancement(single) == pytest.approx(10.695, abs=0.001)
    aged = oracle.expected_diagonals(True, 600.0, 120.0)
    assert 2.0 <= oracle.enhancement(aged) <= 7.0
    assert oracle.enhancement(aged) == pytest.approx(5.19, abs=0.01)


def test_enhancement_decays_toward_thermal():
    assert oracle.enhancement_at(-11.0, 900.0, 0.0) == -11.0
    assert oracle.enhancement_at(18.0, 900.0, 900.0) == pytest.approx(1.0 + 17.0 / np.e)


def test_singular_weight_system_is_skipped():
    assert oracle.label([np.zeros(4)] * 3, 1) is None


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) * 2

    class Thing:
        def __init__(self, x):
            self.x = x

    a.inner, a.outer, a.Thing = inner, outer, Thing
    b.inner = inner  # imported by name into a second module
    pkg.outer = outer
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg, a, b


def test_tracer_patches_every_reference_and_restores(fake_package):
    pkg, a, b = fake_package
    original = a.inner
    tracer = Tracer("fakepkg", (("a", "outer"), ("a", "inner"), ("a", "Thing"), ("a", "gone")))
    tracer.install()
    assert tracer.absent == ["a.gone"]
    assert b.inner is not original
    tracer.op_id = 7
    assert pkg.outer(1) == 4
    assert b.inner(1) == 2
    assert a.Thing(3).x == 3
    tracer.uninstall()
    assert a.inner is original and b.inner is original
    names = [span[0] for span in tracer.spans]
    assert sorted(names) == ["a.Thing", "a.inner", "a.inner", "a.outer"]
    assert all(span[4] == 7 for span in tracer.spans)
    calls = {name: c for name, (c, _) in tracer.totals().items()}
    assert calls == {"a.outer": 1, "a.inner": 2, "a.Thing": 1}


def test_self_time_subtracts_children():
    tracer = Tracer("fakepkg", ())
    tracer.spans = [
        ("x", 0, 100_000, -1, 1),
        ("y", 10_000, 40_000, 0, 1),
        ("y", 50_000, 70_000, 0, 1),
        ("z", 0, 8_000, -1, 2),
    ]
    totals = tracer.totals()
    assert totals["x"] == (1, pytest.approx(0.05))
    assert totals["y"] == (2, pytest.approx(0.05))
    assert totals["z"] == (1, pytest.approx(0.008))


# speed-scaling control: operations of known relative cost through Loop

_SIGNAL = np.random.default_rng(1).normal(size=8192) + 0j
_MATRIX = 2.0 * np.eye(4)


def numpy_work(n):
    """FFTs and small matrix products, the kind of work the reference unit
    and the program's readout do."""
    for _ in range(n):
        for _ in range(6):
            np.fft.fft(_SIGNAL)
        for _ in range(200):
            np.kron(_MATRIX[:2, :2], _MATRIX[2:, 2:]) @ _MATRIX


def python_work(n):
    total = 0
    for i in range(n * 60_000):
        total += i * i
    return total


class FixedWork:
    def __init__(self, work):
        self.op = types.SimpleNamespace(label="fixed", run=work, check=lambda result: 0)

    def next_round(self):
        return [self.op] * 4


def scaling_control(work_a, work_b, seconds=8.0):
    """b against a: the raw and the scaled ratio of the median operation
    times, and the ratio of the mean slowdown factors. The two loops
    alternate rounds, so both see the same load."""
    a, b = Loop(FixedWork(work_a)), Loop(FixedWork(work_b))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        a.round()
        b.round()
    raw = statistics.median(r for _, r in b.plain) / statistics.median(r for _, r in a.plain)
    scaled = statistics.median(b.scaled(b.plain)) / statistics.median(a.scaled(a.plain))
    return raw, scaled, b.meter.mean_factor() / a.meter.mean_factor()


@pytest.mark.parametrize("work", [numpy_work, python_work])
def test_scaling_keeps_a_doubled_cost(work):
    raw, scaled, _ = scaling_control(lambda: work(4), lambda: work(8))
    assert 1.8 <= scaled <= 2.2, (raw, scaled)


def test_scaling_follows_a_change_in_the_kind_of_work():
    # b adds FFT work, which shares state with the reference unit; measured,
    # this moves the divisor by 2-6%, so the bound here is 10%
    _, _, factors = scaling_control(lambda: python_work(4),
                                    lambda: (python_work(4), numpy_work(4)))
    assert factors == pytest.approx(1.0, abs=0.1)
