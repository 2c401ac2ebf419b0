"""Spans around the package's public functions, installed from outside.

A `Tracer` replaces each traced function with a wrapper in every module of
the package that holds a reference to it: the defining module and every
module that imported it by name (`experiments.probe` as well as
`readout.probe`). A traced class has its `__init__` wrapped, so its spans
time construction and validation. Spans stay in memory as tuples
(name, start_ns, end_ns, parent, op_id) and are written out only when the
run ends. A traced name the package no longer defines is reported as
absent and the run goes on, so a refactor that removes a function does not
break the trace.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, name) pairs traced, in the order the per-layer metrics list them
TRACED = (
    ("readout", "calibrate"),
    ("readout", "probe"),
    ("readout", "readout_spectra"),
    ("readout", "synthesize_fid"),
    ("readout", "spectrum"),
    ("readout", "integrate_peaks"),
    ("readout", "reconstruct_diagonal"),
    ("readout", "Spectrum"),
    ("readout", "spectrum_to_csv"),
    ("experiments", "run_grover_pipeline"),
    ("experiments", "run_effective_pure_pipeline"),
    ("experiments", "decode_answer"),
    ("labeling", "choose_ground"),
    ("labeling", "solve_weights"),
    ("labeling", "assemble_effective_pure"),
    ("labeling", "enhancement_factor"),
    ("spinoe", "sample_initial_state"),
    ("spinoe", "make_schedule"),
    ("spins", "pulse_unitary"),
    ("spins", "permutation_pulse_sequence"),
    ("quantum", "apply_unitary"),
    ("quantum", "compose"),
    ("svg", "line_chart"),
    ("cli", "main"),
)

NO_PARENT = -1


class Tracer:
    def __init__(self, package: str, traced=TRACED):
        self.package = package
        self.traced = traced
        self.spans: list = []
        self.op_id = NO_PARENT
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def names(self) -> list[str]:
        return [f"{module}.{name}" for module, name in self.traced]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else NO_PARENT
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        prefix = self.package + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        self.absent = []
        for module_name, attr in self.traced:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(prefix + module_name)
            target = getattr(home, attr, None) if home is not None else None
            if target is None:
                self.absent.append(name)
                continue
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(name, target.__init__))
                continue
            wrapper = self._wrap(name, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ms) over all recorded spans.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        return {name: (calls[name], self_ns[name] / 1e6) for name in calls}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: name, start/end ns, parent, op."""
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, op_id]) + "\n")
