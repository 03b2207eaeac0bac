"""In-memory span and counter recorder for the traced benchmark run.

The recorder wraps public functions of the cavityrb modules, and the two
SciPy kernels they call, at the places their callers look them up: every
cavityrb module attribute bound to the original function is replaced, a
method is replaced on its class, and a SciPy kernel is replaced on its
SciPy module. Nothing inside the package is edited. A wrapper records only
while a phase (a set-up or one op) is being recorded; oracle and check
work runs outside the phases on the unwrapped program.

Span names are ``<module>.<function>`` (``kernel.<function>`` for SciPy).
A span's self time is its duration minus the durations of its direct
children, which never overlap because the program runs on one thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.linalg
import scipy.sparse.linalg

from cavityrb import (
    assembly,
    bench,
    eigensolve,
    gauge,
    geometry,
    greedy,
    pod,
    serialize,
    tracking,
)
from cavityrb.problem import CavityProblem

# Counters that must repeat exactly between runs of the same code.
DETERMINISTIC = (
    "assembly.assemble.calls",
    "kernel.splu.calls",
    "eigensolve.dense_n3",
    "greedy.iterations",
    "greedy.basis_size",
    "tracking.steps",
)


def _greedy_counts(tracer, result):
    extended, log = result
    tracer.count("greedy.iterations", len(log.records))
    tracer.count("greedy.basis_size", extended.size)


def _track_counts(tracer, trace):
    tracer.count("tracking.steps", len(trace.steps))
    tracer.count(
        "tracking.halved_steps", sum("step-halved" in s.flags for s in trace.steps)
    )
    tracer.count(
        "tracking.derivative_fallbacks",
        sum("derivative-fallback" in s.flags for s in trace.steps),
    )


def _eigh_counts(tracer, a):
    tracer.count("eigensolve.dense_n3", float(a.shape[0]) ** 3)


# Layers called only during set-up; their metrics are per set-up.
SETUP_ONLY = (
    "geometry.build_reference_mesh.s",
    "serialize.save_basis.s",
    "serialize.load_basis.s",
    "serialize.basis_bytes",
)

# (span name, owner, attribute, hook on the result or None)
MODULE_TARGETS = (
    ("geometry.build_reference_mesh", geometry, "build_reference_mesh", None),
    ("assembly.assemble", assembly, "assemble", None),
    ("assembly.discrete_gradient", assembly, "discrete_gradient", None),
    ("eigensolve.solve_dense_gevp", eigensolve, "solve_dense_gevp", None),
    ("eigensolve.eigenvalue_clusters", eigensolve, "eigenvalue_clusters", None),
    ("gauge.condensed_eigensolve", gauge, "condensed_eigensolve", None),
    ("gauge.build_tree_cotree", gauge, "build_tree_cotree", None),
    ("pod.collect_snapshots", pod, "collect_snapshots", None),
    ("pod.pod_basis", pod, "pod_basis", None),
    ("greedy.greedy_extend", greedy, "greedy_extend", _greedy_counts),
    ("greedy.estimate", greedy, "estimate", None),
    ("tracking.track", tracking, "track", _track_counts),
    ("tracking.eigen_derivatives", tracking, "eigen_derivatives", None),
    ("serialize.save_basis", serialize, "save_basis", None),
    ("serialize.load_basis", serialize, "load_basis", None),
    ("bench.build_basis", bench, "build_basis", None),
)
METHOD_TARGETS = (
    ("problem.system", "system"),
    ("problem.reduced_pencil", "reduced_pencil"),
    ("problem.snapshot_solve", "snapshot_solve"),
    ("problem.derivative_pencil", "derivative_pencil"),
)
KERNEL_TARGETS = (
    ("kernel.splu", scipy.sparse.linalg, "splu", None),
    ("kernel.eigh", scipy.linalg, "eigh", _eigh_counts),
)
SPAN_NAMES = tuple(t[0] for t in MODULE_TARGETS + METHOD_TARGETS + KERNEL_TARGETS)
COUNTERS = (
    "greedy.iterations",
    "greedy.basis_size",
    "tracking.steps",
    "tracking.halved_steps",
    "tracking.derivative_fallbacks",
    "eigensolve.dense_n3",
    "serialize.basis_bytes",
    "bench.warnings",
)


class Tracer:
    """Spans ``[name, start, end, parent index, phase]`` and per-phase counters.

    The wrappers are installed only while ``recording`` a phase, so work
    outside a phase runs the unwrapped program.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)  # (phase, name) -> value
        self.phase = None
        self._stack = []

    def count(self, name, value=1):
        if self.phase is not None:
            self.counters[(self.phase, name)] += value

    @contextmanager
    def recording(self, phase):
        restore = self._install()
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, hook=None, hook_on_args=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.phase]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args[0] if hook_on_args else result)
            return result

        return wrapper

    def _install(self):
        restore = []

        def patch(owner, attr, wrapper):
            restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cavityrb" or n.startswith("cavityrb.")]
        for name, owner, attr, hook in MODULE_TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, wrapper)
        for name, attr in METHOD_TARGETS:
            patch(CavityProblem, attr, self._wrap(name, vars(CavityProblem)[attr]))
        for name, owner, attr, hook in KERNEL_TARGETS:
            patch(owner, attr, self._wrap(name, getattr(owner, attr), hook,
                                          hook_on_args=True))
        return restore

    # ---------------------------------------------------------- aggregation

    def phase_metrics(self, phase):
        """Calls, total and self seconds per span name, plus the counters.

        Every span name and counter is present, zero where nothing ran.
        """
        out = dict.fromkeys(COUNTERS, 0.0)
        for name in SPAN_NAMES:
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        child_time = defaultdict(float)
        for _, start, end, parent, ph in self.spans:
            if ph == phase and parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        for (ph, name), value in self.counters.items():
            if ph == phase:
                out[name] += value
        systems = out["problem.system.calls"]
        out["problem.system.hit_ratio"] = (
            1.0 - out["assembly.assemble.calls"] / systems if systems else 0.0
        )
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "phase"],
                    "spans": self.spans,
                    "counters": [[ph, n, v] for (ph, n), v in self.counters.items()],
                },
                fh,
            )


def median_metrics(per_op):
    """Per-name median over the ops' ``phase_metrics`` dicts."""
    return {n: statistics.median(m[n] for m in per_op) for n in per_op[0]}
