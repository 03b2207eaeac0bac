"""Fixed calibration kernels that scale measured times to a calm host.

On a shared host the same op runs up to 1.8 times slower for stretches of
seconds to minutes, and set-ups slow down with it. A stretch longer than a
run moves the run's whole median, and ten runs of the same code spread by
15-50% in op time and shifted by up to 70% in set-up time between two sets.
A kernel that does the same kind of work as the timed code, on fixed inputs
and without calling cavityrb, slows down with it; kinds of work slow down
by different amounts in the same stretch. So each workload names the
kernel closest to its op and the one closest to its set-up:

- ``interpreter``: interpreter loops like the element loops of assembly
  and like module imports, sparse LUs like the tracking solves, and a
  small dense eigensolve. For the op of ``online-affine`` (mostly
  assembly) and the set-ups of ``offline-bump`` and ``hf-track`` (mostly
  interpreter start and imports).
- ``dense``: the same with a dense generalized eigensolve at the size of
  the high-fidelity pencil of ``hf-track`` in place of the small one. For
  the ops of ``hf-track`` and ``offline-bump`` and the set-up of
  ``online-affine`` (the offline build), all mostly dense eigensolves.

A timed interval is reported in reference seconds: its wall time times
the kernel's ``REFERENCE_S`` over the median time of the kernel passes run
next to it. On the reference host in a calm stretch that is the wall time
itself; elsewhere it is the wall time that host would have taken. An op is
divided by the ``NEAREST`` passes nearest to it in time, a set-up by the
passes run right after it.

The kernels run in a child process (``Sidecar``), one pass at a time
while the workload process waits for it, so that their memory stays out
of the workload's ``peak_rss_mb`` and their spans out of the traced run.
Both processes are pinned to the CPU the workload process was on, so that
the kernels see the CPU the ops see; the vCPUs of a guest can slow down in
different stretches. Run as a script, this module is that child: it reads
a kernel name and a budget in seconds per line and answers with the
(start, end) of each pass as a JSON list. ``time.perf_counter`` reads the
system-wide monotonic clock, so the two processes' times compare.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

# Kernel time spent between ops, as a share of the op time.
SHARE = 0.15
# Kernel passes an op's time is divided by: those nearest to it in time.
NEAREST = 6
# Median pass time of each kernel on the reference host, a 2-vCPU Xeon KVM
# guest (Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1, OpenBLAS 0.3.31 on one
# thread), over ten runs per workload in a calm stretch. Fixed: changing
# one rescales every time reported against it.
REFERENCE_S = {"interpreter": 0.031, "dense": 0.170}


@functools.cache
def _inputs():
    line = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(40, 40))
    small = np.random.default_rng(0).standard_normal((160, 160))
    return (
        (sp.kron(line, sp.identity(40)) + sp.kron(sp.identity(40), line)).tocsc(),
        small @ small.T + 160.0 * np.eye(160),
    )


def _loops_and_lus():
    entries = {}
    for i in range(40000):
        key = (i % 977, i % 89)
        entries[key] = entries.get(key, 0.0) + 0.5 * i
    for _ in range(5):
        splu(_inputs()[0])


def interpreter_kernel():
    _loops_and_lus()
    eigh(_inputs()[1], eigvals_only=True)


def dense_kernel():
    _loops_and_lus()
    dense = np.random.default_rng(1).standard_normal((736, 736))
    eigh(dense @ dense.T + 736.0 * np.eye(736),
         np.diag(np.linspace(1.0, 2.0, 736)) + 1e-3 * (dense + dense.T) / 736)


KERNELS = {"interpreter": interpreter_kernel, "dense": dense_kernel}


def calibrate(kernel, budget_s, passes):
    """Run passes of ``kernel`` while ``budget_s`` (seconds owed) is positive.

    Appends each pass's (start, end) to ``passes`` and returns what is
    still owed, negative if the last pass overran the budget.
    """
    while budget_s > 0:
        began = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        passes.append((began, ended))
        budget_s -= ended - began
    return budget_s


def setup_budget(name):
    """Kernel time to spend right after a set-up: ``NEAREST`` reference passes."""
    return NEAREST * REFERENCE_S[name]


def _current_cpu():
    """The CPU this process runs on, from /proc/self/stat (field 39)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Sidecar:
    """The kernels' child process; ``passes[name]`` collects the
    (start, end) of each pass of kernel ``name``."""

    def __init__(self):
        self.passes = defaultdict(list)
        cpu = _current_cpu()
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen([sys.executable, __file__, str(cpu)],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def calibrate(self, name, budget_s):
        """``calibrate`` with kernel ``name`` in the child; returns what
        is still owed."""
        if budget_s <= 0:
            return budget_s
        self.proc.stdin.write(f"{name} {budget_s!r}\n")
        self.proc.stdin.flush()
        passes = json.loads(self.proc.stdout.readline())
        self.passes[name] += passes
        return budget_s - sum(end - began for began, end in passes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def in_reference_s(seconds, passes, name):
    """``seconds`` in reference seconds against the (start, end) ``passes``
    of kernel ``name``."""
    return seconds * REFERENCE_S[name] / statistics.median(e - b for b, e in passes)


def ops_in_reference_s(ops, passes, name):
    """Each (start, end) op in reference seconds against the ``NEAREST``
    passes of kernel ``name`` whose midpoints lie nearest to the op's."""
    scaled = []
    for began, ended in ops:
        middle = 0.5 * (began + ended)
        near = sorted(passes, key=lambda p: abs(0.5 * (p[0] + p[1]) - middle))[:NEAREST]
        scaled.append(in_reference_s(ended - began, near, name))
    return scaled


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    warm = set()
    for line in sys.stdin:
        name, budget_s = line.split()
        if name not in warm:
            KERNELS[name]()  # warm-up pass, untimed
            warm.add(name)
        passes = []
        calibrate(KERNELS[name], float(budget_s), passes)
        print(json.dumps(passes), flush=True)


if __name__ == "__main__":
    main()
