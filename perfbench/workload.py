"""One workload process of the cavityrb benchmark.

    python3 perfbench/workload.py --workload NAME --config FILE --seed N
        --seconds S --trace 0|1 --t0 EPOCH --workdir DIR [--setup-only]

``run.py`` starts this process with ``src`` on the path and the BLAS pool
pinned. It sets the workload up, reports the set-up time measured from
``--t0`` (the moment the launcher started the process), and with
``--setup-only`` stops there. Otherwise it runs ops in a closed loop with
one client until ``--seconds`` have passed, with the workload's
calibration kernels timed after the set-up and between the ops (see
``calibration.py``), checks every op's output against the workload's
oracle after the loop, and prints one JSON object as its last line.
Times are reported in reference seconds, and the wall times beside them.

With ``--trace 1`` even-numbered ops run traced and odd-numbered ones
untraced; the gap between their medians is the tracing overhead. Spans
and counters go to ``DIR/spans.json`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from contextlib import nullcontext

import numpy as np
import scipy

import calibration
import cases
import spans
from cavityrb.config import load_config
from cavityrb.errors import CavityError


def run_record():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "nproc": os.cpu_count(),
    }


def peak_rss():
    """``ru_maxrss`` of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_drift(name, per_op):
    """Deterministic counters that differ between the traced ops of one run.

    Runs are compared through the counter values each traced run prints.
    """
    drift = [n for n in spans.DETERMINISTIC if len({m[n] for m in per_op}) > 1]
    for n in drift:
        print(f"counter drift: {name} {n}", file=sys.stderr)
    return drift


def _in_phase(tracer, phase, fn):
    """Call fn, recording ``phase`` if a tracer is given; count its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.recording(phase) if tracer else nullcontext():
            try:
                return fn()
            finally:
                if tracer:
                    tracer.count("bench.warnings", len(caught))


def run(workload, config_path, seed, seconds, trace, t0, workdir, setup_only=False):
    cfg = load_config(config_path)
    tracer = spans.Tracer() if trace else None
    wl = cases.WORKLOADS[workload](
        cfg, workdir, seed, count=tracer.count if tracer else None
    )
    times, traced_times, outputs = [], [], []
    _in_phase(tracer, "setup", wl.setup)
    setup_raw_s = time.time() - t0
    setup_rss_mb = peak_rss()
    if setup_only:
        # No ops follow, so the kernel runs here; peak_rss_mb is not read.
        kernel, passes = calibration.KERNELS[wl.setup_kernel], []
        kernel()  # warm-up pass, untimed
        calibration.calibrate(kernel, calibration.setup_budget(wl.setup_kernel), passes)
        return {"setup_s": calibration.in_reference_s(setup_raw_s, passes, wl.setup_kernel),
                "setup_raw_s": setup_raw_s}

    def op():
        began = time.perf_counter()
        try:
            output, error = wl.op(), None
        except CavityError as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
        return output, error, (began, time.perf_counter())

    # Untraced ops, as (start, end); one calibration pass runs before the
    # first op and one after the last at least.
    intervals, owed = [], 1e-9
    with calibration.Sidecar() as sidecar:
        sidecar.calibrate(wl.setup_kernel, calibration.setup_budget(wl.setup_kernel))
        setup_passes = list(sidecar.passes[wl.setup_kernel])
        start = time.perf_counter()
        while len(outputs) < (2 if trace else 1) or time.perf_counter() - start < seconds:
            # Ops leave reference cycles (tracking's pencil memo holds its
            # owner); collecting them before each op, untimed, starts every
            # op from the same heap, so peak_rss_mb does not grow with the
            # op count.
            gc.collect()
            owed = sidecar.calibrate(wl.op_kernel, owed)
            traced = trace and len(outputs) % 2 == 0
            output, error, interval = _in_phase(tracer if traced else None, len(outputs), op)
            elapsed = interval[1] - interval[0]
            (traced_times if traced else times).append(elapsed)
            if not traced:
                intervals.append(interval)
            owed += calibration.SHARE * elapsed
            outputs.append((output, error))
        sidecar.calibrate(wl.op_kernel, max(owed, 1e-9))
    peak_rss_mb = peak_rss()

    failures, errs = [], []
    for i, (output, error) in enumerate(outputs):
        if error is None:
            failed, err = wl.check(output)
            if failed:
                error = "; ".join(failed)
            else:
                errs.append(err)
        if error is not None:
            failures.append(f"op {i}: {error}")
    result = {
        "setup_s": calibration.in_reference_s(setup_raw_s, setup_passes, wl.setup_kernel),
        "setup_raw_s": setup_raw_s,
        "op_times": times,
        "op_ref_times": calibration.ops_in_reference_s(
            intervals, sidecar.passes[wl.op_kernel], wl.op_kernel),
        "cal_times": {name: [end - began for began, end in passes]
                      for name, passes in sidecar.passes.items()},
        "attempted": len(outputs),
        "failed": len(failures),
        "failures": failures,
        "max_rel_err": max(max(errs), cases.ERR_RESOLUTION) if errs else None,
        "max_rel_err_raw": max(errs) if errs else None,
        "peak_rss_mb": peak_rss_mb,
        "record": {**run_record(), "setup_peak_rss_mb": setup_rss_mb},
    }
    if trace:
        traced_ops = range(0, len(outputs), 2)
        per_op = [tracer.phase_metrics(i) for i in traced_ops]
        setup = tracer.phase_metrics("setup")
        layers = spans.median_metrics(per_op)
        layers.update({f"setup.{n}": v for n, v in setup.items()})
        layers.update({n: setup[n] for n in spans.SETUP_ONLY})
        traced_s = statistics.median(traced_times)
        untraced_s = statistics.median(times)
        layers.update({
            "trace.op_s": traced_s,
            "trace.untraced_op_s": untraced_s,
            "trace.overhead": traced_s / untraced_s - 1.0,
            "trace.spans_per_op": len([s for s in tracer.spans if s[4] != "setup"])
            / len(per_op),
            "trace.counter_drift": len(counter_drift(workload, per_op)),
        })
        result["layers"] = layers
        tracer.write(os.path.join(workdir, "spans.json"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.config, args.seed, args.seconds, args.trace,
                 args.t0, args.workdir, args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
