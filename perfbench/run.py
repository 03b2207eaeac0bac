"""Benchmark of cavityrb: offline basis build, reduced and high-fidelity tracking.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The launcher writes the workload's
config (an existing file of ``configs/`` with the seed and the workload's
overrides applied) under ``.bench_out/``, then starts the workload process
(``workload.py``) with ``src`` on the path and the BLAS pool pinned to
``BLAS_THREADS`` threads. With ``--trace 0`` it also starts extra set-up
processes, half before and half after the workload process, so that
``setup_s`` is a median over several set-ups spread over the run, each
measured from process start to the moment the first op could begin.
``op_s`` and ``setup_s`` are in reference seconds: wall times scaled by
calibration kernels timed next to them (see ``calibration.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. Exit code 2 means the checkout is incomplete, 1 that a
workload process failed or ran out of time; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Threads of the BLAS pool in the workload process. One thread keeps the
# run-to-run spread low on a shared machine, and never exceeds nproc.
BLAS_THREADS = 1
# Every run ends this many seconds after it starts, at the latest.
RUN_LIMIT_S = 170.0

# name -> (config file, overrides of its keys, set-ups per untraced run)
WORKLOADS = {
    "offline-bump": ("configs/sinebump_n12.cfg", {}, 8),
    "online-affine": ("configs/bench_n24.cfg", {}, 1),
    "hf-track": (
        "configs/affine_n16.cfg",
        {"track_system": "high-fidelity", "track_h": "0.05"},
        8,
    ),
}


class BenchError(Exception):
    """The run cannot produce a result; the message says why."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def generated_config(base_path, overrides):
    """Config text of ``base_path`` with ``overrides`` replacing its keys."""
    with open(base_path, encoding="utf-8") as fh:
        lines = [ln for ln in fh
                 if ln.split("=", 1)[0].strip() not in overrides]
    lines += [f"{key} = {value}\n" for key, value in overrides.items()]
    return "".join(lines)


def git_revision():
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def start_workload(args, workdir, config_path, env, deadline, setup_only):
    t0 = time.time()
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "workload.py"),
           "--workload", args.workload, "--config", config_path,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "cavityrb", "__init__.py")):
        raise BenchError("no src/cavityrb here: run from the root of a cavityrb checkout", 2)
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        base_config, overrides, setup_repeats = WORKLOADS[args.workload]
        text = generated_config(base_config, {**overrides, "seed": str(args.seed)})
    except (OSError, ValueError) as exc:
        raise BenchError(f"incomplete checkout: {exc}", 2) from exc

    workdir = os.path.abspath(os.path.join(
        ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    os.makedirs(workdir, exist_ok=True)
    config_path = os.path.join(workdir, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

    def setup_only(count):
        return [start_workload(args, workdir, config_path, env, deadline, True)
                for _ in range(count)]

    extra = 0 if args.trace else setup_repeats - 1
    setups = setup_only(extra // 2)
    result = start_workload(args, workdir, config_path, env, deadline, False)
    setups += [result] + setup_only(extra - extra // 2)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values = {
            "op_s": statistics.median(result["op_ref_times"]),
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "max_rel_err": result["max_rel_err"],
            "ok_share": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), **result["record"],
        "max_rel_err_raw": result["max_rel_err_raw"],
        "ops": attempted, "op_raw_s": statistics.median(result["op_times"]),
        "setup_raw_s": statistics.median(setup["setup_raw_s"] for setup in setups),
        "op_times": result["op_times"], "op_ref_times": result["op_ref_times"],
        "cal_times": result["cal_times"],
        "setup_times": [setup["setup_raw_s"] for setup in setups],
        "setup_ref_times": [setup["setup_s"] for setup in setups],
        "failures": result["failures"],
    }
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "values": values}, fh, indent=1)
    print(json.dumps({"run_record": record}))
    for failure in result["failures"]:
        print(f"failed {failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(f"{args.workload}: {attempted} ops ({len(result['op_times'])} untraced), "
          f"{failed} failed, {len(setups)} set-ups")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
