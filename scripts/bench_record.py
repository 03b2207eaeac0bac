"""Record the benchmark of one checkout in ``BENCH_<label>.json``.

    python3 scripts/bench_record.py --label NAME [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout on its three workloads, untraced
(``--trace 0``, the end-to-end metrics) and traced (``--trace 1``, the
per-layer counters and times), for ``SECONDS`` each, once per seed of
``SEEDS``, and keeps every run's
metrics with their per-metric medians over the seeds. A mesh ladder then
times reduced tracking for n in {12, 16, 24}: one basis per n with the
``configs/bench_n24.cfg`` settings and ``mesh_n`` replaced, then
``LADDER_REPEATS`` reduced tracking runs on fresh problems sharing the mesh (as the
``online-affine`` ops run), of which the median is kept. The ladder records
whether the online cost grows with the mesh. A second ladder times one
high-fidelity solve, ``problem.solve(HF_T, K + tau)`` with the same
settings, for n in {12, 16, 24, 48, 96}, in a child process whose address
space is capped at ``HF_MEMORY_LIMIT_GB``: a solve that does not fit (the
dense eigensolve of older checkouts at n = 96) is recorded with its error
instead of a time. For n in ``HF_TRACK_MESHES`` the same child then times
one high-fidelity ``track`` with those settings on a fresh problem. A
third ladder times one offline ``bench.build_basis`` for n in
``BUILD_MESHES``, with the settings of each file of ``BUILD_CONFIGS``, each
in its own child under the same cap, and records its time and peak RSS, or
its error. The ``bench_n24`` greedy converges on its first sweep; the
``sinebump_n12`` greedy enriches, so its builds hold what the greedy keeps
between sweeps.

The file goes to the root of the repository that holds this script,
whichever checkout is measured, so one tree can hold the records of a
change and of its parent. Standard library only; the ladder runs in a
child process with the checkout's ``src`` on the path and one BLAS thread,
as the benchmark pins it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOADS = ("offline-bump", "online-affine", "hf-track")
LADDER_MESHES = (12, 16, 24)
HF_MESHES = (12, 16, 24, 48, 96)
HF_TRACK_MESHES = (16, 24, 48)
BUILD_MESHES = (24, 48)
BUILD_CONFIGS = ("bench_n24", "sinebump_n12")
HF_T = 0.5
HF_MEMORY_LIMIT_GB = 2
SECONDS = 18
SEEDS = (1, 2, 3)
LADDER_REPEATS = 5
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The child builds its TrackingConfig by keyword from the config fields, as
# perfbench/cases.py does, so that it runs on older checkouts as well.
LADDER_CHILD = """
import dataclasses, json, statistics, sys, time, warnings
warnings.simplefilter("ignore")
from cavityrb import bench
from cavityrb.config import load_config
from cavityrb.tracking import TrackingConfig, track

cfg = dataclasses.replace(load_config("configs/bench_n24.cfg"), mesh_n=int(sys.argv[1]))
problem = bench.build_problem(cfg)
start = time.perf_counter()
basis, log, _ = bench.build_basis(problem, cfg)
build_s = time.perf_counter() - start
tcfg = TrackingConfig(
    K=cfg.K, h=cfg.track_h, system="reduced", rho_min=cfg.rho_min,
    max_halvings=cfg.max_halvings, overtrack=cfg.tau, delta_mult=cfg.delta_mult,
)
times = []
for _ in range(int(sys.argv[2])):
    fresh = bench.build_problem(cfg, mesh=problem.mesh)
    start = time.perf_counter()
    trace = track(tcfg, fresh, basis=basis)
    times.append(time.perf_counter() - start)
print(json.dumps({
    "n": cfg.mesh_n, "n_curl": problem.n_curl, "basis_size": basis.size,
    "greedy_status": log.status, "build_s": build_s, "track_complete": trace.complete,
    "track_steps": len(trace.steps), "track_s_median": statistics.median(times),
    "track_s": times,
}))
"""

# Assembly at HF_T happens before the timed region; ru_maxrss covers the
# whole child (mesh, assembly, solve and the tracking run, if any).
HF_CHILD = f"""
import dataclasses, json, resource, sys, time, warnings
warnings.simplefilter("ignore")
from cavityrb import bench
from cavityrb.config import load_config
from cavityrb.tracking import TrackingConfig, track

cfg = dataclasses.replace(load_config("configs/bench_n24.cfg"), mesh_n=int(sys.argv[1]))
problem = bench.build_problem(cfg)
problem.system({HF_T})
start = time.perf_counter()
_, lambdas, _ = problem.solve({HF_T}, cfg.K + cfg.tau)
solve_s = time.perf_counter() - start
out = {{
    "n": cfg.mesh_n, "n_curl": problem.n_curl, "k": cfg.K + cfg.tau, "t": {HF_T},
    "solve_s": solve_s, "lambdas": [float(x) for x in lambdas],
}}
if int(sys.argv[2]):
    tcfg = TrackingConfig(
        K=cfg.K, h=cfg.track_h, system="high-fidelity", rho_min=cfg.rho_min,
        max_halvings=cfg.max_halvings, overtrack=cfg.tau, delta_mult=cfg.delta_mult,
    )
    fresh = bench.build_problem(cfg, mesh=problem.mesh)
    start = time.perf_counter()
    trace = track(tcfg, fresh)
    out.update(track_s=time.perf_counter() - start, track_steps=len(trace.steps),
               track_complete=trace.complete)
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""

# ru_maxrss covers the whole child: mesh, assembly and the build.
BUILD_CHILD = """
import dataclasses, json, resource, sys, time, warnings
warnings.simplefilter("ignore")
from cavityrb import bench
from cavityrb.config import load_config

cfg = dataclasses.replace(
    load_config(f"configs/{sys.argv[2]}.cfg"), mesh_n=int(sys.argv[1])
)
problem = bench.build_problem(cfg)
start = time.perf_counter()
basis, log, _ = bench.build_basis(problem, cfg)
print(json.dumps({
    "config": sys.argv[2], "n": cfg.mesh_n, "n_curl": problem.n_curl,
    "build_s": time.perf_counter() - start, "basis_size": basis.size,
    "greedy_status": log.status, "greedy_iterations": len(log.records),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_lines(cmd, cwd, env=None, preexec_fn=None):
    """Run a command; return its stdout lines, raising on failure."""
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=preexec_fn
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{' '.join(cmd[:4])} ... failed with code {proc.returncode}:\n{proc.stderr}"
        )
    return proc.stdout.strip().splitlines()


def bench_run(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = run_lines(cmd, checkout)
    record = json.loads(lines[0])["run_record"]
    summary = json.loads(lines[-1])
    return record, {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def medians(runs):
    names = runs[0]["metrics"]
    return {
        name: statistics.median(r["metrics"][name] for r in runs)
        for name in names
        if all(isinstance(r["metrics"][name], (int, float)) for r in runs)
    }


def child_env(checkout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def ladder(checkout):
    env = child_env(checkout)
    rungs = []
    for n in LADDER_MESHES:
        lines = run_lines(
            [sys.executable, "-c", LADDER_CHILD, str(n), str(LADDER_REPEATS)], checkout, env
        )
        rungs.append(json.loads(lines[-1]))
        print(f"ladder n={n}: reduced track {rungs[-1]['track_s_median']:.4f} s",
              flush=True)
    return rungs


def cap_address_space():
    limit = HF_MEMORY_LIMIT_GB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def hf_ladder(checkout):
    env = child_env(checkout)
    rungs = []
    for n in HF_MESHES:
        try:
            lines = run_lines(
                [sys.executable, "-c", HF_CHILD, str(n), str(int(n in HF_TRACK_MESHES))],
                checkout, env, preexec_fn=cap_address_space,
            )
        except SystemExit as exc:
            rungs.append({"n": n, "error": str(exc).strip().splitlines()[-1]})
            print(f"hf ladder n={n}: {rungs[-1]['error']}", flush=True)
            continue
        rungs.append(json.loads(lines[-1]))
        tracked = (f", track {rungs[-1]['track_s']:.2f} s"
                   if "track_s" in rungs[-1] else "")
        print(f"hf ladder n={n}: solve {rungs[-1]['solve_s']:.3f} s{tracked}, "
              f"peak {rungs[-1]['peak_rss_mb']:.0f} MB", flush=True)
    return rungs


def build_ladder(checkout):
    env = child_env(checkout)
    rungs = []
    for config in BUILD_CONFIGS:
        for n in BUILD_MESHES:
            try:
                lines = run_lines([sys.executable, "-c", BUILD_CHILD, str(n), config],
                                  checkout, env, preexec_fn=cap_address_space)
            except SystemExit as exc:
                rungs.append({"config": config, "n": n,
                              "error": str(exc).strip().splitlines()[-1]})
                print(f"build ladder {config} n={n}: {rungs[-1]['error']}", flush=True)
                continue
            rungs.append(json.loads(lines[-1]))
            print(f"build ladder {config} n={n}: build {rungs[-1]['build_s']:.2f} s, "
                  f"peak {rungs[-1]['peak_rss_mb']:.0f} MB", flush=True)
    return rungs


def git_revision(checkout):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name: BENCH_<label>.json")
    parser.add_argument("--checkout", default=REPO, help="source checkout to measure")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)

    started = time.time()
    record = None
    workloads = {}
    for workload in WORKLOADS:
        workloads[workload] = {}
        for trace in (0, 1):
            runs = []
            for seed in SEEDS:
                record, run = bench_run(checkout, workload, seed, trace)
                runs.append(run)
                print(f"{workload} trace={trace} seed={seed}: "
                      f"{len(run['metrics'])} metrics, correct={run['correct']}",
                      flush=True)
            workloads[workload][f"trace{trace}"] = {"median": medians(runs), "runs": runs}

    out = {
        "label": args.label,
        "revision": git_revision(checkout),
        "machine": {
            "platform": platform.platform(),
            **{k: record[k] for k in ("python", "numpy", "scipy", "blas",
                                      "blas_threads", "nproc")},
        },
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {SECONDS} --trace T",
            "seeds": list(SEEDS),
            "aggregation": "median over seeds",
            "ladder": f"bench_n24 settings, mesh_n in {list(LADDER_MESHES)}, "
                      f"median of {LADDER_REPEATS} reduced tracking runs",
            "hf_ladder": f"bench_n24 settings, mesh_n in {list(HF_MESHES)}, one "
                         f"problem.solve({HF_T}, K + tau) after assembly, and one "
                         f"high-fidelity track for mesh_n in {list(HF_TRACK_MESHES)}, "
                         f"address space capped at {HF_MEMORY_LIMIT_GB} GiB",
            "build_ladder": f"the settings of {list(BUILD_CONFIGS)}, mesh_n in "
                            f"{list(BUILD_MESHES)}, one bench.build_basis per "
                            "child, address space capped at "
                            f"{HF_MEMORY_LIMIT_GB} GiB",
        },
        "workloads": workloads,
        "ladder": ladder(checkout),
        "hf_ladder": hf_ladder(checkout),
        "build_ladder": build_ladder(checkout),
        "wall_s": time.time() - started,
    }
    path = os.path.join(REPO, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
