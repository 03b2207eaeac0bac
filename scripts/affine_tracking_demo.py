"""Track the first five cavity modes across the stretched-rectangle sweep.

Builds a tree-cotree reduced basis, tracks on both the high-fidelity and
the reduced system, and prints the crossing locations and the endpoint
classification side by side.

Usage: python scripts/affine_tracking_demo.py [--n 16] [--h 0.05]
"""

import argparse
import time
import warnings

import numpy as np

from cavityrb import affine_stretch, build_reference_mesh
from cavityrb.bench import build_basis
from cavityrb.config import RunConfig
from cavityrb.problem import CavityProblem
from cavityrb.tracking import analytic_rectangle_table, classify_endpoint, track


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--h", type=float, default=0.05)
    args = ap.parse_args()

    cfg = RunConfig(mesh_n=args.n, K=5, tau=2, N_init=12, N_pod=20,
                    N_train=50, tol=1e-8, N_max=60, track_h=args.h, seed=7)
    problem = CavityProblem(
        build_reference_mesh(cfg.mesh_n), affine_stretch(cfg.stretch_a1),
        gauge="tree-cotree",
    )
    print(f"mesh n={cfg.mesh_n}: {problem.n_curl} edge unknowns")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        basis, log, _ = build_basis(problem, cfg)
        print(f"offline: basis size {basis.size} ({log.status}) "
              f"in {time.perf_counter()-t0:.1f}s")

    table = analytic_rectangle_table(cfg.stretch_a1, cfg.K + 12)
    results = {}
    for name, system, b in (
        ("high-fidelity", "high-fidelity", None),
        ("reduced", "reduced", basis),
    ):
        t0 = time.perf_counter()
        trace = track(cfg.tracking_config(system), problem, basis=b)
        dt = time.perf_counter() - t0
        labels = classify_endpoint(trace, table)
        results[name] = trace
        print(f"\n{name} tracking ({dt:.2f}s): {trace.status}")
        print("  crossings at t =",
              ", ".join(f"{mid:.3f}" for _, _, mid in trace.crossings()))
        for k, lbl in enumerate(labels):
            lam = trace.endpoint_lambdas()[k]
            print(f"  mode {k}: endpoint lambda {lam:10.4f}  label {lbl}")

    hf = results["high-fidelity"].endpoint_lambdas()
    rb = results["reduced"].endpoint_lambdas()
    print("\nreduced vs high-fidelity endpoint deviation:",
          f"{np.abs(rb - hf).max() / hf.max():.2e}")


if __name__ == "__main__":
    main()
