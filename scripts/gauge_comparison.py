"""Endpoint accuracy of the spurious-mode removal strategies.

Builds one reduced basis per strategy on the boundary-bump family with
identical budgets and reports the worst relative eigenvalue error at both
ends of the parameter range. The fixed-parameter cleanups (orthogonalization,
projection) tie divergence-freeness to t = 0 and lose accuracy at t = 1;
the tree-cotree gauge is uniform in t.

Usage: python scripts/gauge_comparison.py [--n 12]
"""

import argparse
import time
import warnings

import numpy as np

from cavityrb import build_reference_mesh, sine_bump
from cavityrb.bench import build_basis
from cavityrb.config import RunConfig
from cavityrb.eigensolve import solve_dense_gevp
from cavityrb.problem import CavityProblem


def endpoint_error(problem, basis, t, K):
    truth = problem.solve(t, K)[1]
    A_red, B_red, _ = problem.reduced_pencil(basis.Z, t, space=basis.space)
    lam, _ = solve_dense_gevp(A_red, B_red)
    return (np.abs(lam[:K] - truth) / truth).max()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=12)
    args = ap.parse_args()

    cfg = RunConfig(mesh_n=args.n, family="sine-bump", K=5, tau=2, N_init=12,
                    N_pod=12, N_train=40, tol=1e-7, N_max=45, seed=5)
    mesh = build_reference_mesh(cfg.mesh_n)
    print(f"{'gauge':<14} {'N':>3} {'status':<12} {'err(t=0)':>10} {'err(t=1)':>10}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for gauge in ("tree-cotree", "gram-schmidt", "projection", "none"):
            problem = CavityProblem(mesh, sine_bump(cfg.bump_beta), gauge=gauge)
            t0 = time.perf_counter()
            basis, log, _ = build_basis(problem, cfg)
            e0 = endpoint_error(problem, basis, 0.0, cfg.K)
            e1 = endpoint_error(problem, basis, 1.0, cfg.K)
            print(f"{gauge:<14} {basis.size:>3} {log.status:<12} "
                  f"{e0:10.2e} {e1:10.2e}   [{time.perf_counter()-t0:.0f}s]")


if __name__ == "__main__":
    main()
