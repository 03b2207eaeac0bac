"""Command-line front end.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from . import serialize as ser
from .config import config_from_dict, load_config
from .eigensolve import count_null
from .errors import CavityError, ConfigError, GeometryError, NumericalError
from .tracking import track


def _load(args):
    path = args.config
    if path.endswith(".json"):
        try:
            manifest = ser.read_manifest(path)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise ConfigError(f"{path} has no 'config' entry")
        cfg = config_from_dict(manifest["config"])
    else:
        cfg = load_config(path)
    overrides = {"seed": args.seed, "gauge": args.gauge}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _out_dir(args):
    return ser.ensure_dir(args.out)


def _check_t(args):
    """--t must lie in the parameter domain [0, 1] (NaN does not)."""
    if not 0.0 <= args.t <= 1.0:
        raise ConfigError(f"--t must lie in the parameter domain [0, 1], got {args.t}")


def cmd_check(args):
    cfg = _load(args)
    _check_t(args)
    problem = bench_mod.build_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 3)])
    tc = problem.tree_cotree
    print(f"mesh n={cfg.mesh_n}: n_curl={problem.n_curl} n_grad={problem.n_grad}")
    ok = True

    def report(name, value, bound):
        nonlocal ok
        passed = value <= bound
        ok = ok and passed
        print(f"  {name:<28} {value:.3e} <= {bound:.3e}  {'ok' if passed else 'FAIL'}")

    if len(tc.cotree) != problem.n_curl - problem.n_grad:
        print("  tree-cotree dimension law    FAIL")
        ok = False
    else:
        print("  tree-cotree dimension law    ok"
              f" (|T|={len(tc.tree)}, |C|={len(tc.cotree)})")
    for t in ts:
        sys_t = problem.system(float(t))
        a_scale = max(abs(sys_t.A).max(), np.finfo(float).tiny)
        b_scale = max(abs(sys_t.B).max(), np.finfo(float).tiny)
        ag = abs(sys_t.A @ sys_t.G).max() if problem.n_grad else 0.0
        cbg = (
            abs(sys_t.C - sys_t.B @ sys_t.G).max() if problem.n_grad else 0.0
        )
        print(f" t = {t:.6f}")
        report("curl of gradients", ag / a_scale, 1e-10)
        report("mixed block identity", cbg / b_scale, 1e-10)
        nulls = count_null(sys_t.A, sys_t.B, cfg.null_tol)
        passed = nulls == problem.n_grad
        ok = ok and passed
        print(
            f"  {'null-space dimension':<28} {nulls} == {problem.n_grad}  "
            f"{'ok' if passed else 'FAIL'}"
        )
    if args.export:
        out = ser.ensure_dir(args.export)
        sys0 = problem.system(float(args.t))
        ser.write_mesh(os.path.join(out, "mesh.txt"), problem.mesh)
        for name, M in (("A", sys0.A), ("B", sys0.B), ("C", sys0.C), ("G", sys0.G)):
            ser.write_matrix_triplets(os.path.join(out, f"{name}.txt"), M)
        ser.write_tree_cotree(os.path.join(out, "tree_cotree.txt"), tc)
        print(f"exported mesh and matrices at t={args.t} to {out}")
    if not ok:
        raise NumericalError("assembly invariants violated")
    print("all checks passed")


def cmd_solve(args):
    cfg = _load(args)
    _check_t(args)
    k = cfg.K if args.k is None else args.k
    if k < 1:
        raise ConfigError(f"--k must be at least 1, got {k}")
    problem = bench_mod.build_problem(cfg)
    if k > problem.size:
        raise ConfigError(
            f"--k must be at most {problem.size}, the number of physical modes "
            f"of the mesh, got {k}"
        )
    _, lambdas, _ = problem.solve(float(args.t), k)
    freqs = np.sqrt(lambdas) / (2.0 * np.pi)
    print(f"t = {args.t}: {k} eigenvalues ({problem.gauge} gauge)")
    print(f"{'mode':>4} {'lambda':>24} {'freq':>24}")
    for i, (lam, f) in enumerate(zip(lambdas, freqs)):
        print(f"{i:>4} {lam:>24.17g} {f:>24.17g}")
    if args.out:
        out = _out_dir(args)
        rows = [(i, float(args.t), lam, f) for i, (lam, f) in enumerate(zip(lambdas, freqs))]
        ser.write_csv(
            os.path.join(out, "spectrum.csv"), ("mode", "t", "lambda", "freq"), rows
        )


def _write_artifacts(out, artifacts):
    """Write the file of every artifact key present in ``artifacts``."""

    def path(name):
        return os.path.join(out, name)

    if "basis" in artifacts:
        ser.save_basis(path("basis.txt"), artifacts["basis"])
    if "greedy_log" in artifacts:
        ser.write_csv(
            path("greedy_log.csv"), ser.GREEDY_HEADER, artifacts["greedy_log"].rows()
        )
    if "tree_cotree" in artifacts:
        ser.write_tree_cotree(path("tree_cotree.txt"), artifacts["tree_cotree"])
    if "trace" in artifacts:
        ser.write_csv(
            path("trace.csv"), ser.TRACE_HEADER, ser.trace_rows(artifacts["trace"])
        )
    if "labels" in artifacts:
        pairs = zip(artifacts["labels"], artifacts["trace"].endpoint_lambdas())
        ser.write_csv(
            path("classification.csv"), ("tracked_index", "label", "lambda_end"),
            [(k, label, lam) for k, (label, lam) in enumerate(pairs)],
        )
    if "error_study" in artifacts:
        study = artifacts["error_study"]
        ser.write_csv(path("error_study.csv"), ser.ERROR_STUDY_HEADER, study.rows)
    if "bench" in artifacts:
        report = artifacts["bench"]
        ser.write_manifest(path("bench.json"), report)
        rows = [tuple(r[k] for k in ser.BENCH_HEADER) for r in report["rows"]]
        ser.write_csv(path("bench.csv"), ser.BENCH_HEADER, rows)


def cmd_build_rb(args):
    cfg = _load(args)
    out = _out_dir(args)
    problem = bench_mod.build_problem(cfg)
    basis, log, _ = bench_mod.build_basis(problem, cfg)
    _write_artifacts(out, {"basis": basis, "greedy_log": log})
    print(
        f"built basis of size {basis.size} ({basis.gauge} gauge), "
        f"greedy status: {log.status}, pencil interpolant m={basis.interpolant.m} "
        f"(coefficient tail {basis.interpolant.tail:.1e})"
    )
    print(f"artifacts in {out}")


def cmd_track(args):
    cfg = _load(args)
    out = _out_dir(args)
    problem = bench_mod.build_problem(cfg)
    basis = None
    system = cfg.track_system
    if args.basis:
        basis = ser.load_basis(args.basis)
        system = "reduced"
    elif system == "reduced":
        print("no basis artifact given, building one")
        basis, _, _ = bench_mod.build_basis(problem, cfg)
    trace = track(cfg.tracking_config(system), problem, basis=basis)
    artifacts = {"trace": trace}
    if trace.complete:
        labels = bench_mod.classify_run(cfg, trace)
        if labels is not None:
            artifacts["labels"] = labels
    _write_artifacts(out, artifacts)
    n_cross = len(trace.crossings())
    print(f"tracking status: {trace.status}, crossings flagged: {n_cross}")
    if trace.labels:
        print("endpoint labels: " + ", ".join(trace.labels))
    if not trace.complete:
        raise NumericalError(f"tracking aborted: {trace.status}")


def cmd_error_study(args):
    cfg = _load(args)
    out = _out_dir(args)
    study, basis, log = bench_mod.run_error_study(cfg)
    _write_artifacts(out, {"error_study": study, "basis": basis, "greedy_log": log})
    signed, _ = study.final_errors()
    print(
        f"final basis size {basis.size}, greedy status {log.status}, "
        f"max |avg signed error| {np.abs(signed).max():.3e}"
    )


def cmd_bench(args):
    cfg = _load(args)
    out = _out_dir(args)
    report = bench_mod.run_bench(cfg)
    _write_artifacts(out, {"bench": report})
    print(f"{'variant':<22} {'dofs':>6} {'evp[s]':>12} {'track[s]':>12} {'speedup':>9}")
    for r in report["rows"]:
        print(
            f"{r['label']:<22} {r['dof_count']:>6} {r['evp_time_median']:>12.5f} "
            f"{r['tracking_time_median']:>12.5f} {r['tracking_speedup']:>9.2f}"
        )


def cmd_pipeline(args):
    cfg = _load(args)
    out = _out_dir(args)
    manifest, artifacts = bench_mod.run_pipeline(cfg, with_bench=not args.no_bench)
    _write_artifacts(out, artifacts)
    ser.write_manifest(os.path.join(out, "manifest.json"), manifest)
    for rec in manifest["stages"]:
        print(f"stage {rec['name']:<24} {rec['status']}")
    for w in manifest["warnings"]:
        print(f"warning: {w}")
    if any(rec["status"] == "failed" for rec in manifest["stages"]):
        raise NumericalError("pipeline stage failed; see manifest")
    print(f"artifacts in {out}")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cavityrb",
        description="Reduced-basis construction and eigenvalue tracking "
        "for a 2D cavity eigenproblem on deforming domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="path to a run config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--gauge", default=None, help="override the gauge strategy")
        if needs_out:
            p.add_argument("--out", default="out", help="artifact directory")

    p = sub.add_parser("check", help="verify assembly invariants")
    common(p, needs_out=False)
    p.add_argument("--export", default=None, help="export mesh/matrices here")
    p.add_argument("--t", type=float, default=0.0, help="parameter for the export")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="solve one eigenvalue problem")
    common(p, needs_out=False)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None, help="also write spectrum.csv here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("build-rb", help="build and store a reduced basis")
    common(p)
    p.set_defaults(fn=cmd_build_rb)

    p = sub.add_parser("track", help="track eigenpairs from t=0 to t=1")
    common(p)
    p.add_argument("--basis", default=None, help="reuse a stored basis artifact")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("error-study", help="test-set error versus basis size")
    common(p)
    p.set_defaults(fn=cmd_error_study)

    p = sub.add_parser("bench", help="timing comparison of the system variants")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("pipeline", help="full offline/online pipeline")
    common(p)
    p.add_argument("--no-bench", action="store_true", help="skip the bench stage")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, GeometryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CavityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
