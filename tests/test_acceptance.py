"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy artifacts
(reduced bases, traces, benchmark report) are module-scoped fixtures shared
across criteria.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from cavityrb import (
    affine_stretch,
    assemble,
    build_reference_mesh,
    build_tree_cotree,
    gram_schmidt_clean,
    identity_map,
    sine_bump,
)
from cavityrb.bench import build_basis, run_bench, run_error_study
from cavityrb.config import RunConfig
from cavityrb.eigensolve import solve_dense_gevp
from cavityrb.gauge import GradientProjector
from cavityrb.greedy import GreedyConfig, greedy_extend
from cavityrb.pod import collect_snapshots, pod_basis
from cavityrb.problem import CavityProblem
from cavityrb.tracking import (
    TrackingConfig,
    analytic_rectangle_table,
    classify_endpoint,
    eigen_derivatives,
    track,
)

from conftest import count_null, solve_full, solve_gevp, standard_form_eigensolve

EXACT_SQUARE = np.pi**2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0])
CROSSING_MAIN = 2.0 / 3.0
CROSSING_EARLY = (np.sqrt(3.0) - 1.0) / 1.5  # tracked pair (2,0) x (1,1)


def _report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def study16():
    """Criterion-5 configuration: error study, basis and greedy log."""
    cfg = RunConfig(
        mesh_n=16, family="affine-stretch", gauge="tree-cotree",
        K=5, tau=2, N_init=12, N_pod=20, N_train=50, N_test=200,
        tol=1e-8, N_max=60, seed=7,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        study, basis, log = run_error_study(cfg)
        elapsed = time.perf_counter() - start
    problem = study.problem
    return cfg, study, basis, log, problem, elapsed


@pytest.fixture(scope="module")
def traces16(study16):
    cfg, _, basis, _, problem, _ = study16
    start = time.perf_counter()
    hf = track(
        TrackingConfig(K=5, h=0.05, system="high-fidelity", rho_min=0.8, overtrack=2),
        problem,
    )
    rb = track(
        TrackingConfig(K=5, h=0.05, system="reduced", rho_min=0.8, overtrack=2),
        problem,
        basis=basis,
    )
    elapsed = time.perf_counter() - start
    return hf, rb, elapsed


def test_criterion_01_discretization_convergence():
    start = time.perf_counter()
    errors = {}
    for n in (8, 16, 32):
        s = assemble(build_reference_mesh(n), identity_map(), 0.0)
        lam = scipy.linalg.eigh(s.A.toarray(), s.B.toarray(), eigvals_only=True)
        lam_ref = abs(lam).max()
        nonzero = lam[lam > 1e-8 * lam_ref][:5]
        errors[n] = np.abs(nonzero - EXACT_SQUARE) / EXACT_SQUARE
    elapsed = time.perf_counter() - start
    assert errors[16].max() < 0.02, f"n=16 errors {errors[16]}"
    rates = [
        np.log2(errors[8][i] / errors[16][i]) for i in range(5)
    ] + [np.log2(errors[16][i] / errors[32][i]) for i in range(5)]
    assert min(rates) >= 1.8, f"observed rates {rates}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(
        1,
        f"n=16 max error {errors[16].max():.2%} (< 2%), observed rate "
        f">= {min(rates):.2f}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_02_structural_identities():
    rng = np.random.default_rng(2024)
    mesh = build_reference_mesh(8)
    tc = build_tree_cotree(mesh)
    worst_ag = worst_cbg = 0.0
    for family in (affine_stretch(2.5), sine_bump(0.3)):
        for t in rng.uniform(0.0, 1.0, 10):
            s = assemble(mesh, family, float(t))
            worst_ag = max(worst_ag, abs(s.A @ s.G).max() / abs(s.A).max())
            worst_cbg = max(
                worst_cbg, abs(s.C - s.B @ s.G).max() / abs(s.B).max()
            )
            assert count_null(s.A, s.B) == mesh.n_grad
    assert worst_ag <= 1e-10
    assert worst_cbg <= 1e-10
    assert len(tc.cotree) == mesh.n_curl - mesh.n_grad
    _report(
        2,
        f"|A G| <= {worst_ag:.1e}, |C - B G| <= {worst_cbg:.1e} (both <= 1e-10), "
        f"dim ker A = n_grad = {mesh.n_grad} at 10 random t on both families, "
        f"|C| = {len(tc.cotree)} = n_curl - n_grad",
    )


def test_criterion_03_gauge_equivalence():
    worst = 0.0
    for n in (2, 8, 16):
        mesh = build_reference_mesh(n)
        tc = build_tree_cotree(mesh)
        for family in (affine_stretch(2.5), sine_bump(0.3)):
            for t in (0.0, 0.5, 1.0):
                s = assemble(mesh, family, t)
                lam_hat, _, _ = standard_form_eigensolve(s.A, s.B, tc)
                sol = solve_gevp(s.A, s.B, lam_hat.size)
                worst = max(
                    worst, (np.abs(lam_hat - sol.lambdas) / sol.lambdas).max()
                )
    assert worst <= 1e-9, f"worst spectral deviation {worst:.2e}"
    _report(
        3,
        f"condensed vs ungauged nonzero spectra agree to {worst:.1e} "
        "(<= 1e-9) for n in {2, 8, 16}, both families, t in {0, 0.5, 1}",
    )


def test_criterion_04_projector_laws():
    rng = np.random.default_rng(44)
    mesh = build_reference_mesh(8)
    s0 = assemble(mesh, sine_bump(0.3), 0.0)
    Z = rng.standard_normal((mesh.n_curl, 8))
    scale = abs(Z).max()
    projector = GradientProjector(s0.B, s0.G)
    PZ = projector.project(Z)
    idem = abs(projector.project(PZ) - PZ).max() / scale
    pg = abs(projector.project(s0.G.toarray())).max()
    assert idem <= 1e-12
    assert pg <= 1e-12
    Z1, _ = gram_schmidt_clean(Z, projector)
    Z2, _ = gram_schmidt_clean(Z1, projector)
    gs_defect = abs(s0.G.T @ (s0.B @ Z1)).max() / abs(s0.B).max()
    gs_idem = abs(np.abs(Z2) - np.abs(Z1)).max()
    assert gs_defect <= 1e-10
    assert gs_idem <= 1e-10
    _report(
        4,
        f"P^2 = P to {idem:.1e}, P G = 0 to {pg:.1e} (both <= 1e-12); "
        f"orthogonalization leaves |G^T B(0) Z| <= {gs_defect:.1e} and is "
        f"idempotent to {gs_idem:.1e}",
    )


def test_criterion_05_pod_greedy_error_study(study16):
    cfg, study, basis, log, _, elapsed = study16
    assert log.status == "converged", f"greedy status {log.status}"
    assert basis.size < 60, f"basis size {basis.size}"
    signed, _ = study.final_errors()
    assert np.abs(signed).max() <= 1e-6, f"signed averages {signed}"
    sizes = sorted({row[0] for row in study.rows})
    curve = {
        size: max(abs(row[2]) for row in study.rows if row[0] == size)
        for size in sizes
    }
    quarter = sizes[int(round(0.75 * (len(sizes) - 1)))]
    improvement = curve[quarter] / max(curve[sizes[-1]], np.finfo(float).tiny)
    assert improvement < 10.0, f"last-quarter improvement {improvement:.1f}x"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s"
    _, max_abs = study.final_errors()
    calibration = max_abs.max() / cfg.tol  # estimator soundness, reported
    _report(
        5,
        f"greedy converged at N={basis.size} < 60; max |signed avg error| "
        f"{np.abs(signed).max():.1e} <= 1e-6 on 200 seeded test points; "
        f"last-quarter improvement {improvement:.2f}x < 10x; estimator "
        f"calibration max_err/tol = {calibration:.2e}; "
        f"runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_06_degenerate_mode_safety():
    problem = CavityProblem(
        build_reference_mesh(16), identity_map(), gauge="tree-cotree"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snaps = collect_snapshots(problem, [0.0], 3)
        basis0 = pod_basis(
            snaps.Y, problem.basis_metric, 3, gauge="tree-cotree",
            space=problem.basis_space,
        )
        gcfg = GreedyConfig(
            K=5, tau=2, xi_train=np.linspace(0, 1, 5),
            tol=1e-9, N_max=20,
        )
        basis, log = greedy_extend(basis0, gcfg, problem)
    assert log.status == "converged"
    appended = [r.appended for r in log.records if r.appended]
    assert 2 in appended, f"cluster appends {appended}"
    assert all(a != 1 for a in appended), f"a degenerate pair was split: {appended}"
    A_red, B_red, _ = problem.reduced_pencil(basis.Z, 0.0)
    lam_red, _ = solve_dense_gevp(A_red, B_red)
    truth = solve_full(problem, 0.0, 5).lambdas
    rel = np.abs(lam_red[:5] - truth) / truth
    assert rel.max() <= 1e-6, f"reduced errors {rel}"
    _report(
        6,
        f"double eigenvalues appended as whole clusters {appended}; reduced "
        f"system reproduces both copies to {rel.max():.1e} (<= 1e-6)",
    )


def test_criterion_07_tracking_with_crossing(traces16):
    hf, rb, elapsed = traces16
    h = 0.05
    assert hf.complete and rb.complete

    # All flagged crossings must sit within one step of an analytic crossing
    # of the tracked curves. Besides the engineered crossing at t = 2/3, the
    # (2,0) curve also crosses (1,1) at t = (sqrt(3)-1)/1.5 ~ 0.488; see the
    # decisions ledger for the analysis.
    analytic = (CROSSING_EARLY, CROSSING_MAIN)
    mids = [mid for _, _, mid in hf.crossings()]
    for mid in mids:
        assert min(abs(mid - a) for a in analytic) <= h, f"spurious crossing {mid}"
    near_main = [m for m in mids if abs(m - CROSSING_MAIN) <= h]
    assert len(near_main) == 1, f"crossings near t=2/3: {near_main}"

    table = analytic_rectangle_table(2.5, 17)
    labels_hf = classify_endpoint(hf, table)
    labels_rb = classify_endpoint(rb, table)
    expected = ["(1,0)", "(0,1)", "(1,1)", "(2,0)", "(0,2)"]
    assert labels_hf == expected, labels_hf
    assert labels_rb == expected, labels_rb

    dev = np.abs(rb.endpoint_lambdas() - hf.endpoint_lambdas()) / hf.endpoint_lambdas()
    assert dev.max() <= 1e-4, f"endpoint deviation {dev}"
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s"
    _report(
        7,
        f"one crossing flagged at t = {near_main[0]:.3f} (= 2/3 +- h); all "
        f"flagged crossings {[f'{m:.3f}' for m in mids]} match analytic "
        f"locations {[f'{a:.3f}' for a in analytic]}; endpoint labels "
        f"{labels_hf}; reduced trace within {dev.max():.1e} (<= 1e-4) of "
        f"high fidelity; runtime {elapsed:.0f}s < 120s",
    )


def test_criterion_08_gauge_quality_ordering():
    cfg = RunConfig(
        mesh_n=12, family="sine-bump", gauge="tree-cotree",
        K=5, tau=2, N_init=12, N_pod=12, N_train=40, N_test=50,
        tol=1e-7, N_max=45, seed=5,
    )
    mesh = build_reference_mesh(cfg.mesh_n)
    endpoint_err = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for gauge in ("tree-cotree", "gram-schmidt"):
            problem = CavityProblem(mesh, sine_bump(0.3), gauge=gauge)
            basis, _, _ = build_basis(problem, cfg)
            truth = solve_full(problem, 1.0, cfg.K).lambdas
            A_red, B_red, _ = problem.reduced_pencil(basis.Z, 1.0)
            lam_red, _ = solve_dense_gevp(A_red, B_red)
            endpoint_err[gauge] = (
                np.abs(lam_red[: cfg.K] - truth) / truth
            ).max()
    assert endpoint_err["gram-schmidt"] >= endpoint_err["tree-cotree"], endpoint_err
    _report(
        8,
        f"endpoint (t=1) error: orthogonalized basis {endpoint_err['gram-schmidt']:.2e} "
        f">= tree-cotree basis {endpoint_err['tree-cotree']:.2e}, identical budgets",
    )


def test_criterion_09_derivative_correctness():
    problem = CavityProblem(
        build_reference_mesh(16), affine_stretch(2.5), gauge="tree-cotree"
    )
    t = 0.2
    s = problem.system(t)
    Ap, Bp = problem.derivative_pencil(t)
    a, ap = problem.family.stretch(t), problem.family.stretch_rate()
    sol = solve_gevp(s.A, s.B, 6)
    inverse = problem.projected_inverse(t)

    # (1,0) and (2,0) are simple at t = 0.2 and carry the analytic slope
    checks = []
    for m, idx in ((1, 0), (2, 3)):
        lam = sol.lambdas[idx]
        analytic = np.pi**2 * m**2 / a**2
        assert abs(lam - analytic) / analytic < 0.02
        lp = eigen_derivatives(
            (s.A, s.B), (Ap, Bp), sol.lambdas, sol.vectors, [idx], inverse=inverse
        ).values[0]
        exact = -2.0 * np.pi**2 * m**2 * ap / a**3
        rel = abs(lp - exact) / abs(exact)
        assert rel < 0.01, f"mode ({m},0): {rel:.3%}"
        checks.append((m, rel, lp))

    # finite-difference oracle with second-order convergence, on (1,0)
    lp = checks[0][2]
    errs = []
    for delta in (2e-3, 1e-3):
        lam_p = solve_full(problem, t + delta, 1).lambdas[0]
        lam_m = solve_full(problem, t - delta, 1).lambdas[0]
        errs.append(abs((lam_p - lam_m) / (2 * delta) - lp))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.2, f"oracle convergence ratio {ratio:.2f}"
    _report(
        9,
        "eigenpair derivatives match the analytic slope to "
        + ", ".join(f"({m},0): {rel:.2%}" for m, rel, _ in checks)
        + f" (< 1%); finite-difference oracle error ratio {ratio:.2f} "
        "(second order)",
    )


def test_criterion_10_benchmark():
    cfg = RunConfig(
        mesh_n=24, family="affine-stretch", gauge="tree-cotree",
        K=5, tau=2, N_init=12, N_pod=10, N_train=30, N_test=50,
        tol=1e-6, N_max=40, track_h=0.1, repetitions=3, seed=11,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        report = run_bench(cfg)
        elapsed = time.perf_counter() - start
    rows = {r["label"]: r for r in report["rows"]}
    assert set(rows) == {
        "high-fidelity", "high-fidelity-cotree", "rb-tree-cotree",
        "rb-gram-schmidt",
    }
    assert all(r["status"] == "ok" for r in report["rows"]), report["rows"]
    assert rows["high-fidelity"]["dof_count"] >= 1.5e3  # comparable scale
    for label in ("rb-tree-cotree", "rb-gram-schmidt"):
        assert rows[label]["tracking_speedup"] >= 10.0, (
            label, rows[label]["tracking_speedup"],
        )
    assert "assembly" in report["protocol"]["excluded"]
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s"
    lines = ", ".join(
        f"{r['label']}: x{r['tracking_speedup']:.1f}" for r in report["rows"]
    )
    _report(
        10,
        f"n=24 ({rows['high-fidelity']['dof_count']} unknowns) tracking "
        f"speedups [{lines}] with reduced bases >= 10x; assembly and offline "
        f"construction excluded; runtime {elapsed:.0f}s < 600s",
    )
