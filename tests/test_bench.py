import os
import subprocess
import sys

import numpy as np
import pytest

import cavityrb.bench as bench_mod
import cavityrb.problem as problem_mod
from cavityrb import build_reference_mesh, sine_bump
from cavityrb.bench import (
    ErrorStudy,
    build_basis,
    build_problem,
    initial_basis,
    run_bench,
    run_error_study,
)
from cavityrb.config import RunConfig
from cavityrb.errors import NumericalError
from cavityrb.problem import CavityProblem
from cavityrb.tracking import TrackingConfig, track

from conftest import error_study_rows


def _bump_cfg(**kw):
    base = dict(
        mesh_n=8, family="sine-bump", gauge="tree-cotree", K=5, tau=2,
        N_init=11, N_pod=8, N_train=15, N_test=20, tol=1e-6, N_max=60, seed=3,
    )
    base.update(kw)
    return RunConfig(**base)


def test_build_problem_families():
    cfg = _bump_cfg()
    problem = build_problem(cfg)
    assert problem.family.kind == "sine-bump"
    assert problem.gauge == "tree-cotree"
    cfg2 = _bump_cfg(family="affine-stretch")
    assert build_problem(cfg2).family.stretch(1.0) == cfg2.stretch_a1


def test_build_basis_keeps_no_training_system(quiet_warnings):
    # the greedy assembles its training grid only while it runs: afterwards
    # the cache holds what it held before (here one training parameter) and
    # t_ref, where the basis metric lives
    cfg = _bump_cfg(mesh_n=4, K=3, tau=1, N_init=6, N_pod=4, N_train=8, N_max=20)
    problem = build_problem(cfg)
    xi_train = cfg.greedy_config().xi_train
    problem.system(float(xi_train[3]))
    before = set(problem._systems)
    _, log, _ = build_basis(problem, cfg)
    assert log.records
    assert set(problem._systems) == before | {problem.t_ref}


def test_error_study_rows_and_decay(quiet_warnings):
    cfg = _bump_cfg()
    study, basis, log = run_error_study(cfg)
    # the initial basis and every basis an appending greedy iteration left
    n_init = initial_basis(build_problem(cfg), cfg)[0].size
    sizes = [n_init] + [r.basis_size for r in log.records if r.appended]
    assert len(sizes) >= 2 and sizes[-1] == basis.size
    assert [r[:2] for r in study.rows] == [(s, i) for s in sizes for i in range(cfg.K)]
    per_size = {s: max(abs(r[2]) for r in study.rows if r[0] == s) for s in sizes}
    assert per_size[sizes[-1]] < per_size[sizes[0]]
    # signed averages are non-negative up to solver noise (upper bounds)
    final = [r[2] for r in study.rows if r[0] == sizes[-1]]
    assert min(final) > -1e-10


@pytest.mark.parametrize("family", ["sine-bump", "affine-stretch"])
@pytest.mark.parametrize("gauge", ["tree-cotree", "gram-schmidt"])
def test_error_study_matches_per_size_oracle(family, gauge, quiet_warnings):
    # one reduced pencil of the final basis per test parameter, cut to its
    # leading blocks, against each basis size evaluated on its own: the
    # sizes of the greedy's bases, then every leading block (the affine
    # stretch needs two snapshots for its greedy to append)
    n_pod = 4 if family == "sine-bump" else 2
    cfg = _bump_cfg(
        mesh_n=6, family=family, gauge=gauge, K=3, tau=1, N_init=2 * n_pod,
        N_pod=n_pod, N_train=10, N_test=6, tol=1e-8, N_max=30,
    )
    study, basis, _ = run_error_study(cfg)
    every = ErrorStudy.run(study.problem, cfg, basis.Z, range(1, basis.size + 1))
    for rows in (study.rows, every.rows):
        sizes = list(dict.fromkeys(r[0] for r in rows))
        oracle = error_study_rows(study.problem, cfg, basis.Z, sizes)
        assert [r[:2] + r[4:] for r in rows] == [r[:2] + r[4:] for r in oracle]
        np.testing.assert_allclose(
            np.array([r[2:4] for r in rows]),
            np.array([r[2:4] for r in oracle]), rtol=0, atol=1e-12,
        )


def test_error_study_keeps_no_test_system(quiet_warnings, monkeypatch):
    # the study assembles each test parameter inside its own transient block:
    # one is alive at a time, and afterwards the cache holds t_ref alone,
    # also in the pipeline
    cfg = _bump_cfg(mesh_n=4, K=3, tau=1, N_init=6, N_pod=4, N_train=8, N_test=5)
    ts_test = set(np.random.default_rng(cfg.seed).uniform(0.0, 1.0, cfg.N_test).tolist())
    alive = []
    reduced_pencil = CavityProblem.reduced_pencil

    def counting_reduced_pencil(self, Z, t, space=None):
        out = reduced_pencil(self, Z, t, space)
        alive.append(len(ts_test & set(self._systems)))
        return out

    monkeypatch.setattr(CavityProblem, "reduced_pencil", counting_reduced_pencil)
    study, _, _ = run_error_study(cfg)
    assert set(study.problem._systems) == {study.problem.t_ref}
    assert max(alive) == 1
    manifest, artifacts = bench_mod.run_pipeline(cfg, with_bench=False)
    assert [s["status"] for s in manifest["stages"]] == ["ok"] * len(manifest["stages"])
    problem = artifacts["error_study"].problem
    assert set(problem._systems) == {problem.t_ref}
    # a system assembled before the study stays
    t_kept = min(ts_test)
    problem.system(t_kept)
    ErrorStudy.run(problem, cfg, artifacts["basis"].Z, [artifacts["basis"].size])
    assert set(problem._systems) == {problem.t_ref, t_kept}


def test_failed_truth_solve_fails_the_error_study_stage(quiet_warnings, monkeypatch):
    # the truth solves run in the error-study stage: the stages before it
    # and their artifacts stand
    cfg = _bump_cfg(mesh_n=4, K=3, tau=1, N_init=6, N_pod=4, N_train=8, N_test=5)
    ts_test = set(np.random.default_rng(cfg.seed).uniform(0.0, 1.0, cfg.N_test).tolist())
    solve = CavityProblem.solve

    def failing_solve(self, t, k):
        if t in ts_test:
            raise NumericalError(f"no truth at t={t!r}")
        return solve(self, t, k)

    monkeypatch.setattr(CavityProblem, "solve", failing_solve)
    manifest, artifacts = bench_mod.run_pipeline(cfg, with_bench=False)
    status = {s["name"]: s["status"] for s in manifest["stages"]}
    assert status.pop("error-study") == "failed"
    assert set(status.values()) == {"ok"}
    assert {"basis", "greedy_log", "trace"} <= set(artifacts)
    assert "error_study" not in artifacts


def test_larger_mode_count_needs_larger_basis(quiet_warnings):
    # tracking fewer eigenvalues reaches the tolerance with a smaller basis
    sizes = {}
    for K in (5, 10):
        cfg = _bump_cfg(K=K, N_init=0, N_pod=6, tol=1e-5)
        problem = build_problem(cfg)
        basis, log, _ = build_basis(problem, cfg)
        assert log.status == "converged"
        sizes[K] = basis.size
    assert sizes[5] < sizes[10], sizes


def test_reduced_trace_error_decreases_with_tolerance(quiet_warnings):
    mesh = build_reference_mesh(8)
    problem = CavityProblem(mesh, sine_bump(0.3), gauge="tree-cotree")
    hf = track(TrackingConfig(K=3, h=0.2, system="high-fidelity"), problem)
    deviations = []
    for tol in (1e-2, 1e-4, 1e-6):
        cfg = _bump_cfg(K=3, tau=1, N_init=6, N_pod=5, tol=tol)
        basis, _, _ = build_basis(problem, cfg)
        rb = track(
            TrackingConfig(K=3, h=0.2, system="reduced"), problem, basis=basis
        )
        dev = max(
            (np.abs(sr.lambdas - sh.lambdas) / sh.lambdas).max()
            for sh, sr in zip(hf.steps, rb.steps)
        )
        deviations.append(dev)
    assert deviations[-1] <= deviations[0]
    assert all(
        later <= earlier * 1.5 + 1e-12
        for earlier, later in zip(deviations, deviations[1:])
    ), deviations


def test_crossing_location_stable_under_step_halving(quiet_warnings):
    from cavityrb import affine_stretch

    problem = CavityProblem(
        build_reference_mesh(8), affine_stretch(2.5), gauge="tree-cotree"
    )
    mids = {}
    for h in (0.1, 0.05):
        trace = track(
            TrackingConfig(K=5, h=h, system="high-fidelity", overtrack=2), problem
        )
        assert trace.complete
        near_main = [
            m for _, _, m in trace.crossings() if abs(m - 2.0 / 3.0) <= h
        ]
        assert len(near_main) == 1
        mids[h] = near_main[0]
    assert abs(mids[0.05] - 2.0 / 3.0) <= abs(mids[0.1] - 2.0 / 3.0) + 1e-12


def test_error_study_final_errors_helper(quiet_warnings):
    cfg = _bump_cfg(N_pod=5, tol=1e-4)
    study, basis, _ = run_error_study(cfg)
    signed, max_abs = study.final_errors()
    assert signed.shape == (cfg.K,)
    assert (max_abs >= np.abs(signed) - 1e-15).all()


def test_initial_basis_keeps_no_snapshot_systems(quiet_warnings):
    # snapshot parameters off the training grid are one-off: their
    # assembled systems must not stay cached on the problem
    cfg = _bump_cfg(mesh_n=4, K=3, N_init=4, N_pod=5)
    problem = build_problem(cfg)
    initial_basis(problem, cfg)
    snapshot_only = {float(t) for t in np.linspace(0.0, 1.0, cfg.N_pod)} - {problem.t_ref}
    assert not snapshot_only & set(problem._systems)
    # nor the projected inverse of the last of them
    assert problem._inverse is None or problem._inverse[0] not in snapshot_only


def test_bench_times_each_distinct_computation_once(monkeypatch, quiet_warnings):
    # the high-fidelity-cotree row reports the high-fidelity timings with
    # the cotree dimension; a march drops the systems it assembles, so the
    # bench keeps the warm-up's in one enclosing transient block and the
    # timed high-fidelity runs assemble nothing
    systems, assembled, hf_assembled = [], [], []
    assemble = problem_mod.assemble

    def counting_assemble(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    def counted(config, problem, basis=None):
        systems.append(config.system)
        before = len(assembled)
        trace = track(config, problem, basis=basis)
        if config.system == "high-fidelity":
            hf_assembled.append(len(assembled) - before)
        return trace

    monkeypatch.setattr(problem_mod, "assemble", counting_assemble)
    monkeypatch.setattr(bench_mod, "track", counted)
    cfg = RunConfig(
        mesh_n=4, K=3, tau=1, N_init=6, N_pod=4, N_train=8, tol=1e-6,
        N_max=20, track_h=0.25, repetitions=3,
    )
    report = run_bench(cfg)
    assert [s for s in systems if s != "reduced"] == ["high-fidelity"] * 4
    assert hf_assembled[0] > 0 and hf_assembled[1:] == [0, 0, 0]
    rows = {r["label"]: r for r in report["rows"]}
    assert list(rows) == [
        "high-fidelity", "high-fidelity-cotree", "rb-tree-cotree", "rb-gram-schmidt",
    ]
    assert all(r["status"] == "ok" for r in report["rows"]), report["rows"]
    hf, cotree = rows["high-fidelity"], rows["high-fidelity-cotree"]
    for key in ("evp_time_median", "evp_time_mean", "tracking_time_median",
                "tracking_time_mean"):
        assert cotree[key] == hf[key]
    problem = build_problem(cfg)
    assert (hf["dof_count"], cotree["dof_count"]) == (
        problem.n_curl, problem.n_curl - problem.n_grad,
    )


def test_offline_build_never_imports_scipy_optimize():
    # tracking imports the assignment solver where it calls it: loading
    # scipy.optimize would double the package's import time and memory
    code = (
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import cavityrb, cavityrb.cli\n"
        "from cavityrb import bench\n"
        "from cavityrb.config import RunConfig\n"
        "cfg = RunConfig(mesh_n=4, family='sine-bump', N_pod=2, N_train=5,\n"
        "                N_test=2, K=3, tau=1, N_init=6, N_max=20, tol=1e-8)\n"
        "basis, log, _ = bench.build_basis(bench.build_problem(cfg), cfg)\n"
        "assert len(log.records) > 1, log.rows()\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
