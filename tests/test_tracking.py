import dataclasses
import gc
import pathlib
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import (
    TrackingConfig,
    analytic_rectangle_table,
    classify_endpoint,
    eigen_derivatives,
    taylor_predict,
    track,
)
from cavityrb.eigensolve import eigenvalue_clusters, solve_dense_gevp
from cavityrb.errors import ConfigError, NumericalError, SingularDerivativeError
from cavityrb.online import pencil_interpolant
from cavityrb import bench, gauge, online, tracking
from cavityrb.config import load_config
from cavityrb.tracking import TrackingTrace, TrackStep, _rank_permutation

from conftest import (
    SPLIT_GAP,
    bordered_derivatives,
    cluster_aware_match_by_clusters,
    correlation_match,
    eigenspace_distance,
    make_problem,
    multiple_by_clusters,
    per_parameter_track,
    probe_seeded_clusters,
    rank_permutation_by_clusters,
    solve_full,
    solve_gevp,
)


def _slope(problem, t, sol, k):
    """(v', lambda') of pair k of an oracle solve at t, by the tracker's
    rule with the oracle's pairs as the window."""
    s = problem.system(t)
    d = eigen_derivatives(
        (s.A, s.B), problem.derivative_pencil(t), sol.lambdas, sol.vectors, [k],
        inverse=problem.projected_inverse(t),
    )
    assert not d.failed.any()
    return d.vectors[:, 0], d.values[0]


def test_derivative_stationary_family():
    problem = make_problem(n=4, family="identity")
    s = problem.system(0.3)
    sol = solve_gevp(s.A, s.B, 4)
    k = 2  # simple eigenvalue of the square
    v, lam = sol.vectors[:, k], sol.lambdas[k]
    zero = s.A * 0.0
    d = eigen_derivatives(
        (s.A, s.B), (zero, zero), sol.lambdas, sol.vectors, [k],
        inverse=problem.projected_inverse(0.3),
    )
    vp, lp = d.vectors[:, 0], d.values[0]
    assert abs(lp) <= 1e-10 * lam
    assert np.linalg.norm(vp) <= 1e-8 * np.linalg.norm(v)
    assert d.iterations == 0 and not d.failed.any()


def test_derivative_unit_cell_closed_form():
    # lambda(t) = 24 / (1 + a^2) for the single-edge system
    problem = make_problem(n=1, family="affine")
    fam = problem.family
    t = 0.3
    s = problem.system(t)
    sol = solve_gevp(s.A, s.B, 1)
    _, lp = _slope(problem, t, sol, 0)
    a, ap = fam.stretch(t), fam.stretch_rate()
    exact = -48.0 * a * ap / (1 + a * a) ** 2
    np.testing.assert_allclose(lp, exact, rtol=1e-6)


def test_derivative_matches_analytic_stretch_mode():
    problem = make_problem(n=16, family="affine")
    t = 0.2
    s = problem.system(t)
    sol = solve_gevp(s.A, s.B, 2)
    a, ap = problem.family.stretch(t), problem.family.stretch_rate()
    # mode (1,0) is the smallest for t > 0
    _, lp = _slope(problem, t, sol, 0)
    exact = -2.0 * np.pi**2 * ap / a**3
    assert abs(lp - exact) / abs(exact) < 0.01


def test_derivative_finite_difference_oracle():
    problem = make_problem(n=8, family="affine")
    t = 0.35
    s = problem.system(t)
    sol = solve_gevp(s.A, s.B, 2)
    _, lp = _slope(problem, t, sol, 0)
    errs = []
    for delta in (2e-3, 1e-3):
        lam_p = solve_full(problem, t + delta, 1).lambdas[0]
        lam_m = solve_full(problem, t - delta, 1).lambdas[0]
        errs.append(abs((lam_p - lam_m) / (2 * delta) - lp))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.2


def test_derivative_singular_at_degenerate_pair():
    problem = make_problem(n=8, family="identity")
    s = problem.system(0.0)
    Ap, Bp = problem.derivative_pencil(0.0)
    sol = solve_gevp(s.A, s.B, 2)  # exactly degenerate pair
    with pytest.raises(SingularDerivativeError, match="multiple"):
        eigen_derivatives(
            (s.A, s.B), (Ap, Bp), sol.lambdas, sol.vectors, [0],
            inverse=problem.projected_inverse(0.0),
        )


_REDUCED_OPS = {}


def _reduced_ops(space, family):
    """Interpolant of a snapshot basis at t = 0 and 1 on an n = 4 problem,
    in the edge space (gram-schmidt) or cotree coordinates; built once."""
    if (space, family) not in _REDUCED_OPS:
        gauge = "tree-cotree" if space == "cotree" else "gram-schmidt"
        problem = make_problem(n=4, family=family, gauge=gauge)
        Y = np.hstack([problem.snapshot_solve(t, 6)[1] for t in (0.0, 1.0)])
        Z, _ = problem.orthonormalize(problem.clean_basis(Y)[0])
        _REDUCED_OPS[space, family] = pencil_interpolant(problem, Z)
    return _REDUCED_OPS[space, family]


@given(
    st.sampled_from(["full", "edge", "cotree"]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.05, max_value=0.95),
    st.data(),
)
def test_derivatives_match_the_bordered_oracle(ops_kind, family, t, data):
    # the window rule (modal sum, gradient solve, preconditioned CG on the
    # complement) against one bordered LU per mode, on the pairs each ops
    # solves: the problem's sparse window, the interpolant's whole spectrum
    if ops_kind == "full":
        ops = make_problem(n=data.draw(st.integers(8, 12)), family=family)
    else:
        ops = _reduced_ops(ops_kind, family)
    pencil, lam_w, V_w = ops.solve(t, 8)
    derivative = ops.derivative_pencil(t)
    modes = [
        int(idx[0]) for idx in eigenvalue_clusters(lam_w[:6], tracking.DEFAULT_MULT_TOL)
        if idx.size == 1
    ]
    d = eigen_derivatives(pencil, derivative, lam_w, V_w, modes, inverse=ops.projected_inverse(t))
    assert not d.failed.any()
    A, B = pencil
    for j, k in enumerate(modes):
        v = V_w[:, k]
        vp, lp = bordered_derivatives(A, B, *derivative, v, lam_w[k], B @ v)
        assert np.linalg.norm(d.vectors[:, j] - vp) <= 1e-9 * np.linalg.norm(vp)
        assert abs(d.values[j] - lp) <= 1e-8 * (abs(lp) + lam_w[k])


@given(
    st.sampled_from(["edge", "cotree"]),
    st.sampled_from(["affine", "bump"]),
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=4),
)
def test_stacked_derivatives_match_the_bordered_oracle(space, family, ts):
    # the whole-spectrum rule on a stack of parameters, every mode at once,
    # against one bordered LU per mode; a clustered column is flagged and
    # picking it raises
    ops = _reduced_ops(space, family)
    pencils, lam, V = ops.evaluate(ts)
    multiple = tracking._multiple(lam, tracking.DEFAULT_MULT_TOL)
    d = eigen_derivatives(
        (pencils[:, 0], pencils[:, 1]), (pencils[:, 2], pencils[:, 3]), lam, V,
        multiple=multiple,
    )
    assert d.vectors.shape == V.shape and d.values.shape == lam.shape
    np.testing.assert_array_equal(d.multiple, multiple)
    assert not (d.unpaired.any() or d.orthogonal.any())
    for row in range(len(ts)):
        A, B, A_p, B_p = pencils[row]
        simple = np.flatnonzero(~multiple[row, :6])
        picked = d.pick(simple, row)
        assert not picked.failed.any()
        for j, k in enumerate(simple):
            v = V[row][:, k]
            vp, lp = bordered_derivatives(A, B, A_p, B_p, v, lam[row, k], B @ v)
            assert np.linalg.norm(picked.vectors[:, j] - vp) <= 1e-9 * np.linalg.norm(vp)
            assert abs(picked.values[j] - lp) <= 1e-8 * (abs(lp) + lam[row, k])
        for k in np.flatnonzero(multiple[row]):
            assert d.failed[row, k]
            with pytest.raises(SingularDerivativeError):
                d.pick([k], row)


def test_stacked_rule_masks_clustered_columns():
    # exact double eigenvalues in a stack: the clustered columns divide by
    # no zero gap (every floating-point warning raises here), are flagged
    # and zero, and the simple columns keep their derivatives
    lam = np.array([[1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 3.0]])
    A = np.stack([np.diag(row) for row in lam])
    B = np.broadcast_to(np.eye(4), A.shape)
    M = np.arange(16.0).reshape(4, 4)
    A_p = np.broadcast_to(M + M.T, A.shape)
    V = np.broadcast_to(np.eye(4), A.shape)
    with np.errstate(all="raise"):
        d = eigen_derivatives((A, B), (A_p, 0 * B), lam, V)
    multiple = np.array([[True, True, False, False], [False, False, True, True]])
    np.testing.assert_array_equal(d.multiple, multiple)
    np.testing.assert_array_equal(d.failed, multiple)
    for row in range(2):
        assert not d.vectors[row][:, multiple[row]].any()
        assert np.isfinite(d.vectors[row]).all()
    # lambda' = v^T A' v for v = e_k and B' = 0
    want = np.diagonal(A_p, axis1=1, axis2=2)
    np.testing.assert_allclose(d.values, np.where(multiple, 0.0, want), rtol=1e-14)


def test_round_off_column_stops_before_the_cap():
    # the stretch scales the (1,0) mode's vector without turning it: both
    # r = lambda' B v - (A' - lambda B') v and G^T B' v vanish, so the whole
    # right-hand side of that column is round-off, and a stop relative to
    # each column's own right-hand side would end only on stagnation
    problem = make_problem(n=12, family="affine")
    t = 0.37
    pencil, lam_w, V_w = problem.solve(t, 6)
    derivative = problem.derivative_pencil(t)
    d = eigen_derivatives(
        pencil, derivative, lam_w, V_w, [0, 2], inverse=problem.projected_inverse(t)
    )
    (A, B), (A_p, B_p) = pencil, derivative
    V = V_w[:, [0, 2]]
    r = d.values * (B @ V) - A_p @ V + lam_w[[0, 2]] * (B_p @ V)
    rhs = np.vstack([r, problem.G.T @ (B_p @ V)])
    norms = np.linalg.norm(rhs, axis=0)
    assert norms[0] <= 1e-12 * norms[1]
    assert not d.failed.any()
    # the round-off column adds no iteration to those of the other
    alone = eigen_derivatives(pencil, derivative, lam_w, V_w, [2], inverse=problem.projected_inverse(t))
    assert 0 < d.iterations == alone.iterations < tracking.CG_MAX_ITERATIONS


def test_derivative_window_must_be_whole_without_a_factor():
    problem = make_problem(n=4, family="affine")
    pencil, lam_w, V_w = problem.solve(0.3, 4)
    with pytest.raises(ValueError, match="whole spectrum"):
        eigen_derivatives(pencil, problem.derivative_pencil(0.3), lam_w, V_w, [0])


def test_taylor_predict_trivial_cases(rng):
    v = rng.standard_normal(5)
    vp = rng.standard_normal(5)
    out_v, out_lam = taylor_predict(v, 2.0, vp, -3.0, 0.0)
    np.testing.assert_array_equal(out_v, v)
    assert out_lam == 2.0
    out_v, out_lam = taylor_predict(v, 2.0, 0 * vp, 0.0, 0.7)
    assert out_lam == 2.0
    np.testing.assert_array_equal(out_v, v)


def test_taylor_predict_second_order():
    problem = make_problem(n=4, family="affine")
    t = 0.3
    s = problem.system(t)
    sol = solve_gevp(s.A, s.B, 2)
    v, lam = sol.vectors[:, 0], sol.lambdas[0]
    _, lp = _slope(problem, t, sol, 0)
    errs = []
    for h in (0.1, 0.05, 0.025):
        _, lam_pred = taylor_predict(v, lam, 0 * v, lp, h)
        lam_true = solve_full(problem, t + h, 1).lambdas[0]
        errs.append(abs(lam_pred - lam_true))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_correlation_identity(rng):
    B = np.eye(6)
    V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    m = correlation_match(V, V, B)
    np.testing.assert_array_equal(m.perm, [0, 1, 2])
    np.testing.assert_allclose(m.rhos, 1.0, atol=1e-12)


def test_correlation_recovers_swap(rng):
    B = np.diag(rng.uniform(0.5, 2.0, 6))
    V = rng.standard_normal((6, 3))
    swapped = V[:, [1, 0, 2]]
    m = correlation_match(V, swapped, B)
    np.testing.assert_array_equal(m.perm, [1, 0, 2])
    np.testing.assert_allclose(m.rhos, 1.0, atol=1e-12)


def _seeding_ops(ops_kind, family):
    if ops_kind == "full":
        return make_problem(n=8, family=family)
    return _reduced_ops("cotree", family)


@pytest.mark.parametrize("ops_kind", ["full", "reduced"])
@pytest.mark.parametrize("family", ["affine", "bump"])
def test_seeded_clusters_are_the_limit_of_the_probe(ops_kind, family):
    # the probe's directions at t = delta approach the seeded ones at
    # O(delta), in the same member order, and the member that falls fastest
    # comes first
    ops = _seeding_ops(ops_kind, family)
    (_, B), lam0, V0 = ops.solve(0.0, 8)
    lam0, V0 = lam0[:8], V0[:, :8]
    A_p, B_p = derivative = ops.derivative_pencil(0.0)
    seeded = tracking._seed_degenerate_clusters(
        lam0, V0, derivative, tracking.DEFAULT_MULT_TOL
    )
    clusters = [idx for idx in eigenvalue_clusters(lam0) if idx.size > 1]
    assert len(clusters) >= 2
    for idx in clusters:
        S = seeded[:, idx]
        np.testing.assert_allclose(S.T @ (B @ S), np.eye(idx.size), atol=1e-12)
        slopes = np.einsum("ij,ij->j", S, A_p @ S - lam0[idx].mean() * (B_p @ S))
        assert np.all(np.diff(slopes) > 0)
    for delta in (1e-2, 1e-3):
        probe = probe_seeded_clusters(ops, lam0, V0, B, delta)
        for idx in clusters:
            overlap = seeded[:, idx].T @ (B @ probe[:, idx])
            assert np.array_equal(abs(overlap).argmax(axis=1), np.arange(idx.size))
            D = seeded[:, idx] - probe[:, idx] * np.sign(np.diag(overlap))
            assert np.sqrt(np.einsum("ij,ij->j", D, B @ D)).max() <= 0.5 * delta


@pytest.mark.parametrize("ops_kind", ["full", "reduced"])
def test_stationary_family_leaves_the_seed_unrotated(ops_kind):
    # A' = B' = 0 splits no cluster: the solver's vectors stay as they are.
    # The interpolant's derivative of a constant pencil is round-off, not
    # zero, so the reduced case takes the exact zero.
    ops = _seeding_ops(ops_kind, "identity")
    pencil, lam0, V0 = ops.solve(0.0, 8)
    derivative = ops.derivative_pencil(0.0)
    if ops_kind == "full":
        assert all(abs(M).max() == 0 for M in derivative)
    else:
        derivative = tuple(np.zeros_like(M) for M in pencil)
    assert any(idx.size > 1 for idx in eigenvalue_clusters(lam0))
    seeded = tracking._seed_degenerate_clusters(
        lam0, V0, derivative, tracking.DEFAULT_MULT_TOL
    )
    assert np.array_equal(seeded, V0)


def test_correlation_rotation_in_degenerate_plane(rng):
    # predictions rotated ten degrees inside a 2D eigenspace still match
    B = np.eye(8)
    Q = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    theta = np.deg2rad(10.0)
    R = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    pred = Q @ R
    m = correlation_match(pred, Q, B)
    assert m.rhos.min() >= np.cos(theta) - 1e-12
    assert sorted(m.perm) == [0, 1]


def test_correlation_needs_enough_candidates(rng):
    with pytest.raises(ValueError):
        correlation_match(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), np.eye(5))


def test_correlation_low_flag(rng):
    a = np.eye(4)[:, :1]
    b = np.eye(4)[:, 1:2]
    m = correlation_match(a, b, np.eye(4), rho_min=0.9)
    assert not m.ok


def test_track_identity_family():
    problem = make_problem(n=4, family="identity")
    trace = track(TrackingConfig(K=3, h=0.25, system="high-fidelity"), problem)
    assert trace.complete
    assert len(trace.crossings()) == 0
    first = trace.steps[0].lambdas
    for step in trace.steps:
        np.testing.assert_allclose(step.lambdas, first, rtol=1e-12)
        assert step.perm == (0, 1, 2)


def test_track_lands_exactly_on_one():
    problem = make_problem(n=4, family="affine")
    trace = track(TrackingConfig(K=3, h=0.3, system="high-fidelity"), problem)
    assert trace.steps[-1].t == 1.0
    assert trace.complete


def test_track_multiset_matches_sorted_solver_values():
    problem = make_problem(n=8, family="affine")
    trace = track(TrackingConfig(K=4, h=0.2, system="high-fidelity"), problem)
    for step in trace.steps:
        sol = solve_full(problem, step.t, 10)
        tracked = np.sort(step.lambdas)
        # tracked values are solver values (possibly beyond the first K)
        for lam in tracked:
            assert np.min(np.abs(sol.lambdas - lam)) <= 1e-9 * lam


def test_high_fidelity_tracking_builds_no_tree_cotree(monkeypatch):
    # only cotree snapshot coordinates need the tree map; the full-pencil
    # solve of a gram-schmidt problem must not build the partition
    def no_partition(mesh):
        raise AssertionError("tree-cotree partition built")

    monkeypatch.setattr("cavityrb.gauge.build_tree_cotree", no_partition)
    problem = make_problem(n=4, gauge="gram-schmidt")
    assert track(TrackingConfig(K=2, h=0.5), problem).complete


@pytest.mark.parametrize("system", ["high-fidelity"])
def test_track_widens_window_on_low_correlation(system):
    # without overtracked candidates, a tracked mode is overtaken between
    # t = 0.6 and 0.7: the window doubles and the solve takes more pairs
    problem = make_problem(n=8, family="affine")
    trace = track(TrackingConfig(K=2, h=0.1, overtrack=0, system=system), problem)
    assert trace.complete
    assert [s.window for s in trace.steps] == [2] * 7 + [4, 3, 3, 3]


def test_widened_window_reuses_the_projected_inverse(monkeypatch):
    # the widened window solves t = 0.7 twice; the second solve runs a
    # new Lanczos iteration on the factors the first one made
    problem = make_problem(n=8, family="affine")
    solved, factored = [], []
    solve, projected_inverse = problem.solve, gauge.ProjectedInverse

    def counting_solve(t, k):
        solved.append(t)
        return solve(t, k)

    def counting_factor(*args, **kwargs):
        factored.append(1)
        return projected_inverse(*args, **kwargs)

    monkeypatch.setattr(problem, "solve", counting_solve)
    monkeypatch.setattr(gauge, "ProjectedInverse", counting_factor)
    trace = track(TrackingConfig(K=2, h=0.1, overtrack=0), problem)
    assert trace.complete
    assert len(solved) == 12 and len(set(solved)) == 11
    assert len(factored) == len(set(solved))


def test_high_fidelity_track_factors_each_parameter_once(monkeypatch):
    # the derivatives reuse the projected inverse of the step's solve, and
    # the t = 0 clusters are seeded without a solve, so each parameter gets
    # one shifted factor of A - sigma B and one Gram factor of G^T B G
    problem = make_problem(n=8, family="affine")
    solved, calls, inside = [], [], []
    solve, projected_inverse = problem.solve, gauge.ProjectedInverse
    splu = scipy.sparse.linalg.splu

    def counting_solve(t, k):
        solved.append(t)
        return solve(t, k)

    def marked_factor(*args, **kwargs):
        inside.append(True)
        try:
            return projected_inverse(*args, **kwargs)
        finally:
            inside.pop()

    def counting_splu(M, *args, **kwargs):
        calls.append((bool(inside), M.shape))
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(problem, "solve", counting_solve)
    monkeypatch.setattr(gauge, "ProjectedInverse", marked_factor)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    trace = track(TrackingConfig(K=5, h=0.1), problem)
    assert trace.complete
    shapes = [(problem.n_grad,) * 2, (problem.n_curl,) * 2]
    assert calls == [(True, shape) for _ in set(solved) for shape in shapes]


def test_high_fidelity_track_leaves_the_cached_systems_as_it_found_them():
    problem = make_problem(n=4, family="affine")
    problem.system(0.0)
    before = set(problem._systems)
    assert track(TrackingConfig(K=2, h=0.25), problem).complete
    assert set(problem._systems) == before
    assert problem._inverse is None


def test_failed_residual_gate_falls_back_to_zero_order(monkeypatch):
    # no derivative meets a zero gate: every step predicts at zero order,
    # and the march still completes
    monkeypatch.setattr(tracking, "RESIDUAL_TOL", 0.0)
    trace = track(TrackingConfig(K=3, h=0.25), make_problem(n=8, family="affine"))
    assert trace.complete
    for step in trace.steps[1:]:
        assert "derivative-fallback" in step.flags and not step.dlambdas.any()
        assert step.derivative_iterations > 0


def test_track_records_the_derivative_iterations():
    trace = track(TrackingConfig(K=3, h=0.25), make_problem(n=8, family="bump"))
    assert trace.complete and trace.steps[0].derivative_iterations == 0
    assert all(
        0 < s.derivative_iterations < tracking.CG_MAX_ITERATIONS for s in trace.steps[1:]
    )


def test_track_halves_the_step_on_low_correlation():
    problem = make_problem(n=8, family="affine")
    trace = track(TrackingConfig(K=3, h=1.0, rho_min=0.99), problem)
    assert trace.complete
    assert any("step-halved" in s.flags for s in trace.steps)


def test_track_aborts_when_the_halvings_run_out():
    problem = make_problem(n=8, family="affine")
    config = TrackingConfig(K=3, h=1.0, rho_min=1.0, max_halvings=1)
    trace = track(config, problem)
    assert trace.status == "aborted-low-correlation" and not trace.complete
    assert len(trace.steps) == 1


def test_singular_derivative_falls_back_to_zero_order(monkeypatch):
    # the derivative fails for the highest tracked mode, the (1,1) mode,
    # which stays above 1.1 pi^2 while the others stay below pi^2
    exact = tracking.eigen_derivatives

    def failing(pencil, derivative, lam_w, V_w, modes, **kw):
        d = exact(pencil, derivative, lam_w, V_w, modes, **kw)
        high = lam_w[modes] > 1.06 * np.pi**2
        d.vectors[:, high], d.values[high] = 0.0, 0.0
        d.failed |= high
        return d

    monkeypatch.setattr(tracking, "eigen_derivatives", failing)
    trace = track(TrackingConfig(K=3, h=0.25), make_problem(n=8, family="affine"))
    assert trace.complete
    for step in trace.steps[1:]:
        assert "derivative-fallback" in step.flags and step.dlambdas[2] == 0.0
    assert np.all(trace.steps[-1].dlambdas[:2] != 0.0)


def test_split_of_a_chained_cluster_is_not_a_crossing():
    # consecutive gaps of 0.9e-6 chain three values into one cluster,
    # though the outer two lie 1.8e-6 apart
    prev = np.array([1.0, 1.0 + 0.9e-6, 1.0 + 1.8e-6])
    perm, crossing, _ = _rank_permutation(prev, prev[::-1].copy(), 1e-6)
    assert perm == (2, 1, 0) and not crossing
    _, crossing, _ = _rank_permutation(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 1e-6)
    assert crossing


@st.composite
def _spectra(draw, size=None):
    """Spectra in any order: simple values, exact ties, and near-ties that
    chain (relative steps of 0.9e-6 against delta = 1e-6) or break (3e-6)."""
    m = draw(st.integers(min_value=1, max_value=8)) if size is None else size
    base = draw(st.lists(st.sampled_from([1.0, 2.0, 9.0]), min_size=m, max_size=m))
    step = draw(st.lists(st.sampled_from([0.0, 0.0, 0.9e-6, 1.8e-6, 3e-6, 0.4]),
                         min_size=m, max_size=m))
    lam = np.array(base) * (1.0 + np.array(step))
    return lam[draw(st.permutations(range(m)))]


# unsorted: an exact tie at 1, a chained cluster at 2 and a simple 9
CHAINED = np.array([2.0 * (1 + 1.8e-6), 1.0, 2.0, 2.0 * (1 + 0.9e-6), 9.0, 1.0])


@given(_spectra())
@pytest.mark.parametrize("lam", [CHAINED, np.array([3.0]), np.array([2.0, 1.0, 9.0])])
def test_multiple_matches_the_cluster_oracle(lam, drawn):
    for spectrum in (lam, drawn):
        got = tracking._multiple(spectrum, 1e-6)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, multiple_by_clusters(spectrum, 1e-6))


@given(st.data())
def test_rank_permutation_matches_the_cluster_oracle(data):
    prev = data.draw(_spectra())
    cur = data.draw(_spectra(size=prev.size))
    got = _rank_permutation(prev, cur, 1e-6)
    want = rank_permutation_by_clusters(prev, cur, 1e-6)
    assert got == want
    assert all(type(i) is int for i in got[0] + got[2])


@given(st.data())
@pytest.mark.parametrize("lam", [CHAINED, np.array([3.0]), np.array([2.0, 1.0, 9.0])])
def test_cluster_aware_match_matches_the_cluster_oracle(lam, data):
    # bit for bit, so the score of a spectrum without a multiple eigenvalue
    # is the oracle's rho + 1e-6 rho on the individual correlations
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    for spectrum in (lam, data.draw(_spectra())):
        n, m = 12, spectrum.size
        M = rng.standard_normal((n, n))
        B = M @ M.T + n * np.eye(n)
        C = rng.standard_normal((n, m + data.draw(st.integers(0, 2))))
        P = C[:, :m] + 0.3 * rng.standard_normal((n, m))
        for rho_min in (None, 0.8):
            got = tracking._cluster_aware_match(P, spectrum, C, B, 1e-6, rho_min)
            want = cluster_aware_match_by_clusters(P, spectrum, C, B, 1e-6, rho_min)
            np.testing.assert_array_equal(got.perm, want.perm)
            assert got.rhos.tobytes() == want.rhos.tobytes() and got.ok == want.ok


@given(
    st.sampled_from(["full", "edge", "cotree"]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
def test_windowed_solve_matches_complete_dense_solve(ops_kind, family, t, data):
    if ops_kind == "full":
        problem = make_problem(n=4, family=family)
        ops = problem
    else:
        gauge = "tree-cotree" if ops_kind == "cotree" else "gram-schmidt"
        problem = make_problem(n=4, family=family, gauge=gauge)
        rows = problem.n_curl - problem.n_grad if ops_kind == "cotree" else problem.n_curl
        Z = np.random.default_rng(3).standard_normal((rows, 7))
        ops = pencil_interpolant(problem, Z)
    k = data.draw(st.integers(min_value=1, max_value=ops.size))
    pencil, lam, V = ops.solve(t, k)
    if ops_kind == "full":
        ref = solve_gevp(*pencil, ops.size)
        assert ref.n_discarded_null == problem.n_grad
        lam_all, V_all = ref.lambdas, ref.vectors
    else:
        lam_all, V_all = solve_dense_gevp(*pencil)
    assert lam_all.size == ops.size
    # the problem solves the k pairs asked for, the interpolant its whole
    # spectrum
    assert lam.size == (k if ops_kind == "full" else ops.size) == V.shape[1]
    lam, V = lam[:k], V[:, :k]
    np.testing.assert_allclose(lam, lam_all[:k], rtol=1e-12)
    if ops_kind == "full":
        # the sparse solve against the dense one: a multiple eigenspace, or
        # a pair split just outside one cluster (t near 0), may be rotated
        distance = eigenspace_distance(lam_all, V_all, V, pencil[1], delta=SPLIT_GAP)
        assert distance <= 1e-12 * abs(V_all).max()
    else:
        np.testing.assert_allclose(V, V_all[:, :k], rtol=0, atol=1e-12 * abs(V_all).max())


def test_dropped_reduced_ops_is_freed_without_the_cycle_collector():
    # the interpolant is the reduced ops: nothing it caches (barycentric
    # weights, triangle indices) may refer back to it, or every dropped
    # interpolant waits for gc.collect()
    problem = make_problem(n=4, family="affine")
    Z = problem.snapshot_solve(0.0, 5)[1]
    ops = pencil_interpolant(problem, Z)
    ops.solve(0.3, 2)
    ops.derivative_pencil(0.3)
    ref = weakref.ref(ops)
    gc.disable()
    try:
        del ops
        assert ref() is None
    finally:
        gc.enable()


def test_classify_endpoint_table_and_errors():
    table = analytic_rectangle_table(2.5, 6)
    assert table[0][0] == "(1,0)"
    np.testing.assert_allclose(table[0][1], np.pi**2 / 6.25)
    trace = TrackingTrace(status="aborted-low-correlation")
    with pytest.raises(NumericalError):
        classify_endpoint(trace, table)


def test_classify_degenerate_table_entries():
    # two tracked modes on a degenerate analytic pair get both labels
    steps = [
        TrackStep(
            t=1.0,
            lambdas=np.array([4.0, 4.0]),
            ranks=np.arange(2),
            perm=(0, 1),
            rhos=np.ones(2),
            dlambdas=np.zeros(2),
        )
    ]
    trace = TrackingTrace(steps=steps, status="completed")
    labels = classify_endpoint(trace, [("a", 4.0), ("b", 4.0), ("c", 9.0)])
    assert sorted(labels) == ["a", "b"]


def test_classify_mismatch_marked_unclassified():
    steps = [
        TrackStep(
            t=1.0,
            lambdas=np.array([40.0]),
            ranks=np.arange(1),
            perm=(0,),
            rhos=np.ones(1),
            dlambdas=np.zeros(1),
        )
    ]
    trace = TrackingTrace(steps=steps, status="completed")
    labels = classify_endpoint(trace, [("a", 4.0), ("b", 9.0)])
    assert labels[0].startswith("unclassified")


def test_track_config_validation():
    with pytest.raises(ValueError):
        TrackingConfig(K=0, h=0.1)
    with pytest.raises(ValueError):
        TrackingConfig(K=2, h=0.0)
    with pytest.raises(ValueError):
        TrackingConfig(K=2, h=0.1, rho_min=1.5)
    with pytest.raises(ValueError):
        TrackingConfig(K=2, h=0.1, system="bogus")
    # a window below K left part of the assignment uninitialized
    with pytest.raises(ValueError, match="overtrack"):
        TrackingConfig(K=3, h=0.25, system="high-fidelity", overtrack=-2)
    # NaN fails every range check; with delta_mult = nan each eigenvalue
    # was its own cluster
    for change in (
        {"delta_mult": np.nan}, {"delta_mult": -1.0}, {"max_halvings": -1},
        {"h": np.nan}, {"rho_min": np.nan},
    ):
        (key,) = change
        with pytest.raises(ConfigError, match=f"^{key} "):
            TrackingConfig(**{"K": 2, "h": 0.1, **change})


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def config_bases():
    """Config, problem and built basis of each shipped config."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("bench_n24", "affine_n16", "sinebump_n12"):
            cfg = load_config(CONFIGS / f"{name}.cfg")
            problem = bench.build_problem(cfg)
            out[name] = cfg, problem, bench.build_basis(problem, cfg)[0]
    return out


def _assert_same_march(got, want, exact=False):
    """Every step's parameter, permutation, flags, window, ranks and
    derivative iterations identical; lambda within 1e-11 relative, rho
    within 1e-12 and the derivatives within 1e-8 relative, or every bit."""
    assert got.status == want.status and len(got.steps) == len(want.steps)
    for s, r in zip(got.steps, want.steps):
        assert (s.t, s.perm, s.flags, s.window, s.derivative_iterations) == (
            r.t, r.perm, r.flags, r.window, r.derivative_iterations
        )
        np.testing.assert_array_equal(s.ranks, r.ranks)
        if exact:
            for f in ("lambdas", "rhos", "dlambdas"):
                assert getattr(s, f).tobytes() == getattr(r, f).tobytes()
            continue
        assert np.all(abs(s.lambdas - r.lambdas) <= 1e-11 * abs(r.lambdas))
        np.testing.assert_allclose(s.rhos, r.rhos, rtol=0, atol=1e-12)
        assert np.all(abs(s.dlambdas - r.dlambdas) <= 1e-8 * abs(r.dlambdas))


@pytest.mark.parametrize("name, change, halved", [
    ("bench_n24", {}, 0),
    ("affine_n16", {}, 0),
    ("sinebump_n12", {}, 0),
    ("sinebump_n12", {"rho_min": 0.999}, 1),
    ("sinebump_n12", {"rho_min": 0.9995, "h": 0.25}, 2),
    ("sinebump_n12", {"rho_min": 0.9999, "h": 0.25}, 0),  # aborts
])
def test_stacked_march_matches_the_per_parameter_oracle(config_bases, name, change, halved):
    # the reduced march on its stacks against the march that evaluates,
    # solves and differentiates one parameter at a time; a halved step is
    # a stack of one and re-stacks the rest of the grid
    cfg, problem, basis = config_bases[name]
    config = dataclasses.replace(cfg.tracking_config("reduced"), **change)
    got = track(config, problem, basis=basis)
    want = per_parameter_track(config, problem, basis=basis)
    _assert_same_march(got, want)
    assert sum("step-halved" in s.flags for s in got.steps) == halved
    assert got.complete == (change.get("rho_min") != 0.9999)


@pytest.mark.parametrize("family", ["affine", "bump"])
@pytest.mark.parametrize("change", [{}, {"h": 1.0, "rho_min": 0.99}])
def test_high_fidelity_march_matches_the_per_parameter_oracle_bit_for_bit(family, change):
    problem = make_problem(n=8, family=family)
    config = TrackingConfig(**{"K": 3, "h": 0.25, **change})
    got = track(config, problem)
    _assert_same_march(got, per_parameter_track(config, problem), exact=True)
    if change:
        assert any("step-halved" in s.flags for s in got.steps)


@pytest.mark.parametrize("system", ["high-fidelity", "reduced"])
def test_one_classification_per_solved_window(monkeypatch, config_bases, system):
    # the march classifies each parameter's window once, and the derivative
    # rule reads that mask: the high-fidelity ops one window per step, the
    # reduced ops every spectrum of the stack in one call
    shapes = []
    multiple = tracking._multiple

    def counted(lam, delta):
        shapes.append(np.shape(lam))
        return multiple(lam, delta)

    monkeypatch.setattr(tracking, "_multiple", counted)
    if system == "reduced":
        cfg, problem, basis = config_bases["bench_n24"]
        trace = track(cfg.tracking_config("reduced"), problem, basis=basis)
        assert shapes == [(len(trace.steps), basis.size)]
    else:
        trace = track(TrackingConfig(K=3, h=0.25), make_problem(n=8, family="bump"))
        # every parameter but the last is stepped from
        assert len(shapes) == len(trace.steps) - 1
        assert all(len(shape) == 1 for shape in shapes)
    assert trace.complete and not any("step-halved" in s.flags for s in trace.steps)


def test_reduced_track_keeps_no_stack_between_calls(monkeypatch, config_bases):
    # the online-affine benchmark tracks one basis over and over: each call
    # evaluates its own stack, and nothing of it stays on the interpolant
    cfg, problem, basis = config_bases["bench_n24"]
    interpolant = basis.interpolant
    keys = set(vars(interpolant))
    stacks = []
    evaluate = online.PencilInterpolant.evaluate

    def counted(self, ts):
        stacks.append(list(ts))
        return evaluate(self, ts)

    monkeypatch.setattr(online.PencilInterpolant, "evaluate", counted)
    config = cfg.tracking_config("reduced")
    first = track(config, problem, basis=basis)
    second = track(config, problem, basis=basis)
    visited = [s.t for s in first.steps]
    assert stacks == [visited, visited]
    _assert_same_march(second, first, exact=True)
    assert set(vars(interpolant)) - keys <= {"barycentric_weights", "unpack"}
    assert not any(isinstance(v, np.ndarray) and v.ndim == 4 for v in vars(interpolant).values())


def test_reduced_track_raises_no_floating_point_warning(config_bases):
    # the whole-stack rule masks the clustered columns before its modal
    # division, so no division by a zero gap ever happens
    cfg, problem, basis = config_bases["bench_n24"]
    with np.errstate(all="raise"):
        trace = track(cfg.tracking_config("reduced"), problem, basis=basis)
    assert trace.complete
    assert any("derivative-fallback" in s.flags for s in trace.steps)
