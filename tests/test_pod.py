import numpy as np
import pytest

from cavityrb import (
    collect_snapshots,
    pod_basis,
    reduce_system,
)
from cavityrb.errors import RankDeficiencyError

from conftest import (
    eigenspace_distance,
    make_problem,
    pod_clamped,
    solve_full,
    solve_gevp,
)


def test_single_snapshot_basis(rng):
    B = np.diag(rng.uniform(0.5, 2.0, 6))
    y = rng.standard_normal(6)
    basis = pod_basis(y[:, None], B, 1)
    z = basis.Z[:, 0]
    np.testing.assert_allclose(z @ (B @ z), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.abs(z), np.abs(y) / np.sqrt(y @ (B @ y)), rtol=1e-10)


def test_duplicate_columns_are_rank_one(rng):
    B = np.eye(5)
    y = rng.standard_normal(5)
    Y = np.column_stack([y, y])
    basis = pod_basis(Y, B, 1)
    assert basis.size == 1
    with pytest.raises(RankDeficiencyError) as err:
        pod_basis(Y, B, 2)
    assert err.value.achievable == 1


def test_full_rank_snapshot_span_preserved(rng):
    n, m = 40, 20
    B = np.diag(rng.uniform(0.5, 2.0, n))
    Y = rng.standard_normal((n, m))
    basis = pod_basis(Y, B, m)
    Z = basis.Z
    np.testing.assert_allclose(Z.T @ (B @ Z), np.eye(m), atol=1e-10)
    for j in range(m):
        y = Y[:, j]
        res = y - Z @ (Z.T @ (B @ y))
        assert np.sqrt(res @ (B @ res)) <= 1e-10 * np.sqrt(y @ (B @ y))


def test_gram_eigenvalues_sorted_descending(rng):
    # leading modes carry the large snapshot energy
    B = np.eye(8)
    base = rng.standard_normal(8)
    Y = np.column_stack([10.0 * base, rng.standard_normal(8)])
    basis = pod_basis(Y, B, 2)
    lead = basis.Z[:, 0]
    corr = abs(lead @ base) / np.linalg.norm(base)
    assert corr > 0.95


def test_rank_request_exceeding_columns():
    Y = np.ones((4, 2))
    with pytest.raises(RankDeficiencyError) as err:
        pod_basis(Y, np.eye(4), 3)
    # the achievable size is the numerical rank, not the column count
    assert err.value.achievable == np.linalg.matrix_rank(Y) == 1


def test_collect_snapshot_counts(quiet_warnings):
    problem = make_problem(n=4, family="affine", gauge="none")
    snaps = collect_snapshots(problem, np.linspace(0, 1, 4), 3)
    assert snaps.Y.shape[1] == 12
    assert len(snaps.provenance) == 12
    assert snaps.provenance[0][:2] == (0.0, 0)


def test_snapshots_vary_across_parameters(quiet_warnings):
    problem = make_problem(n=4, family="affine", gauge="none")
    snaps = collect_snapshots(problem, [0.0, 1.0], 3)
    a = snaps.Y[:, :3]
    b = snaps.Y[:, 3:]
    # principal angles between the two snapshot spans are nonzero
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    assert s.min() < 1 - 1e-6


def test_single_parameter_snapshots_match_solver(quiet_warnings):
    problem = make_problem(n=4, family="affine", gauge="none")
    snaps = collect_snapshots(problem, [0.0], 3)
    # the unit square has double eigenvalues at t = 0: compare eigenspaces
    sol = solve_full(problem, 0.0, problem.size)
    B = problem.system(0.0).B
    assert eigenspace_distance(sol.lambdas, sol.vectors, snaps.Y, B) <= 1e-12


def test_reduce_identity_basis():
    problem = make_problem(n=2, family="identity")
    s = problem.system(0.0)
    Z = np.eye(s.n_curl)
    A_red, B_red = reduce_system(Z, s.A, s.B)
    np.testing.assert_allclose(A_red, s.A.toarray(), atol=1e-14)
    np.testing.assert_allclose(B_red, s.B.toarray(), atol=1e-14)


def test_reduce_single_eigenvector_is_rayleigh_quotient():
    problem = make_problem(n=4, family="identity")
    s = problem.system(0.0)
    sol = solve_gevp(s.A, s.B, 1)
    Z = sol.vectors
    A_red, B_red = reduce_system(Z, s.A, s.B)
    np.testing.assert_allclose(A_red[0, 0] / B_red[0, 0], sol.lambdas[0], rtol=1e-12)


def test_reduce_dimension_mismatch():
    problem = make_problem(n=2, family="identity")
    s = problem.system(0.0)
    with pytest.raises(ValueError):
        reduce_system(np.ones((3, 2)), s.A, s.B)


def test_reduced_mass_identity_at_reference(quiet_warnings):
    problem = make_problem(n=4, family="affine", gauge="none")
    snaps = collect_snapshots(problem, np.linspace(0, 1, 3), 3)
    basis = pod_clamped(snaps.Y, problem.b_ref, 6)
    s0 = problem.system(0.0)
    _, B_red = reduce_system(basis.Z, s0.A, s0.B)
    np.testing.assert_allclose(B_red, np.eye(basis.size), atol=1e-10)


def test_upscale_roundtrip(quiet_warnings):
    problem = make_problem(n=4, family="affine", gauge="none")
    snaps = collect_snapshots(problem, np.linspace(0, 1, 3), 3)
    basis = pod_clamped(snaps.Y, problem.b_ref, 5)
    v_red = np.linspace(-1, 1, basis.size)
    v = basis.Z @ v_red
    back = basis.Z.T @ (problem.b_ref @ v)
    np.testing.assert_allclose(back, v_red, atol=1e-10)


def test_reduced_eigenvalues_are_upper_bounds(quiet_warnings):
    from cavityrb.eigensolve import solve_dense_gevp

    problem = make_problem(n=4, family="affine", gauge="tree-cotree")
    snaps = collect_snapshots(problem, np.linspace(0, 1, 4), 4)
    basis = pod_clamped(
        snaps.Y, problem.basis_metric, 8, space=problem.basis_space
    )
    for t in (0.2, 0.9):
        A_red, B_red, _ = problem.reduced_pencil(basis.Z, t)
        lam_red, _ = solve_dense_gevp(A_red, B_red)
        truth = solve_full(problem, t, 4).lambdas
        assert (lam_red[:4] >= truth * (1 - 1e-8)).all()
