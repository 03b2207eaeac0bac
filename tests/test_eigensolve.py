import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import (
    assemble,
    b_orthonormalize,
    eigenvalue_clusters,
    identity_map,
    affine_stretch,
)
from cavityrb.eigensolve import solve_dense_gevp
from cavityrb.errors import NumericalError

from conftest import clusters_loop, count_null, mesh, solve_gevp


def test_identity_pencil():
    eye = np.eye(4)
    sol = solve_gevp(eye, eye, 3)
    np.testing.assert_allclose(sol.lambdas, [1.0, 1.0, 1.0])
    V = sol.vectors
    np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-14)


def test_square_cavity_spectrum():
    s = assemble(mesh(16), identity_map(), 0.0)
    sol = solve_gevp(s.A, s.B, 5)
    exact = np.pi**2 * np.array([1, 1, 2, 4, 4])
    assert (np.abs(sol.lambdas - exact) / exact < 0.02).all()


def test_null_space_count_matches_interior_vertices():
    s = assemble(mesh(2), identity_map(), 0.0)
    sol = solve_gevp(s.A, s.B, 3)
    assert sol.n_discarded_null == 1
    assert count_null(s.A, s.B) == 1


def test_solve_dense_gevp_leaves_its_inputs_intact():
    # sparse input is densified into scratch arrays that LAPACK may
    # overwrite; dense input (a cached reduced pencil) must survive the call,
    # also in the Fortran order LAPACK could write into without a copy
    s = assemble(mesh(4), affine_stretch(2.5), 0.4)
    A, B = np.asfortranarray(s.A.toarray()), np.asfortranarray(s.B.toarray())
    A0, B0, data0 = A.copy(), B.copy(), (s.A.data.copy(), s.B.data.copy())
    lam_dense, V_dense = solve_dense_gevp(A, B)
    lam_sparse, V_sparse = solve_dense_gevp(s.A, s.B)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(B, B0)
    np.testing.assert_array_equal(s.A.data, data0[0])
    np.testing.assert_array_equal(s.B.data, data0[1])
    np.testing.assert_array_equal(lam_sparse, lam_dense)
    np.testing.assert_array_equal(V_sparse, V_dense)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_null_count_along_parameter(t):
    s = assemble(mesh(4), affine_stretch(2.5), t)
    assert count_null(s.A, s.B) == s.n_grad


def test_vectors_b_orthonormal_with_small_residuals():
    s = assemble(mesh(8), affine_stretch(2.5), 0.6)
    sol = solve_gevp(s.A, s.B, 6)
    V = sol.vectors
    gram = V.T @ (s.B @ V)
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
    assert sol.residuals.max() < 1e-10


def test_repeated_solve_is_deterministic():
    s = assemble(mesh(4), affine_stretch(2.5), 0.3)
    a = solve_gevp(s.A, s.B, 4)
    b = solve_gevp(s.A, s.B, 4)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)


def test_too_many_requested():
    s = assemble(mesh(1), identity_map(), 0.0)
    with pytest.raises(NumericalError):
        solve_gevp(s.A, s.B, 2)


def test_indefinite_mass_rejected():
    A = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NumericalError):
        solve_gevp(A, B, 1)


def test_frequencies():
    sol = solve_gevp(np.diag([4.0, 9.0]), np.eye(2), 2)
    np.testing.assert_allclose(sol.frequencies, np.array([2.0, 3.0]) / (2 * np.pi))
    np.testing.assert_allclose(sol.frequencies, np.sqrt(sol.lambdas) / (2 * np.pi))


def test_b_orthonormalize_drops_dependent(rng):
    B = np.eye(5)
    v = rng.standard_normal(5)
    V = np.column_stack([v, 2.0 * v, rng.standard_normal(5)])
    Q, kept = b_orthonormalize(V, B)
    assert Q.shape[1] == 2
    assert kept == [0, 2]
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)


def test_b_orthonormalize_against(rng):
    B = np.diag(rng.uniform(0.5, 2.0, 6))
    base, _ = b_orthonormalize(rng.standard_normal((6, 2)), B)
    Q, _ = b_orthonormalize(rng.standard_normal((6, 3)), B, against=base)
    np.testing.assert_allclose(base.T @ (B @ Q), 0.0, atol=1e-12)


def test_eigenvalue_clusters():
    lam = np.array([1.0, 1.0 + 1e-9, 3.0, 3.0000001, 9.0])
    groups = eigenvalue_clusters(lam, 1e-6)
    assert [list(g) for g in groups] == [[0, 1], [2, 3], [4]]


_GAPS = st.lists(
    st.sampled_from([0.0, 1e-12, 5e-7, 1e-6, 2e-6, 1e-3, 0.5, 3.0]),
    min_size=0, max_size=40,
)


@given(
    gaps=_GAPS,
    start=st.floats(-1.0, 10.0),
    delta=st.sampled_from([1e-6, 1e-3]),
)
def test_clusters_match_loop_oracle(gaps, start, delta):
    lam = start + np.cumsum([0.0] + gaps)
    expected = clusters_loop(lam, delta)
    got = eigenvalue_clusters(lam, delta)
    assert [g.tolist() for g in got] == [g.tolist() for g in expected]
    assert all(g.dtype == e.dtype for g, e in zip(got, expected))


@given(
    gaps=_GAPS,
    start=st.floats(-1.0, 10.0),
    delta=st.sampled_from([1e-6, 1e-3]),
    data=st.data(),
)
def test_clusters_of_shuffled_spectrum_match_sorted_oracle(gaps, start, delta, data):
    # shuffled[i] = lam[perm[i]]: the clusters of the shuffled spectrum are
    # the oracle's clusters of the sorted copy, mapped back through perm
    lam = start + np.cumsum([0.0] + gaps)
    perm = np.array(data.draw(st.permutations(range(lam.size))), dtype=int)
    shuffled = lam[perm]
    got = eigenvalue_clusters(shuffled, delta)
    inverse = np.argsort(perm)
    expected = [sorted(inverse[g].tolist()) for g in clusters_loop(lam, delta)]
    assert [sorted(g.tolist()) for g in got] == expected
    for g in got:
        # value order, equal values in index order
        keys = list(zip(shuffled[g].tolist(), g.tolist()))
        assert keys == sorted(keys)


def test_eigenvalue_clusters_of_empty_spectrum():
    assert eigenvalue_clusters(np.array([])) == []
