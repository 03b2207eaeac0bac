"""Parameter derivatives of the interpolated reduced pencils, on a complete
cotree basis and on random bases, against central differences of the exact
reduced pencil, over t in [0, 1] and both mapping families."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityrb.online import pencil_interpolant

from conftest import central_difference, make_problem

H = 1e-4
FAMILIES = st.sampled_from(["affine", "bump"])
PARAMS = st.floats(min_value=0.0, max_value=1.0)


def _rel_err(exact, oracle):
    return abs(exact - oracle).max() / abs(exact).max()


_OPS = {}


def _cotree_ops(kind):
    """Problem and interpolant over the complete cotree basis (all
    n_curl - n_grad eigen-coordinates at t_ref), whose pencil is congruent
    to the condensed pencil at every t; built once per family."""
    if kind not in _OPS:
        problem = make_problem(n=4, family=kind)
        n_cot = problem.n_curl - problem.n_grad
        Z = problem.snapshot_solve(problem.t_ref, n_cot)[1]
        _OPS[kind] = problem, Z, pencil_interpolant(problem, Z)
    return _OPS[kind]


def _random_ops(space, kind):
    """Problem, random 6-column basis and its interpolant; built once."""
    if (space, kind) not in _OPS:
        gauge = "tree-cotree" if space == "cotree" else "gram-schmidt"
        problem = make_problem(n=4, family=kind, gauge=gauge)
        rows = problem.n_curl - problem.n_grad if space == "cotree" else problem.n_curl
        Z = np.random.default_rng(5).standard_normal((rows, 6))
        _OPS[space, kind] = problem, Z, pencil_interpolant(problem, Z)
    return _OPS[space, kind]


@given(FAMILIES, PARAMS)
def test_standard_form_derivative_matches_central_differences(kind, t):
    problem, Z, ops = _cotree_ops(kind)
    exact = ops.derivative_pencil(t)
    oracle = central_difference(
        lambda tt: problem.reduced_pencil(Z, tt, space="cotree")[:2], t, H
    )
    for e, o in zip(exact, oracle):
        assert _rel_err(e, o) < 1e-6


@given(st.sampled_from(["edge", "cotree"]), FAMILIES, PARAMS)
def test_reduced_derivative_matches_central_differences(space, kind, t):
    problem, Z, ops = _random_ops(space, kind)
    exact = ops.derivative_pencil(t)
    oracle = central_difference(
        lambda tt: problem.reduced_pencil(Z, tt, space=space)[:2], t, H
    )
    for e, o in zip(exact, oracle):
        assert _rel_err(e, o) < 1e-6


@given(FAMILIES, PARAMS)
def test_standard_form_eigenvalue_derivatives_match_full_pencil(kind, t):
    # lambda' = v^T (A' - lambda B') v for B-normalized full-space v does not
    # depend on the reduced coordinates, so it checks (A_red', B_red') far
    # below the difference step's truncation error
    problem, Z, ops = _cotree_ops(kind)
    _, lam, Y = ops.solve(t, 4)
    dA, dB = ops.derivative_pencil(t)
    V = problem.reduced_pencil(Z, t, space="cotree")[2] @ Y[:, :4]
    A_p, B_p = problem.derivative_pencil(t)
    for j in range(4):
        v, y = V[:, j], Y[:, j]
        oracle = v @ (A_p @ v) - lam[j] * (v @ (B_p @ v))
        assert abs(y @ (dA - lam[j] * dB) @ y - oracle) <= 1e-9 * abs(lam[j])
