"""Exact parameter derivatives of the condensed and reduced pencils against
central-difference oracles, over t in [0, 1] and both mapping families."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import assemble
from cavityrb.gauge import condensed_standard_form
from cavityrb.tracking import _CotreeOps

from conftest import central_difference, make_problem

H = 1e-4
FAMILIES = st.sampled_from(["affine", "bump"])
PARAMS = st.floats(min_value=0.0, max_value=1.0)


def _rel_err(exact, oracle):
    return abs(exact - oracle).max() / abs(exact).max()


@given(FAMILIES, PARAMS)
def test_standard_form_derivative_matches_central_differences(kind, t):
    problem = make_problem(n=4, family=kind)
    tc = problem.tree_cotree
    C_p, zero = _CotreeOps(problem, K=3).derivative_pencil(t)
    assert not zero.any()

    def standard_form(tt):
        st_ = assemble(problem.mesh, problem.family, tt)
        return condensed_standard_form(st_.A, st_.B, tc)[:1]

    (oracle,) = central_difference(standard_form, t, H)
    assert _rel_err(C_p, oracle) < 1e-6


@given(st.sampled_from(["edge", "cotree"]), FAMILIES, PARAMS)
def test_reduced_derivative_matches_central_differences(space, kind, t):
    gauge = "tree-cotree" if space == "cotree" else "gram-schmidt"
    problem = make_problem(n=4, family=kind, gauge=gauge)
    rows = problem.n_curl - problem.n_grad if space == "cotree" else problem.n_curl
    Z = np.random.default_rng(5).standard_normal((rows, 6))
    _, _, U = problem.reduced_pencil(Z, t, space=space)
    exact = problem.reduced_derivative(Z, t, U, space=space)
    oracle = central_difference(
        lambda tt: problem.reduced_pencil(Z, tt, space=space)[:2], t, H
    )
    for e, o in zip(exact, oracle):
        assert _rel_err(e, o) < 1e-6


@given(FAMILIES, PARAMS)
def test_standard_form_eigenvalue_derivatives_match_full_pencil(kind, t):
    # lambda' = v^T (A' - lambda B') v for B-normalized full-space v does not
    # depend on the cotree frame, so it checks C' far below the difference
    # step's truncation error
    problem = make_problem(n=4, family=kind)
    ops = _CotreeOps(problem, K=3)
    lam, Y = np.linalg.eigh(ops.pencil(t)[0])
    C_p, _ = ops.derivative_pencil(t)
    V = ops._frame(t)[1] @ Y[:, :4]
    A_p, B_p = problem.derivative_pencil(t)
    for j in range(4):
        v = V[:, j]
        oracle = v @ (A_p @ v) - lam[j] * (v @ (B_p @ v))
        assert abs(Y[:, j] @ C_p @ Y[:, j] - oracle) <= 1e-9 * abs(lam[j])
