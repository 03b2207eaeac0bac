"""Exact parameter derivatives of the condensed and reduced pencils against
central-difference oracles, over t in [0, 1] and both mapping families."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import assemble
from cavityrb.gauge import condensed_standard_form, condensed_standard_form_derivative

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
    s = problem.system(t)
    factor = problem.mass_factor(t)
    _, Q, R = condensed_standard_form(s.A, s.B, tc, factor)
    A_p, B_p = problem.derivative_pencil(t)
    C_p = condensed_standard_form_derivative(s.A, A_p, B_p, tc, Q, R, factor)

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
