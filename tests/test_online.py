"""The Chebyshev-interpolated reduced pencil: exact reduced pencils and the
chain-rule derivative as oracles, over random t, edge and cotree bases and
both mapping families; and reduced tracking that never touches the mesh."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import cavityrb.online as online
import cavityrb.problem as problem_mod
import cavityrb.tracking as tracking_mod
from cavityrb import TrackingConfig, track
from cavityrb.bench import build_basis, build_problem
from cavityrb.config import RunConfig
from cavityrb.eigensolve import solve_dense_gevp
from cavityrb.errors import ConfigError, NumericalError
from cavityrb.online import lobatto_nodes, pencil_interpolant
from cavityrb.pod import ReducedBasis

from conftest import make_problem, reduced_derivative

SPACES = st.sampled_from(["edge", "cotree"])
FAMILIES = st.sampled_from(["affine", "bump"])
PARAMS = st.floats(min_value=0.0, max_value=1.0)

_CASES = {}


def _case(space, kind):
    """Problem, random 6-column basis and its interpolant; built once."""
    if (space, kind) not in _CASES:
        gauge = "tree-cotree" if space == "cotree" else "gram-schmidt"
        problem = make_problem(n=4, family=kind, gauge=gauge)
        rows = problem.n_curl - problem.n_grad if space == "cotree" else problem.n_curl
        Z = np.random.default_rng(11).standard_normal((rows, 6))
        _CASES[space, kind] = problem, Z, pencil_interpolant(problem, Z)
    return _CASES[space, kind]


def _rel_err(got, want):
    return max(abs(g - w).max() / abs(w).max() for g, w in zip(got, want))


@given(SPACES, FAMILIES, PARAMS)
def test_interpolated_pencil_matches_exact_reduced_pencil(space, kind, t):
    problem, Z, interp = _case(space, kind)
    exact = problem.reduced_pencil(Z, t, space=space)[:2]
    assert _rel_err(interp.pencil(t), exact) < 1e-12


@given(SPACES, FAMILIES, PARAMS)
def test_interpolated_derivative_matches_chain_rule(space, kind, t):
    problem, Z, interp = _case(space, kind)
    oracle = reduced_derivative(problem, Z, space, t)
    assert _rel_err(interp.derivative_pencil(t), oracle) < 1e-9


@given(SPACES, FAMILIES, st.lists(PARAMS, min_size=1, max_size=5))
def test_stacked_evaluation_matches_exact_pencils_and_chain_rule(space, kind, ts):
    # every row of one stacked product against the exact reduced pencil and
    # the chain-rule derivative at its parameter
    problem, Z, interp = _case(space, kind)
    pencils = interp.pencils(ts)
    assert pencils.shape == (len(ts), 4, interp.size, interp.size)
    for row, t in zip(pencils, ts):
        assert _rel_err(row[:2], problem.reduced_pencil(Z, t, space=space)[:2]) < 1e-12
        assert _rel_err(row[2:], reduced_derivative(problem, Z, space, t)) < 1e-9


@given(SPACES, FAMILIES, st.lists(PARAMS, min_size=1, max_size=5))
def test_stacked_dense_solve_is_the_per_matrix_solve_bit_for_bit(space, kind, ts):
    # one solve_dense_gevp call on a stack makes the LAPACK call of each
    # matrix alone: the same bits, also for a stack with two leading axes
    _, _, interp = _case(space, kind)
    pencils, lam, V = interp.evaluate(ts)
    assert lam.shape == (len(ts), interp.size) and V.shape == (len(ts),) + (interp.size,) * 2
    for i in range(len(ts)):
        one_lam, one_V = scipy.linalg.eigh(pencils[i, 0], pencils[i, 1])
        assert one_lam.tobytes() == lam[i].tobytes() and one_V.tobytes() == V[i].tobytes()
    twice = solve_dense_gevp(*(np.stack([pencils[:, j]] * 2) for j in (0, 1)))
    assert all(x.tobytes() == np.stack([y, y]).tobytes() for x, y in zip(twice, (lam, V)))


@pytest.mark.parametrize("offset", [0.0, 1e-15, -1e-13, 1e-9])
def test_evaluation_at_and_next_to_a_node(offset):
    # at a node the interpolant returns the stored values, and the
    # derivative weights stay accurate arbitrarily close to one
    problem, Z, interp = _case("cotree", "bump")
    t = float(interp.nodes[5]) + offset
    if offset == 0.0:
        exact = problem.reduced_pencil(Z, t, space="cotree")[:2]
        np.testing.assert_array_equal(interp.pencil(t), exact)
    oracle = reduced_derivative(problem, Z, "cotree", t)
    assert _rel_err(interp.derivative_pencil(t), oracle) < 1e-9


def test_lobatto_nodes_are_nested_and_symmetric():
    coarse, fine = lobatto_nodes(16), lobatto_nodes(32)
    np.testing.assert_array_equal(fine[::2], coarse)
    assert coarse[0] == 0.0 and coarse[8] == 0.5 and coarse[-1] == 1.0
    assert np.all(np.diff(fine) > 0)


def test_degree_doubles_until_the_tail_decays():
    _, _, interp = _case("cotree", "affine")
    assert interp.m in (8, 16, 32, 64, 128)
    assert interp.tail <= online.COEFF_TAIL_TOL
    assert online.coefficient_tail(interp.values) == interp.tail


def test_unresolved_pencil_is_numerical_error(monkeypatch):
    monkeypatch.setattr(online, "COEFF_TAIL_TOL", 0.0)
    problem = make_problem(n=2, family="bump")
    Z = np.eye(problem.n_curl - problem.n_grad)[:, :2]
    with pytest.raises(NumericalError, match="129 Chebyshev nodes"):
        pencil_interpolant(problem, Z)


@pytest.fixture(scope="module")
def built():
    """A problem and the basis the offline build made for it, with its
    interpolant."""
    cfg = RunConfig(
        mesh_n=4, K=3, tau=1, N_init=6, N_pod=4, N_train=8, tol=1e-6,
        N_max=20, track_h=0.25,
    )
    problem = build_problem(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis, _, _ = build_basis(problem, cfg)
    assert basis.interpolant is not None
    return cfg, problem, basis


def test_reduced_track_with_interpolant_needs_no_assembly_or_splu(monkeypatch, built):
    cfg, problem, basis = built
    calls = []

    def forbidden(name):
        def _call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called online")

        return _call

    monkeypatch.setattr(problem_mod, "assemble", forbidden("assemble"))
    monkeypatch.setattr(spla, "splu", forbidden("splu"))
    fresh = build_problem(cfg, mesh=problem.mesh)
    config = TrackingConfig(K=3, h=0.25, system="reduced", overtrack=1)
    trace = track(config, fresh, basis=basis)
    assert trace.complete and calls == []


def test_reduced_track_computes_the_weights_once_per_parameter(monkeypatch, built):
    # a march without halved steps evaluates its whole grid as one stack:
    # one computation of the Lagrange weights, one row per parameter
    cfg, problem, basis = built
    evaluations = []
    weights = online.PencilInterpolant.weights

    def counted(self, ts):
        evaluations.append(list(ts))
        return weights(self, ts)

    monkeypatch.setattr(online.PencilInterpolant, "weights", counted)
    config = TrackingConfig(K=3, h=0.25, system="reduced", overtrack=1)
    trace = track(config, problem, basis=basis)
    assert trace.complete
    assert evaluations == [[step.t for step in trace.steps]], evaluations


def test_alternating_parameters_never_get_stale_weights():
    # nothing is kept between evaluations: a parameter asked for again, in
    # any order, gets the bits it got the first time, and a stack holds
    # the same pencils as its stacks of one, to round-off
    _, _, interp = _case("edge", "bump")
    fresh = {t: (*interp.pencil(t), *interp.derivative_pencil(t)) for t in (0.3, 0.7)}
    for t in (0.3, 0.7, 0.3, 0.3, 0.7, 0.7, 0.3):
        got = (*interp.pencil(t), *interp.derivative_pencil(t))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, fresh[t]))
    stack = interp.pencils([0.7, 0.3, 0.7])
    for row, t in zip(stack, (0.7, 0.3, 0.7)):
        assert _rel_err(row, fresh[t]) < 1e-14


def test_track_on_another_problem_is_config_error(built):
    # a stored pencil belongs to one mesh and family: tracking it on a
    # problem with another stretch would silently use the wrong pencil
    cfg, problem, basis = built
    other = replace(cfg, stretch_a1=cfg.stretch_a1 + 0.5)
    config = TrackingConfig(K=3, h=0.25, system="reduced", overtrack=1)
    with pytest.raises(ConfigError, match="fingerprint.*parameter"):
        track(config, build_problem(other, mesh=problem.mesh), basis=basis)


def test_track_of_another_gauge_is_config_error(built, quiet_warnings):
    # a gram-schmidt basis holds edge-space columns: on a tree-cotree problem
    # its stored pencil would be read as that of cotree coordinates
    cfg, problem, _ = built
    gram = build_problem(replace(cfg, gauge="gram-schmidt"), mesh=problem.mesh)
    basis, _, _ = build_basis(gram, cfg)
    config = TrackingConfig(K=3, h=0.25, system="reduced", overtrack=1)
    with pytest.raises(ConfigError, match="fingerprint.*gauge gram-schmidt"):
        track(config, problem, basis=basis)


def test_bare_basis_of_another_size_fails_before_any_interpolant(monkeypatch, built):
    cfg, problem, basis = built

    def forbidden(*args):
        raise AssertionError("interpolant built before the basis was checked")

    monkeypatch.setattr(tracking_mod, "pencil_interpolant", forbidden)
    bare = ReducedBasis(
        Z=np.vstack([basis.Z, basis.Z[:1]]), t_ref=0.0, gauge="tree-cotree",
        space="cotree",
    )
    config = TrackingConfig(K=3, h=0.25, system="reduced", overtrack=1)
    with pytest.raises(ConfigError, match=f"rows {basis.n + 1} \\(problem: {basis.n}\\)"):
        track(config, problem, basis=bare)


def test_interpolant_build_keeps_no_node_systems():
    # the Chebyshev nodes are one-off parameters: their assembled systems
    # must not stay cached on the problem
    problem, Z, _ = _case("cotree", "affine")
    problem.system(0.0)
    before = set(problem._systems)
    pencil_interpolant(problem, Z)
    assert set(problem._systems) == before
