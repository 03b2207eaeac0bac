import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from cavityrb import (
    affine_stretch,
    assemble,
    discrete_gradient,
    identity_map,
    matrix_derivatives,
    sine_bump,
)
from cavityrb.errors import GeometryError
from cavityrb.geometry import MappingFamily

from conftest import assemble_loop, central_difference, matrix_derivatives_loop, mesh


def _discrete_gradient_loop(m):
    """Edge-by-edge incidence assembly: the oracle for discrete_gradient."""
    rows, cols, vals = [], [], []
    for eid in np.flatnonzero(m.interior_edge_index >= 0):
        lo, hi = m.edges[eid]
        for v, s in ((hi, 1.0), (lo, -1.0)):
            c = m.interior_vertex_index[v]
            if c >= 0:
                rows.append(m.interior_edge_index[eid])
                cols.append(c)
                vals.append(s)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m.n_curl, m.n_grad))


def test_unit_cell_stiffness_hand_value():
    s = assemble(mesh(1), identity_map(), 0.0)
    np.testing.assert_allclose(s.A.toarray(), [[4.0]], rtol=1e-14)


def test_unit_cell_mass_hand_value():
    s = assemble(mesh(1), identity_map(), 0.0)
    np.testing.assert_allclose(s.B.toarray(), [[1.0 / 3.0]], rtol=1e-14)


def test_unit_cell_gradient_empty():
    s = assemble(mesh(1), identity_map(), 0.0)
    assert s.G.shape == (1, 0)
    assert s.C.shape == (1, 0)


def test_unit_cell_affine_closed_forms():
    # single interior edge: A(t) = 4/a, B(t) = (1/a + a)/6
    fam = affine_stretch(2.5)
    for t in (0.0, 0.3, 1.0):
        a = fam.stretch(t)
        s = assemble(mesh(1), fam, t)
        np.testing.assert_allclose(s.A[0, 0], 4.0 / a, rtol=1e-14)
        np.testing.assert_allclose(s.B[0, 0], (1.0 / a + a) / 6.0, rtol=1e-14)


@given(
    st.sampled_from([2, 4]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_structural_identities(n, kind, t):
    fam = affine_stretch(2.0) if kind == "affine" else sine_bump(0.3)
    s = assemble(mesh(n), fam, t)
    a_scale = abs(s.A).max()
    b_scale = abs(s.B).max()
    if s.n_grad:
        assert abs(s.A @ s.G).max() <= 1e-12 * a_scale
        assert abs(s.C - s.B @ s.G).max() <= 1e-12 * b_scale
    d = (s.A - s.A.T)
    assert (abs(d).max() if d.nnz else 0.0) <= 1e-15 * a_scale


def test_mass_positive_definite():
    import scipy.linalg

    s = assemble(mesh(4), sine_bump(0.3), 0.7)
    scipy.linalg.cholesky(s.B.toarray())  # raises on failure


def test_stiffness_positive_semidefinite():
    s = assemble(mesh(4), affine_stretch(2.5), 0.4)
    lam = np.linalg.eigvalsh(s.A.toarray())
    assert lam.min() >= -1e-10 * abs(lam).max()


def test_gradient_incidence_column():
    # center vertex of the 2x2 mesh touches every interior edge
    s = assemble(mesh(2), identity_map(), 0.0)
    col = s.G.toarray()[:, 0]
    assert np.abs(col).sum() == 8
    assert set(np.unique(col)) == {-1.0, 1.0}


def test_gradient_independent_of_t():
    m = mesh(3)
    fam = sine_bump(0.3)
    g0 = assemble(m, fam, 0.0).G.toarray()
    g1 = assemble(m, fam, 1.0).G.toarray()
    np.testing.assert_array_equal(g0, g1)


def test_gradient_built_once_per_mesh(monkeypatch):
    # G is topological: every assembly, problem and partition on one mesh
    # shares a single build
    import cavityrb.assembly as assembly_mod
    from cavityrb import CavityProblem, build_reference_mesh

    calls = []
    build = assembly_mod.discrete_gradient

    def counting(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(assembly_mod, "discrete_gradient", counting)
    m = build_reference_mesh(3)
    for t in (0.0, 0.4, 1.0):
        assemble(m, sine_bump(0.3), t)
    for gauge in ("tree-cotree", "gram-schmidt"):
        problem = CavityProblem(m, affine_stretch(2.5), gauge=gauge)
        problem.system(0.5)
        problem.tree_cotree
        problem.G
    assert len(calls) == 1


def test_metric_maps_built_once_per_mesh_and_rule(monkeypatch):
    # every problem on one mesh shares the maps of its quadrature rule
    import cavityrb.assembly as assembly_mod
    from cavityrb import CavityProblem, build_reference_mesh

    calls = []
    build = assembly_mod.build_metric_maps

    def counting(m, affine):
        calls.append(affine)
        return build(m, affine)

    monkeypatch.setattr(assembly_mod, "build_metric_maps", counting)
    m = build_reference_mesh(3)
    for gauge in ("tree-cotree", "gram-schmidt"):
        problem = CavityProblem(m, affine_stretch(2.5), gauge=gauge)
        problem.system(0.5)
        problem.derivative_pencil(0.5)
    assert calls == [True]
    CavityProblem(m, sine_bump(0.3)).system(0.5)
    CavityProblem(m, sine_bump(0.1)).derivative_pencil(0.2)
    assert calls == [True, False]


def test_jacobian_rate_evaluated_once_per_mesh_and_family(monkeypatch):
    # the first derivative of a family on a mesh evaluates J at t, 1 and 0;
    # later ones only at t, and the kept J' gives the bits of a fresh one
    from cavityrb import build_reference_mesh

    calls = []
    jacobians = MappingFamily.jacobians

    def counting(self, points, t):
        calls.append(t)
        return jacobians(self, points, t)

    fresh = matrix_derivatives(build_reference_mesh(3), sine_bump(0.3), 0.4)
    monkeypatch.setattr(MappingFamily, "jacobians", counting)
    m = build_reference_mesh(3)
    for family in (sine_bump(0.3), affine_stretch(2.5)):
        matrix_derivatives(m, family, 0.7)
        matrix_derivatives(m, family, 0.4)
        assert calls == [0.7, 1.0, 0.0, 0.4]
        calls.clear()
    for got, want in zip(matrix_derivatives(m, sine_bump(0.3), 0.4), fresh):
        assert got.data.tobytes() == want.data.tobytes()


@given(
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(1, "affine", 1e-13)
def test_metric_maps_match_quadrature_oracle(n, kind, t):
    # the maps against the per-parameter quadrature loop and scatter they
    # replaced, values and derivatives alike; the edge-edge matrices are
    # mirrored from one triangle, so they are symmetric entry for entry.
    # An entry of A' or B' may vanish at some t (the one B' entry at n = 1
    # is about 0.75 t near 0) while both forms sum O(1) terms, so the
    # derivatives are measured against their size at t = 1 as well.
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    m = mesh(n)
    s = assemble(m, fam, t)
    Ap, Bp = matrix_derivatives(m, fam, t)
    oracle = (*assemble_loop(m, fam, t), *matrix_derivatives_loop(m, fam, t))
    at_one = (None, None, None, *matrix_derivatives_loop(m, fam, 1.0))
    for name, M, O, O1 in zip(("A", "B", "C", "A'", "B'"), (s.A, s.B, s.C, Ap, Bp),
                              oracle, at_one):
        d = M - O
        scale = max(abs(X).max() if X.nnz else 0.0 for X in (O, O1) if X is not None)
        assert (abs(d).max() if d.nnz else 0.0) <= 1e-12 * scale, name
    for M in (s.A, s.B, Ap, Bp):
        assert (M != M.T).nnz == 0


@pytest.mark.parametrize("kind", ["affine", "bump"])
def test_pencil_matrices_share_one_pattern(kind):
    # A, B, A' and B' store one edge-edge pattern at every t, t = 0 included,
    # where the identity map makes some entries exact zeros (on the affine
    # family at n = 16, a dropped-zero B(0) would store 1,632 of its 3,552)
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    m = mesh(16)
    ref = assemble(m, fam, 0.5)
    assert ref.B.nnz == 3552
    for t in (0.0, 0.3, 1.0):
        s = assemble(m, fam, t)
        for M in (s.A, s.B, *matrix_derivatives(m, fam, t)):
            assert np.shares_memory(M.indptr, ref.A.indptr)
            assert np.shares_memory(M.indices, ref.A.indices)
        assert np.shares_memory(s.C.indices, ref.C.indices)
        assert s.C.nnz == ref.C.nnz


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_gradient_matches_loop_oracle(n):
    G = discrete_gradient(mesh(n))
    oracle = _discrete_gradient_loop(mesh(n))
    assert G.shape == oracle.shape
    assert (G != oracle).nnz == 0
    np.testing.assert_array_equal(G.indptr, oracle.indptr)
    np.testing.assert_array_equal(G.indices, oracle.indices)


def test_negative_jacobian_rejected():
    bad = MappingFamily(kind="affine-stretch", stretch_end=-1.0)
    with pytest.raises(GeometryError) as err:
        assemble(mesh(2), bad, 1.0)
    assert "t=" in str(err.value)


def test_derivative_of_identity_family_is_zero():
    Ap, Bp = matrix_derivatives(mesh(2), identity_map(), 0.5)
    assert (abs(Ap).max() if Ap.nnz else 0.0) == 0.0
    assert (abs(Bp).max() if Bp.nnz else 0.0) == 0.0


def test_derivative_matches_closed_form():
    # d/dt of the single-edge system: A' = -4 a'/a^2, B' = a'(1 - 1/a^2)/6
    fam = affine_stretch(2.5)
    t = 0.4
    a, ap = fam.stretch(t), fam.stretch_rate()
    Ap, Bp = matrix_derivatives(mesh(1), fam, t)
    np.testing.assert_allclose(Ap[0, 0], -4.0 * ap / a**2, rtol=1e-12)
    np.testing.assert_allclose(Bp[0, 0], ap * (1.0 - 1.0 / a**2) / 6.0, rtol=1e-12)


@given(
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_derivative_richardson_rate(kind, t):
    # exact derivatives against the central-difference oracle: halving the
    # step shrinks the oracle's truncation error by four
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    m = mesh(3)

    def pencil(tt):
        s = assemble(m, fam, tt)
        return s.A, s.B

    exact = matrix_derivatives(m, fam, t)
    errs = []
    for h in (1e-2, 5e-3):
        oracle = central_difference(pencil, t, h)
        errs.append([abs(o - e).max() for o, e in zip(oracle, exact)])
    ratios = np.array(errs[0]) / np.array(errs[1])
    assert np.all((3.5 < ratios) & (ratios < 4.5)), ratios


def test_derivative_one_sided_at_endpoints():
    # no stencil leaves [0, 1]: the endpoints get the same exact derivative
    fam = affine_stretch(2.5)
    for t in (0.0, 1.0):
        a, ap = fam.stretch(t), fam.stretch_rate()
        Ap, _ = matrix_derivatives(mesh(1), fam, t)
        np.testing.assert_allclose(Ap[0, 0], -4.0 * ap / a**2, rtol=1e-12)


def test_derivative_sparsity_pattern_matches():
    m = mesh(4)
    fam = sine_bump(0.3)
    s = assemble(m, fam, 0.5)
    Ap, Bp = matrix_derivatives(m, fam, 0.5)
    assert Ap.shape == s.A.shape and Bp.shape == s.B.shape
    a_pat = set(zip(*s.A.nonzero()))
    ap_pat = set(zip(*Ap.nonzero()))
    assert ap_pat <= a_pat
