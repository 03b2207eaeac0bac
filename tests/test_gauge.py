import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import cavityrb
from cavityrb import (
    GradientProjector,
    affine_stretch,
    assemble,
    build_tree_cotree,
    gram_schmidt_clean,
    identity_map,
    sine_bump,
)
from cavityrb import gauge
from cavityrb.eigensolve import DEFAULT_NULL_TOL, null_mask, solve_dense_gevp
from cavityrb.errors import NumericalError
from cavityrb.gauge import (
    condensed_eigensolve,
    cotree_coordinates,
    expand_cotree,
    mass_factor,
)

from conftest import (
    SPLIT_GAP,
    divergence_defect,
    eigenspace_distance,
    graddiv_project,
    gram_factor,
    make_problem,
    mesh,
    mgs_gradient_clean,
    mixed_factor,
    mixed_solve,
    solve_gevp,
    standard_form_eigensolve,
)


def naive_condense(A, B, tc):
    """Condensed pencil formed directly: A_hat = X^T A X, B_hat = H X with
    X = B^{-1} H^T. Squares the conditioning of the cotree rows; kept as the
    oracle of the stable standard-form solve on small meshes."""
    H = A.tocsr()[tc.cotree, :]
    X = expand_cotree(np.eye(len(tc.cotree)), A, tc, mass_factor(B))
    A_hat = X.T @ (A @ X)
    B_hat = H @ X
    return 0.5 * (A_hat + A_hat.T), 0.5 * (B_hat + B_hat.T), H


def test_unit_cell_partition():
    tc = build_tree_cotree(mesh(1))
    assert len(tc.tree) == 0
    assert list(tc.cotree) == [0]


def test_two_by_two_partition():
    tc = build_tree_cotree(mesh(2))
    assert len(tc.tree) == 1
    assert len(tc.cotree) == 7


@given(st.integers(min_value=1, max_value=8))
def test_partition_dimension_law(n):
    m = mesh(n)
    tc = build_tree_cotree(m)
    assert len(tc.tree) == m.n_grad
    assert len(tc.cotree) == m.n_curl - m.n_grad
    combined = np.sort(np.concatenate([tc.tree, tc.cotree]))
    np.testing.assert_array_equal(combined, np.arange(m.n_curl))


def test_partition_deterministic():
    a = build_tree_cotree(mesh(5))
    b = build_tree_cotree(mesh(5))
    np.testing.assert_array_equal(a.tree, b.tree)


def test_tree_rows_of_incidence_invertible():
    # the tree must span the interior-vertex gradient space
    m = mesh(4)
    s = assemble(m, identity_map(), 0.0)
    tc = build_tree_cotree(m)
    G_tree = s.G.toarray()[tc.tree, :]
    assert abs(np.linalg.det(G_tree)) > 0.5


def test_unit_cell_condensation_algebra():
    s = assemble(mesh(1), identity_map(), 0.0)
    tc = build_tree_cotree(mesh(1))
    A_hat, B_hat, H = naive_condense(s.A, s.B, tc)
    b = s.B[0, 0]
    np.testing.assert_allclose(H.toarray(), [[4.0]])
    np.testing.assert_allclose(A_hat, [[16.0 * 4.0 / b**2]], rtol=1e-12)
    np.testing.assert_allclose(B_hat, [[16.0 / b]], rtol=1e-12)
    np.testing.assert_allclose(A_hat[0, 0] / B_hat[0, 0], 4.0 / b, rtol=1e-12)


def test_condensed_pencil_definite():
    s = assemble(mesh(2), affine_stretch(2.5), 0.4)
    tc = build_tree_cotree(mesh(2))
    A_hat, B_hat, _ = naive_condense(s.A, s.B, tc)
    assert A_hat.shape == (7, 7)
    assert np.linalg.eigvalsh(A_hat).min() > 0
    assert np.linalg.eigvalsh(B_hat).min() > 0


@pytest.mark.parametrize("kind", ["affine", "bump"])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_spectral_equivalence(kind, t):
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    m = mesh(8)
    s = assemble(m, fam, t)
    tc = build_tree_cotree(m)
    lam_hat, _, _ = standard_form_eigensolve(s.A, s.B, tc)
    sol = solve_gevp(s.A, s.B, lam_hat.size)
    assert sol.n_discarded_null == m.n_grad
    rel = np.abs(lam_hat - sol.lambdas) / sol.lambdas
    assert rel.max() < 1e-9


def test_stable_solve_matches_direct_condensed():
    # on a small mesh the direct dense solve of the condensed pencil is
    # still accurate and must agree with the tree-mapped full solve
    import scipy.linalg

    s = assemble(mesh(2), affine_stretch(2.5), 0.3)
    tc = build_tree_cotree(mesh(2))
    A_hat, B_hat, _ = naive_condense(s.A, s.B, tc)
    lam_direct = scipy.linalg.eigh(A_hat, B_hat, eigvals_only=True)
    lam_stable, V = condensed_eigensolve(s.A, s.B, s.G, len(tc.cotree))
    Y = cotree_coordinates(V, lam_stable, s.G, tc)
    np.testing.assert_allclose(lam_direct, lam_stable, rtol=1e-10)
    r = A_hat @ Y[:, 0] - lam_stable[0] * (B_hat @ Y[:, 0])
    assert np.linalg.norm(r) <= 1e-9 * lam_stable[0] * np.linalg.norm(B_hat @ Y[:, 0])


@given(
    st.sampled_from([2, 4, 8, 16]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_condensed_eigensolve_matches_standard_form_oracle(n, kind, t):
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    m = mesh(n)
    s = assemble(m, fam, t)
    tc = build_tree_cotree(m)
    lam_o, _, _ = standard_form_eigensolve(s.A, s.B, tc)
    # all n_curl - n_grad physical modes come out of the sparse solve, and
    # no more exist
    lam, V = condensed_eigensolve(s.A, s.B, s.G, lam_o.size)
    with pytest.raises(NumericalError, match="physical eigenvalues"):
        condensed_eigensolve(s.A, s.B, s.G, lam_o.size + 1)
    assert lam.size == m.n_curl - m.n_grad
    assert (np.abs(lam - lam_o) / lam_o).max() <= 1e-10
    XY = expand_cotree(cotree_coordinates(V, lam, s.G, tc), s.A, tc, mass_factor(s.B))
    assert abs(XY - V).max() <= 1e-10 * abs(V).max()


def test_condensed_eigensolve_checks_null_count():
    # one gradient column short, a quarter-spectrum request (where the
    # Lanczos basis spans the whole space) meets the unconstrained gradient
    # mode too: the eigen-residual gate rejects it rather than return it as a
    # physical eigenvalue
    m = mesh(4)
    s = assemble(m, sine_bump(0.3), 0.5)
    G = s.G[:, 1:]
    k = (G.shape[0] - G.shape[1]) // 4
    with pytest.raises(NumericalError, match="eigen-residual"):
        condensed_eigensolve(s.A, s.B, G, k)


def test_mixed_form_solve_rejects_an_unconstrained_gradient_mode():
    # one gradient column short, the solve leaves a gradient mode
    # unconstrained: it comes out near 0, and the eigen-residual gate must
    # reject it rather than return it as a physical eigenvalue
    m = mesh(4)
    s = assemble(m, sine_bump(0.3), 0.5)
    G = s.G[:, 1:]
    with pytest.raises(NumericalError, match="eigen-residual"):
        condensed_eigensolve(s.A, s.B, G, 3)


def test_condensed_eigensolve_without_gradient_space_is_a_numerical_error():
    # a one-cell mesh has no interior vertex: the only pair is the whole
    # spectrum, which Lanczos cannot return
    s = assemble(mesh(1), identity_map(), 0.0)
    assert s.G.shape[1] == 0
    with pytest.raises(NumericalError, match="cannot return all 1"):
        condensed_eigensolve(s.A, s.B, s.G, 1)


@given(
    st.sampled_from([4, 8, 16]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
def test_mixed_form_solve_matches_dense_oracle(n, kind, t, data):
    # the shift-invert Lanczos solve of the projected inverse against the dense
    # solve of the full pencil with its null modes dropped
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    s = assemble(mesh(n), fam, t)
    n_physical = s.n_curl - s.n_grad
    lam_all, V_all = solve_dense_gevp(s.A, s.B)
    physical = ~null_mask(lam_all, DEFAULT_NULL_TOL)
    lam_ref, V_ref = lam_all[physical], V_all[:, physical]
    assert lam_ref.size == n_physical
    k = data.draw(st.integers(min_value=1, max_value=n_physical))
    lam, V = condensed_eigensolve(s.A, s.B, s.G, k)
    assert (abs(lam - lam_ref[:k]) / lam_ref[:k]).max() <= 1e-11
    distance = eigenspace_distance(lam_ref, V_ref, V, s.B, delta=SPLIT_GAP)
    assert distance <= 1e-11 * abs(V_ref).max()
    assert abs(V.T @ (s.B @ V) - np.eye(k)).max() <= 1e-13
    # discretely divergence-free to the round-off of the dense vectors
    assert abs(s.G.T @ (s.B @ V)).max() <= 10 * abs(s.G.T @ (s.B @ V_ref)).max()


@given(
    st.sampled_from([4, 8, 16]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_projected_inverse_matches_mixed_form_oracle(n, kind, t, seed):
    # P (A - sigma B)^{-1} X and G (G^T B G)^{-1} g against the solves of the
    # saddle-point matrix K(sigma) = [[A - sigma B, B G], [(B G)^T, 0]], and
    # the projector P against its form coupled by the assembled C(t) = B(t) G
    # with a default LU of the Gram matrix
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    s = assemble(mesh(n), fam, t)
    inverse = gauge.ProjectedInverse(s.A, s.B, s.G)
    projector = inverse.projector
    lu = mixed_factor(s.A, s.B, s.G)
    gram = gram_factor(s.G, s.C)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((s.n_curl, 5))
    g = rng.standard_normal((s.n_grad, 5))
    V = inverse.solve(X)
    PX = projector.project(X)
    for ours, oracle, tol in (
        (V, mixed_solve(lu, X, np.zeros_like(g)), 1e-11),
        (projector.gradient_part(g), mixed_solve(lu, np.zeros_like(X), g), 1e-11),
        (PX, graddiv_project(X, s.G, s.C, gram), 1e-12),
        (projector.gradient_part(g), s.G @ gram.solve(g), 1e-12),
    ):
        assert abs(ours - oracle).max() <= tol * abs(oracle).max()
    # one column alone, as Lanczos applies it, is the block's column
    assert abs(inverse.solve(X[:, 0]) - V[:, 0]).max() <= 1e-13 * abs(V).max()
    # the projection is idempotent, keeps divergence-free vectors and
    # annihilates gradients
    assert abs(projector.project(PX) - PX).max() <= 1e-12 * abs(PX).max()
    assert abs(projector.project(V) - V).max() <= 1e-12 * abs(V).max()
    grads = s.G @ g
    assert abs(projector.project(grads)).max() <= 1e-12 * abs(grads).max()


@pytest.mark.parametrize("k", [45, 54])
def test_mixed_form_solve_keeps_every_copy_of_a_double_eigenvalue(k):
    # the square has exactly double eigenvalues; with the default Lanczos
    # basis these requests past a quarter of the spectrum lost one copy of a
    # pair inside the window and returned a later eigenvalue in its place
    s = assemble(mesh(8), identity_map(), 0.0)
    lam_all = solve_dense_gevp(s.A, s.B)[0]
    lam_ref = lam_all[~null_mask(lam_all, DEFAULT_NULL_TOL)][:k]
    lam, _ = condensed_eigensolve(s.A, s.B, s.G, k)
    assert (abs(lam - lam_ref) / lam_ref).max() <= 1e-11


@pytest.mark.parametrize("fault", ["singular", "residual"])
def test_failed_mixed_form_solve_names_the_parameter(monkeypatch, fault):
    problem = make_problem(n=4, family="bump")
    expected = r"condensed solve failed at t=0\.3: "
    if fault == "singular":
        # a zero gradient column leaves G^T B G with a zero column
        s = problem.system(0.3)
        G = s.G.tolil()
        G[:, 0] = 0.0
        broken = dataclasses.replace(s, G=G.tocsr())
        monkeypatch.setattr(problem, "system", lambda t: broken)
        expected += "gradient Gram matrix is singular"
    else:
        monkeypatch.setattr(gauge, "EIGEN_RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match=expected):
        problem.solve(0.3, 3)


def test_expand_zero():
    s = assemble(mesh(2), identity_map(), 0.0)
    tc = build_tree_cotree(mesh(2))
    v = expand_cotree(np.zeros(7), s.A, tc, mass_factor(s.B))
    np.testing.assert_array_equal(v, np.zeros(8))


def test_expand_unit_cell_direction():
    s = assemble(mesh(1), identity_map(), 0.0)
    tc = build_tree_cotree(mesh(1))
    v = expand_cotree(np.array([1.0]), s.A, tc, mass_factor(s.B))
    np.testing.assert_allclose(v, [4.0 / s.B[0, 0]], rtol=1e-12)


def test_expanded_eigenvectors_solve_original_pencil():
    m = mesh(8)
    s = assemble(m, sine_bump(0.3), 0.8)
    tc = build_tree_cotree(m)
    lam, V_full = condensed_eigensolve(s.A, s.B, s.G, 4)
    Y = cotree_coordinates(V_full, lam, s.G, tc)
    V = expand_cotree(Y, s.A, tc, mass_factor(s.B))
    for j in range(4):
        r = s.A @ V[:, j] - lam[j] * (s.B @ V[:, j])
        assert np.linalg.norm(r) <= 1e-8 * lam[j] * np.linalg.norm(s.B @ V[:, j])
        assert divergence_defect(V[:, j], s.C, s.B) <= 1e-10


@given(
    st.sampled_from([2, 4, 8, 16]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cotree_metric_operator_matches_dense_oracle(n, kind, t, seed):
    # H (B^{-1} (H^T Y)) applied to a vector and to a block against the
    # formed B_hat = H X, at a random parameter and at the problem's t_ref
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    s = assemble(mesh(n), fam, t)
    tc = build_tree_cotree(mesh(n))
    problem = make_problem(n=n, family=kind)
    s_ref = problem.system(problem.t_ref)
    rng = np.random.default_rng(seed)
    for metric, B_hat in (
        (gauge.cotree_metric(s.A, tc, mass_factor(s.B)), naive_condense(s.A, s.B, tc)[1]),
        (problem.basis_metric, naive_condense(s_ref.A, s_ref.B, tc)[1]),
    ):
        assert metric.shape == B_hat.shape == (len(tc.cotree),) * 2
        for Y in (rng.standard_normal(len(tc.cotree)),
                  rng.standard_normal((len(tc.cotree), 4))):
            ref = B_hat @ Y
            got = metric @ Y
            assert got.shape == ref.shape
            assert abs(got - ref).max() <= 1e-12 * abs(ref).max()


def test_gram_schmidt_annihilates_gradient_components(rng):
    m = mesh(4)
    s0 = assemble(m, sine_bump(0.3), 0.0)
    Z = rng.standard_normal((m.n_curl, 5))
    Z_orth, dropped = gram_schmidt_clean(Z, GradientProjector(s0.B, s0.G))
    assert dropped == []
    defect = abs(s0.G.T @ (s0.B @ Z_orth)).max()
    assert defect <= 1e-10 * abs(s0.B).max()


def test_gram_schmidt_idempotent(rng):
    m = mesh(4)
    s0 = assemble(m, affine_stretch(2.5), 0.0)
    Z = rng.standard_normal((m.n_curl, 4))
    projector = GradientProjector(s0.B, s0.G)
    once, _ = gram_schmidt_clean(Z, projector)
    twice, _ = gram_schmidt_clean(once, projector)
    np.testing.assert_allclose(np.abs(once), np.abs(twice), atol=1e-11)


def test_gram_schmidt_drops_pure_gradient():
    m = mesh(4)
    s0 = assemble(m, identity_map(), 0.0)
    g = s0.G.toarray()[:, 2]
    _, dropped = gram_schmidt_clean(g[:, None], GradientProjector(s0.B, s0.G))
    assert dropped == [0]


def test_gram_schmidt_keeps_clean_vectors():
    m = mesh(4)
    s0 = assemble(m, identity_map(), 0.0)
    sol = solve_gevp(s0.A, s0.B, 2)
    Z_orth, dropped = gram_schmidt_clean(sol.vectors, GradientProjector(s0.B, s0.G))
    assert dropped == []
    # already divergence-free orthonormal columns pass through unchanged
    np.testing.assert_allclose(Z_orth, sol.vectors, atol=1e-8)


def test_tree_block_factored_once_per_partition(monkeypatch):
    # G[tree, :] depends on the mesh only; its LU lives on the partition.
    # The Gram matrices G^T B(t) G of the solves have its shape, so the tree
    # block is recognized by its entries
    factored = []
    splu = spla.splu

    def recording_splu(M, *args, **kwargs):
        factored.append(M)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    problem = make_problem(n=4, family="bump")
    problem.snapshot_solve(0.2, 3)
    problem.snapshot_solve(0.7, 3)
    tree_block = problem.tree_cotree.tree_block
    tree_lus = [
        M for M in factored
        if M.shape == tree_block.shape and abs(M - tree_block).max() == 0
    ]
    assert len(tree_lus) == 1
    # each solve factors A - sigma B and G^T B G once
    assert len(factored) == 5


@pytest.mark.parametrize("gauge", ["gram-schmidt", "projection"])
def test_gradient_gram_matrix_factored_once_per_problem(monkeypatch, gauge, rng):
    # the cleaning's Gram matrix G^T B(t_ref) G is fixed: one LU per
    # problem, however many cleanings the offline build runs
    calls = []
    splu = spla.splu

    def counting_splu(M, *args, **kwargs):
        calls.append(M.shape)
        return splu(M, *args, **kwargs)

    problem = make_problem(n=4, family="bump", gauge=gauge)
    problem.system(problem.t_ref)
    monkeypatch.setattr(spla, "splu", counting_splu)
    for _ in range(5):
        problem.clean_basis(rng.standard_normal((problem.n_curl, 3)))
    assert calls == [(problem.n_grad, problem.n_grad)]


@pytest.mark.parametrize("strategy", ["gram-schmidt", "projection"])
def test_cleaning_without_gradient_space_returns_its_input(strategy, rng):
    # a one-cell mesh has no interior vertex: the cleaning projector has an
    # empty Gram matrix and leaves every column as it is
    problem = make_problem(n=1, family="bump", gauge=strategy)
    assert problem.n_grad == 0
    Z = rng.standard_normal((problem.n_curl, 2))
    cleaned, dropped = problem.clean_basis(Z)
    assert dropped == []
    np.testing.assert_array_equal(cleaned, Z)


def _splu_sites(node, scope, sites):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call) and "splu" in (
            getattr(child.func, "attr", None), getattr(child.func, "id", None)
        ):
            sites.append(inner)
        _splu_sites(child, inner, sites)


def test_sparse_lu_is_called_only_by_mass_factor_and_the_tree_block():
    # every symmetric positive-definite matrix goes through mass_factor's
    # symmetric mode; the tree block G[tree, :] is not SPD and keeps its LU
    sites = []
    for path in sorted(Path(cavityrb.__file__).parent.glob("*.py")):
        _splu_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, sites)
    assert sorted(sites) == ["gauge.TreeCotree.tree_lu", "gauge.mass_factor"]


@given(
    st.sampled_from([2, 4, 8]),
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_gram_schmidt_clean_matches_dense_mgs_oracle(n, family, t, seed, data):
    # the sparse grad-div solve against two MGS sweeps over a dense
    # B0-orthonormal gradient basis, with pure-gradient columns mixed in
    s0 = make_problem(n=n, family=family).system(t)
    rng = np.random.default_rng(seed)
    # at most 6 free columns: the divergence-free space has n_cot >= 7
    # dimensions on these meshes, so only the gradient columns collapse
    grad = data.draw(
        st.lists(st.booleans(), min_size=1, max_size=8).filter(
            lambda g: g.count(False) <= 6
        )
    )
    n_cols = len(grad)
    Z = rng.standard_normal((s0.n_curl, n_cols))
    for j in np.flatnonzero(grad):
        Z[:, j] = s0.G @ rng.standard_normal(s0.G.shape[1])
    Z_orth, dropped = gram_schmidt_clean(Z, GradientProjector(s0.B, s0.G))
    Z_ref, dropped_ref = mgs_gradient_clean(Z, s0.G, s0.B)
    assert dropped == dropped_ref == [int(j) for j in np.flatnonzero(grad)]
    assert Z_orth.shape == Z_ref.shape
    assert np.max(abs(Z_orth - Z_ref), initial=0.0) <= 1e-10 * max(
        np.max(abs(Z_ref), initial=0.0), 1.0
    )


def test_projector_laws(rng):
    m = mesh(4)
    s0 = assemble(m, sine_bump(0.3), 0.0)
    Z = rng.standard_normal((m.n_curl, 6))
    projector = GradientProjector(s0.B, s0.G)
    PZ = projector.project(Z)
    PPZ = projector.project(PZ)
    scale = abs(Z).max()
    assert abs(PPZ - PZ).max() <= 1e-12 * scale
    assert abs(projector.project(s0.G.toarray())).max() <= 1e-12
    assert abs(s0.C.T @ PZ).max() <= 1e-10 * abs(s0.C).max() * scale


def test_projector_fixes_divergence_free_vectors():
    m = mesh(4)
    s0 = assemble(m, sine_bump(0.3), 0.0)
    sol = solve_gevp(s0.A, s0.B, 3)
    # columns cleaned in B(0) are fixed by the projector coupled by C(0)
    cleaned, _ = gram_schmidt_clean(sol.vectors, GradientProjector(s0.B, s0.G))
    P_cleaned = graddiv_project(cleaned, s0.G, s0.C, gram_factor(s0.G, s0.C))
    np.testing.assert_allclose(P_cleaned, cleaned, atol=1e-10)


def test_divergence_defect_gradient_maximal():
    m = mesh(4)
    s0 = assemble(m, identity_map(), 0.0)
    g = s0.G.toarray()[:, 0]
    assert divergence_defect(g, s0.C, s0.B) > 0.1
    assert divergence_defect(np.zeros(m.n_curl), s0.C, s0.B) == 0.0


def test_fixed_parameter_cleanup_defect_grows_with_t():
    # cleanup tied to t=0 leaves gradient content on the deformed domain
    m = mesh(6)
    fam = sine_bump(0.3)
    s0 = assemble(m, fam, 0.0)
    s1 = assemble(m, fam, 1.0)
    sol = solve_gevp(s1.A, s1.B, 1)  # eigenvector of the deformed domain
    z, _ = gram_schmidt_clean(sol.vectors[:, :1], GradientProjector(s0.B, s0.G))
    d0 = divergence_defect(z[:, 0], s0.C, s0.B)
    d1 = divergence_defect(z[:, 0], s1.C, s1.B)
    assert d0 <= 1e-10
    assert d1 > 100 * max(d0, 1e-14)
