import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityrb import affine_stretch, build_reference_mesh, identity_map, sine_bump
from cavityrb.errors import GeometryError

from conftest import mesh


def test_unit_cell_counts():
    m = mesh(1)
    assert m.num_vertices == 4
    assert m.num_edges == 5
    assert m.num_triangles == 2
    assert m.n_curl == 1
    assert m.n_grad == 0


def test_two_by_two_counts():
    m = mesh(2)
    assert (m.num_vertices, m.num_edges, m.num_triangles) == (9, 16, 8)
    assert m.n_curl == 8
    assert m.n_grad == 1


@given(st.integers(min_value=1, max_value=8))
def test_euler_relation(n):
    assert build_reference_mesh(n).euler_characteristic() == 1


@given(st.integers(min_value=1, max_value=8))
def test_edge_triangle_membership(n):
    m = build_reference_mesh(n)
    counts = np.zeros(m.num_edges, dtype=int)
    for row in m.tri_edges:
        counts[row] += 1
    assert set(counts[m.boundary_edge]) == {1}
    if (~m.boundary_edge).any():
        assert set(counts[~m.boundary_edge]) == {2}


@given(st.integers(min_value=1, max_value=8))
def test_dof_counts(n):
    m = build_reference_mesh(n)
    assert m.n_curl == (~m.boundary_edge).sum()
    assert m.n_grad == (n - 1) ** 2


def test_triangles_counterclockwise():
    m = mesh(5)
    X = m.vertices[m.triangles]
    cross = (X[:, 1, 0] - X[:, 0, 0]) * (X[:, 2, 1] - X[:, 0, 1]) - (
        X[:, 1, 1] - X[:, 0, 1]
    ) * (X[:, 2, 0] - X[:, 0, 0])
    assert (cross > 0).all()


def test_edge_orientation_low_to_high():
    m = mesh(4)
    assert (m.edges[:, 0] < m.edges[:, 1]).all()


def test_rejects_zero_subdivisions():
    with pytest.raises(GeometryError):
        build_reference_mesh(0)


def test_affine_stretch_law():
    fam = affine_stretch(2.5)
    assert fam.stretch(0.0) == 1.0
    assert fam.stretch(1.0) == 2.5
    np.testing.assert_allclose(fam.stretch(2 / 3), 2.0)


def test_identity_map_is_identity():
    fam = identity_map()
    pts = np.array([[0.3, 0.7], [1.0, 0.0]])
    np.testing.assert_array_equal(fam.map_points(pts, 0.9), pts)
    J = fam.jacobians(pts, 0.5)
    np.testing.assert_array_equal(J, np.broadcast_to(np.eye(2), (2, 2, 2)))


@given(
    st.sampled_from(["affine", "bump"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_jacobian_determinant_positive(kind, t, x, y):
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    J = fam.jacobians(np.array([[x, y]]), t)[0]
    assert np.linalg.det(J) > 0.0


def test_jacobian_matches_map_differences():
    fam = sine_bump(0.3)
    p = np.array([[0.37, 0.61]])
    t = 0.8
    J = fam.jacobians(p, t)[0]
    eps = 1e-7
    for j, e in enumerate(np.eye(2)):
        fd = (fam.map_points(p + eps * e, t) - fam.map_points(p - eps * e, t)) / (
            2 * eps
        )
        np.testing.assert_allclose(J[:, j], fd[0], atol=1e-6)


@given(st.sampled_from(["affine", "bump"]), st.floats(min_value=0.0, max_value=1.0))
def test_jacobians_affine_in_t(kind, t):
    # exact pencil derivatives rely on J' = J(x, 1) - J(x, 0)
    fam = affine_stretch(2.5) if kind == "affine" else sine_bump(0.3)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (20, 2))
    blend = (1.0 - t) * fam.jacobians(pts, 0.0) + t * fam.jacobians(pts, 1.0)
    np.testing.assert_allclose(fam.jacobians(pts, t), blend, rtol=0, atol=1e-14)


def test_mesh_topology_independent_of_t():
    # the mapping never touches connectivity, only the assembled values
    m = mesh(3)
    fam = sine_bump(0.3)
    assert fam.map_points(m.vertices, 0.0).shape == m.vertices.shape
    assert np.shares_memory(m.triangles, m.triangles)
