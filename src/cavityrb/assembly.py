"""Sparse assembly of the curl-curl pencil on a mapped reference mesh.

Edge unknowns transform covariantly under the domain map: a field w on the
deformed domain pulls back to J^T (w o Phi) on the reference mesh, so edge
circulations (the degrees of freedom) are preserved and the scalar curl
transforms as curl w = curl w_ref / det J. All integrals are evaluated on
the reference mesh with the metric factors of the map:

    A_ij = int curl w_i curl w_j / det J
    B_ij = int w_i^T (J^T J)^{-1} w_j det J
    C_iv = int w_i^T (J^T J)^{-1} grad p_v det J

Every stored entry is a fixed linear combination of the pointwise metric,
c_T = sum_q w_q / det J per triangle and s = det J (J^T J)^{-1} per point:
A.data = Phi_A c, B.data = Phi_B s, C.data = Phi_C s. Each mesh builds these
``MetricMaps`` once per rule; J affine in t makes (A', B') the same maps of
(c', s'). Edge-edge values are mapped on the upper triangle and mirrored, so
A, B, A' and B' are exactly symmetric and share one pattern at every t.

Tangential boundary values are eliminated, so rows/columns belong to
interior edges only and grad-space columns to interior vertices only.
The incidence matrix G is purely topological: its column for a vertex v
carries +1 on edges ending at v and -1 on edges starting at v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError
from .geometry import MappingFamily, ReferenceMesh

# Degree-2 rule (edge midpoints): exact for products of lowest-order edge
# functions under affine maps.
_QUAD_D2_BARY = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
_QUAD_D2_W = np.full(3, 1.0 / 3.0)

# Degree-4 rule (two 3-point orbits) for non-affine maps, where the metric
# factors are rational in the coordinates.
_A1, _B1, _W1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_A2, _B2, _W2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
_QUAD_D4_BARY = np.array(
    [
        [_B1, _A1, _A1],
        [_A1, _B1, _A1],
        [_A1, _A1, _B1],
        [_B2, _A2, _A2],
        [_A2, _B2, _A2],
        [_A2, _A2, _B2],
    ]
)
_QUAD_D4_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class AssembledSystem:
    """All system matrices of the high-fidelity problem at one parameter.

    A is symmetric positive semi-definite with rank deficiency n_grad,
    B symmetric positive definite, C the mixed grad-div coupling block
    (n_curl x n_grad, equal to B G up to quadrature rounding), and G the
    signed incidence of interior edges against interior vertices.
    """

    t: float
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    G: sp.csr_matrix

    @property
    def n_curl(self) -> int:
        return self.A.shape[0]

    @property
    def n_grad(self) -> int:
        return self.G.shape[1]


def quadrature_rule(affine: bool):
    """Barycentric points and weights for an affine or a non-affine family."""
    if affine:
        return _QUAD_D2_BARY, _QUAD_D2_W
    return _QUAD_D4_BARY, _QUAD_D4_W


def _bary_gradients(X: np.ndarray):
    """Gradients of the barycentric coordinates and triangle areas.

    X has shape (T, 3, 2); returns grads (T, 3, 2) and areas (T,).
    """
    two_a = (X[:, 1, 0] - X[:, 0, 0]) * (X[:, 2, 1] - X[:, 0, 1]) - (
        X[:, 1, 1] - X[:, 0, 1]
    ) * (X[:, 2, 0] - X[:, 0, 0])
    if np.any(two_a <= 0):
        raise GeometryError("triangle with non-positive area (orientation)")
    g = np.empty_like(X)
    for i in range(3):
        e = X[:, (i + 2) % 3] - X[:, (i + 1) % 3]  # edge opposite vertex i
        g[:, i, 0] = -e[:, 1] / two_a
        g[:, i, 1] = e[:, 0] / two_a
    return g, 0.5 * two_a


def discrete_gradient(mesh: ReferenceMesh) -> sp.csr_matrix:
    """Signed incidence of interior edges against interior vertices."""
    interior = np.flatnonzero(mesh.interior_edge_index >= 0)
    rows = np.repeat(mesh.interior_edge_index[interior], 2)
    cols = mesh.interior_vertex_index[mesh.edges[interior][:, ::-1]].ravel()
    vals = np.tile([1.0, -1.0], interior.size)  # +1 at the high end
    keep = cols >= 0
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(mesh.n_curl, mesh.n_grad)
    )


def _sym_products(u, v):
    """Coefficients of (s00, s01, s11) in u^T S v, S symmetric 2 x 2."""
    u0, u1, v0, v1 = u[..., 0], u[..., 1], v[..., 0], v[..., 1]
    return np.stack([u0 * v0, u0 * v1 + u1 * v0, u1 * v1])


def _pattern(rows, cols, shape):
    """Template CSR of the (row, col) pairs, whose read-only index arrays every
    matrix of the pattern shares; its row-major keys; each pair's entry."""
    keys, entry = np.unique(rows * shape[1] + cols, return_inverse=True)
    M = sp.csr_matrix((np.zeros(keys.size), np.divmod(keys, max(shape[1], 1))), shape)
    M.indices.flags.writeable = M.indptr.flags.writeable = False
    return M, keys, entry


def _metric_map(rows, n_rows, tri, vals, ntri):
    """CSC map from a metric laid out (..., T): pair j, on triangle tri[j]
    (ascending), adds vals[..., j] to entry rows[j]. No COO intermediate."""
    counts = np.tile(np.bincount(tri, minlength=ntri), int(np.prod(vals.shape[:-1])))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    rows = np.broadcast_to(rows.astype(np.int32), vals.shape).ravel()
    return sp.csc_matrix((vals.ravel(), rows, indptr), shape=(n_rows, counts.size))


@dataclass(frozen=True)
class MetricMaps:
    """Maps of one mesh and rule: the metric at ``points``, laid out (q, T),
    gives the upper ``edge`` entries (``mirror`` copies each entry's upper
    counterpart) through ``phi_a`` and ``phi_b``, and ``vertex`` through ``phi_c``."""

    weights: np.ndarray
    points: np.ndarray
    phi_a: sp.csc_matrix
    phi_b: sp.csc_matrix
    phi_c: sp.csc_matrix
    mirror: np.ndarray
    edge: sp.csr_matrix
    vertex: sp.csr_matrix


def build_metric_maps(mesh: ReferenceMesh, affine: bool) -> MetricMaps:
    """The maps of a mesh for a rule; ``ReferenceMesh.metric_maps`` keeps them."""
    bary, wts = quadrature_rule(affine)
    X = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    g, area = _bary_gradients(X)
    sgn = mesh.tri_edge_signs.astype(float)
    ntri, n = X.shape[0], mesh.n_curl
    w_edge = np.empty((len(wts), ntri, 3, 2))  # edge functions at the points
    for e, (a, b) in enumerate(_LOCAL_EDGES):
        w_edge[:, :, e] = bary[:, a, None, None] * g[:, b] - bary[:, b, None, None] * g[:, a]
    w_edge *= sgn[:, :, None]
    weight = wts[:, None] * area  # (q, T)

    eidx = mesh.interior_edge_index[mesh.tri_edges]
    tri, e, f = np.nonzero((eidx[:, :, None] >= 0) & (eidx[:, None, :] >= 0))
    r, c = eidx[tri, e], eidx[tri, f]
    edge, keys, entry = _pattern(r, c, (n, n))
    lower_upper = np.sort(np.divmod(keys, n), axis=0)  # (min, max) of (row, col)
    mirror = np.searchsorted(keys, lower_upper[0] * n + lower_upper[1])
    up = r <= c  # each upper entry from its local pairs in that order
    tri, e, f, upper = tri[up], e[up], f[up], entry[up]
    # the curl of an edge function is its sign over the triangle's area
    vals = sgn[tri, e] * sgn[tri, f] / area[tri]
    phi_a = _metric_map(upper, keys.size, tri, vals, ntri)
    vals = weight[:, tri] * _sym_products(w_edge[:, tri, e], w_edge[:, tri, f])
    phi_b = _metric_map(upper, keys.size, tri, vals, ntri)
    vidx = mesh.interior_vertex_index[mesh.triangles]
    tri, e, v = np.nonzero((eidx[:, :, None] >= 0) & (vidx[:, None, :] >= 0))
    vertex, keys, entry = _pattern(eidx[tri, e], vidx[tri, v], (n, mesh.n_grad))
    vals = weight[:, tri] * _sym_products(w_edge[:, tri, e], g[tri, v])
    phi_c = _metric_map(entry, keys.size, tri, vals, ntri)
    points = np.einsum("qi,tid->qtd", bary, X).reshape(-1, 2)
    return MetricMaps(wts, points, phi_a, phi_b, phi_c, mirror, edge, vertex)


def _jacobians(maps: MetricMaps, family: MappingFamily, t: float):
    """J and 1 / det J at the quadrature points, checking det J > 0."""
    J = family.jacobians(maps.points, t)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0.0):
        bad = int(np.argmax(det <= 0.0))
        raise GeometryError(f"non-positive jacobian determinant at t={t!r}, quadrature "
                            f"point {tuple(maps.points[bad])}, det={det[bad]!r}")
    return J, 1.0 / det


def _adjugate_gram(P, Q):
    """adj(P^T Q + Q^T P) per point as the rows (s00, s01, s11)."""
    k00 = 2.0 * (P[:, 0, 0] * Q[:, 0, 0] + P[:, 1, 0] * Q[:, 1, 0])
    k11 = 2.0 * (P[:, 0, 1] * Q[:, 0, 1] + P[:, 1, 1] * Q[:, 1, 1])
    k01 = (P[:, 0, 0] * Q[:, 0, 1] + P[:, 1, 0] * Q[:, 1, 1]
           + P[:, 0, 1] * Q[:, 0, 0] + P[:, 1, 1] * Q[:, 1, 0])
    return np.stack([k11, -k01, k00])


def _filled(template, values):
    return sp.csr_matrix((values, template.indices, template.indptr), template.shape)


def assemble(mesh: ReferenceMesh, family: MappingFamily, t: float) -> AssembledSystem:
    """Assemble A(t), B(t), C(t) for one parameter, with the mesh's G.

    Raises GeometryError when det J <= 0 at any quadrature point, reporting
    the offending point and parameter value.
    """
    maps = mesh.metric_maps(family.affine)
    J, inv_det = _jacobians(maps, family, t)
    c = maps.weights @ inv_det.reshape(maps.weights.size, -1)
    s = (0.5 * _adjugate_gram(J, J) * inv_det).ravel()  # adj(J^T J) / det J
    E, m = maps.edge, maps.mirror
    return AssembledSystem(
        t=float(t), A=_filled(E, (maps.phi_a @ c)[m]), B=_filled(E, (maps.phi_b @ s)[m]),
        C=_filled(maps.vertex, maps.phi_c @ s), G=mesh.gradient,
    )


def matrix_derivatives(mesh: ReferenceMesh, family: MappingFamily, t: float):
    """Exact t-derivatives (A'(t), B'(t)): the maps of ``assemble`` applied to
    c'(t) and s'(t). With J' = J(x, 1) - J(x, 0), kept by the mesh, K = J^T J
    and K' = J'^T J + J^T J': (1/det)' = -det'/det^2,
    (adj(K)/det)' = (adj(K') - adj(K) det'/det)/det.
    """
    maps = mesh.metric_maps(family.affine)
    J, inv_det = _jacobians(maps, family, t)
    dJ = mesh.jacobian_rate(family)
    rate = inv_det * (dJ[:, 0, 0] * J[:, 1, 1] + J[:, 0, 0] * dJ[:, 1, 1]
                      - dJ[:, 0, 1] * J[:, 1, 0] - J[:, 0, 1] * dJ[:, 1, 0])  # det'/det
    dc = maps.weights @ (-rate * inv_det).reshape(maps.weights.size, -1)
    ds = (_adjugate_gram(dJ, J) - 0.5 * _adjugate_gram(J, J) * rate) * inv_det
    E, m = maps.edge, maps.mirror
    return _filled(E, (maps.phi_a @ dc)[m]), _filled(E, (maps.phi_b @ ds.ravel())[m])
