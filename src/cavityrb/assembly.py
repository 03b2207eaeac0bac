"""Sparse assembly of the curl-curl pencil on a mapped reference mesh.

Edge unknowns transform covariantly under the domain map: a field w on the
deformed domain pulls back to J^T (w o Phi) on the reference mesh, so edge
circulations (the degrees of freedom) are preserved and the scalar curl
transforms as curl w = curl w_ref / det J. All integrals are evaluated on
the reference mesh with the metric factors of the map:

    A_ij = int curl w_i curl w_j / det J
    B_ij = int w_i^T (J^T J)^{-1} w_j det J
    C_iv = int w_i^T (J^T J)^{-1} grad p_v det J

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


def quadrature_rule(family: MappingFamily):
    """Barycentric points and weights used for this mapping family."""
    if family.affine:
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


def _scatter_edge_edge(vals, mesh):
    idx = mesh.interior_edge_index[mesh.tri_edges]
    r = np.broadcast_to(idx[:, :, None], vals.shape)
    c = np.broadcast_to(idx[:, None, :], vals.shape)
    m = (r >= 0) & (c >= 0)
    M = sp.coo_matrix(
        (vals[m], (r[m], c[m])), shape=(mesh.n_curl, mesh.n_curl)
    ).tocsr()
    return (M + M.T) * 0.5


def _scatter_edge_vertex(vals, mesh):
    eidx = mesh.interior_edge_index[mesh.tri_edges]
    vidx = mesh.interior_vertex_index[mesh.triangles]
    r = np.broadcast_to(eidx[:, :, None], vals.shape)
    c = np.broadcast_to(vidx[:, None, :], vals.shape)
    m = (r >= 0) & (c >= 0)
    return sp.coo_matrix(
        (vals[m], (r[m], c[m])), shape=(mesh.n_curl, mesh.n_grad)
    ).tocsr()


def _element_matrices(mesh, family, t, derivative=False):
    """Element matrices of A, B and C at t, or of their t-derivatives.

    Both mapping families have a Jacobian affine in t, so J' = J(x, 1) -
    J(x, 0) exactly. The derivative pass runs the same quadrature loop with
    the two metric factors replaced by their derivatives: (1/det)' =
    -det'/det^2 and (adj(K)/det)' = adj(K')/det - adj(K) det'/det^2, where
    K = J^T J and K' = J'^T J + J^T J'.
    """
    bary, wts = quadrature_rule(family)
    X = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    g, area = _bary_gradients(X)
    sgn = mesh.tri_edge_signs.astype(float)

    curl = np.empty((X.shape[0], 3))
    for e, (a, b) in enumerate(_LOCAL_EDGES):
        cross = g[:, a, 0] * g[:, b, 1] - g[:, a, 1] * g[:, b, 0]
        curl[:, e] = 2.0 * cross * sgn[:, e]

    ntri = X.shape[0]
    B_loc = np.zeros((ntri, 3, 3))
    C_loc = np.zeros((ntri, 3, 3))
    inv_det_sum = np.zeros(ntri)

    for q in range(len(wts)):
        lam = bary[q]
        xq = np.einsum("i,tid->td", lam, X)
        J = family.jacobians(xq, t)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmax(det <= 0.0))
            raise GeometryError(
                "non-positive jacobian determinant at t="
                f"{t!r}, quadrature point {tuple(xq[bad])}, det={det[bad]!r}"
            )
        # (J^T J)^{-1} through the adjugate; det(J^T J) = det(J)^2
        det_k = det**2

        w_edge = np.empty((ntri, 3, 2))
        for e, (a, b) in enumerate(_LOCAL_EDGES):
            w_edge[:, e, :] = lam[a] * g[:, b, :] - lam[b] * g[:, a, :]
        w_edge *= sgn[:, :, None]

        mw = _adjugate_metric(J, J, w_edge) / det_k[:, None, None]
        inv_det = wts[q] / det
        if derivative:
            dJ = family.jacobians(xq, 1.0) - family.jacobians(xq, 0.0)
            ddet = (
                dJ[:, 0, 0] * J[:, 1, 1] + J[:, 0, 0] * dJ[:, 1, 1]
                - dJ[:, 0, 1] * J[:, 1, 0] - J[:, 0, 1] * dJ[:, 1, 0]
            )
            rate = (ddet / det)[:, None, None]
            dk_w = _adjugate_metric(dJ, J, w_edge) + _adjugate_metric(J, dJ, w_edge)
            mw = dk_w / det_k[:, None, None] - rate * mw
            inv_det = -inv_det * ddet / det

        coef = (wts[q] * area * det)[:, None, None]
        B_loc += coef * np.einsum("ted,tfd->tef", w_edge, mw)
        C_loc += coef * np.einsum("ted,tvd->tev", mw, g)
        inv_det_sum += inv_det

    A_loc = curl[:, :, None] * curl[:, None, :] * (area * inv_det_sum)[:, None, None]
    return A_loc, B_loc, C_loc


def _adjugate_metric(P, Q, w):
    """adj(P^T Q) applied to the local edge vectors w (T, 3, 2)."""
    k00 = P[:, 0, 0] * Q[:, 0, 0] + P[:, 1, 0] * Q[:, 1, 0]
    k01 = P[:, 0, 0] * Q[:, 0, 1] + P[:, 1, 0] * Q[:, 1, 1]
    k10 = P[:, 0, 1] * Q[:, 0, 0] + P[:, 1, 1] * Q[:, 1, 0]
    k11 = P[:, 0, 1] * Q[:, 0, 1] + P[:, 1, 1] * Q[:, 1, 1]
    out = np.empty_like(w)
    out[:, :, 0] = k11[:, None] * w[:, :, 0] - k01[:, None] * w[:, :, 1]
    out[:, :, 1] = -k10[:, None] * w[:, :, 0] + k00[:, None] * w[:, :, 1]
    return out


def assemble(mesh: ReferenceMesh, family: MappingFamily, t: float) -> AssembledSystem:
    """Assemble A(t), B(t), C(t) for one parameter, with the mesh's G.

    Raises GeometryError when det J <= 0 at any quadrature point, reporting
    the offending point and parameter value.
    """
    A_loc, B_loc, C_loc = _element_matrices(mesh, family, t)
    return AssembledSystem(
        t=float(t),
        A=_scatter_edge_edge(A_loc, mesh),
        B=_scatter_edge_edge(B_loc, mesh),
        C=_scatter_edge_vertex(C_loc, mesh),
        G=mesh.gradient,
    )


def matrix_derivatives(mesh: ReferenceMesh, family: MappingFamily, t: float):
    """Exact t-derivatives (A'(t), B'(t)) of the assembled pencil.

    One derivative pass of the assembly quadrature; the matrices share the
    sparsity pattern of A(t) and B(t).
    """
    A_loc, B_loc, _ = _element_matrices(mesh, family, t, derivative=True)
    return _scatter_edge_edge(A_loc, mesh), _scatter_edge_edge(B_loc, mesh)
