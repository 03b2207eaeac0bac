"""Removal of spurious gradient content from bases and systems.

Three interchangeable strategies:

* orthogonalization of basis columns against the gradient space in the
  fixed mass inner product B(t_ref), then re-orthonormalization in it
  (cheap, but ties divergence-freeness to one domain),
* the grad-div projector alone (same fixed-parameter limitation); both
  apply the ``GradientProjector`` of B(t_ref),
* tree-cotree condensation, which eliminates the gradient kernel purely
  topologically and therefore works uniformly in the deformation parameter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GeometryError, NumericalError
from .eigensolve import DROP_TOL, b_orthonormalize, residual_norms
from .geometry import ReferenceMesh

# Shift of the shift-invert solve: below the physical spectrum, which starts
# at a positive eigenvalue, so A - sigma B is positive definite.
SHIFT = -1.0
# Largest relative eigen-residual ||A v - lam B v|| / (lam ||B v||) a
# returned pair may have; the tracker's derivative rule needs 1e-8.
EIGEN_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class TreeCotree:
    """Partition of interior-edge unknowns into tree and cotree index sets.

    The tree spans the interior vertices against a single root that stands
    for the whole (eliminated) boundary, so there are exactly n_grad tree
    edges. Indices refer to the interior-edge numbering. ``tree_block`` is
    the square tree block G[tree, :] of the discrete gradient.
    """

    tree: np.ndarray
    cotree: np.ndarray
    n_curl: int
    tree_block: sp.csc_matrix = field(compare=False, repr=False)

    def __post_init__(self):
        both = np.concatenate([self.tree, self.cotree])
        if len(np.unique(both)) != self.n_curl or len(both) != self.n_curl:
            raise GeometryError("tree/cotree sets do not partition the edge unknowns")

    @cached_property
    def tree_lu(self):
        """Sparse LU of the tree block, factored once, at the first tree map."""
        return spla.splu(self.tree_block)


def mass_factor(B):
    """Sparse LU of a symmetric positive-definite matrix; a failed
    factorization is a NumericalError.

    Every SPD matrix of the package is factored here: the mass matrix B,
    the shifted A - sigma B, the gradient Gram matrix G^T B G and the
    greedy's stacked B. The factorization orders it symmetrically and keeps
    its diagonal pivots: about a third less fill, factor and solve time than
    the default column ordering with pivoting.
    """
    try:
        return spla.splu(
            sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"mass-matrix factorization failed: {exc}") from exc


def build_tree_cotree(mesh: ReferenceMesh) -> TreeCotree:
    """Breadth-first spanning tree on interior vertices with a boundary root.

    All boundary vertices are identified with one super-node (their edge
    unknowns are eliminated anyway). Neighbors are visited in ascending
    (vertex, edge) order, so the partition is deterministic. Interior edges
    joining two boundary vertices can never be tree edges.
    """
    n_curl = mesh.n_curl
    n_grad = mesh.n_grad
    root = -1

    def node_of(v: int) -> int:
        return root if mesh.boundary_vertex[v] else int(v)

    adjacency: dict[int, list[tuple[int, int]]] = {}
    interior_edges = np.flatnonzero(mesh.interior_edge_index >= 0)
    for eid in interior_edges:
        lo, hi = mesh.edges[eid]
        a, b = node_of(lo), node_of(hi)
        ie = int(mesh.interior_edge_index[eid])
        if a == b:
            continue
        adjacency.setdefault(a, []).append((b, ie))
        adjacency.setdefault(b, []).append((a, ie))
    for nbrs in adjacency.values():
        nbrs.sort()

    visited = {root}
    tree = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nbr, ie in adjacency.get(node, ()):
            if nbr in visited:
                continue
            visited.add(nbr)
            tree.append(ie)
            queue.append(nbr)
    if len(tree) != n_grad:
        raise GeometryError(
            f"spanning tree reached {len(tree)} interior vertices, expected {n_grad}"
        )
    tree_arr = np.array(sorted(tree), dtype=int)
    mask = np.ones(n_curl, dtype=bool)
    mask[tree_arr] = False
    return TreeCotree(
        tree=tree_arr, cotree=np.flatnonzero(mask), n_curl=n_curl,
        tree_block=sp.csc_matrix(mesh.gradient[tree_arr, :]),
    )


def expand_cotree(Y, A, tc: TreeCotree, factor):
    """Cotree expansion X Y with X = B^{-1} A[:, cotree] = B^{-1} H^T.

    H collects the cotree rows of A and ``factor`` is a factorization of B.
    The expanded columns are discretely divergence-free with respect to that
    B, and the condensed pencil of the cotree coordinates is
    (X^T A X, H X): its spectrum equals the nonzero spectrum of (A, B).
    """
    H = sp.csr_matrix(A)[tc.cotree, :]
    return factor.solve(H.T @ np.asarray(Y, dtype=float))


def cotree_metric(A, tc: TreeCotree, factor):
    """The cotree inner product B_hat = H X = H B^{-1} H^T as an operator.

    ``metric @ Y`` is H (B^{-1} (H^T Y)) for a vector or a block of columns:
    one sparse product each way and one solve by ``factor``, a factorization
    of B. The n_cot x n_cot matrix itself is never formed.
    """
    H = sp.csr_matrix(A)[tc.cotree, :]

    def apply(Y):
        return H @ factor.solve(H.T @ Y)

    return spla.LinearOperator((H.shape[0],) * 2, matvec=apply, matmat=apply, dtype=float)


class GradientProjector:
    """P = I - G (G^T B G)^{-1} G^T B, the B-orthogonal projector off the
    gradients (Arbenz & Drmac 2002): P G = 0 and P^2 = P.

    It keeps the coupling block G^T B as CSR and the ``mass_factor`` of the
    gradient Gram matrix G^T B G. A G without full column rank makes that
    factorization fail: a NumericalError.
    """

    def __init__(self, B, G):
        self.B = B
        self.G = G
        self.GtB = sp.csr_matrix(G.T @ B)
        try:
            self.gram = mass_factor(self.GtB @ G)
        except NumericalError as exc:  # SuperLU's RuntimeError is its cause
            raise NumericalError(
                f"gradient Gram matrix is singular: {exc.__cause__}"
            ) from exc

    def gradient_part(self, g):
        """G (G^T B G)^{-1} g: the gradient whose coupling G^T B is g."""
        return self.G @ self.gram.solve(g)

    def project(self, V):
        """P V, the B-orthogonal projection of vectors off the gradients."""
        return V - self.gradient_part(self.GtB @ V)


class ProjectedInverse:
    """The shift-inverted pencil at one parameter, restricted to the
    discretely divergence-free vectors: P (A - sigma B)^{-1}, with P the
    ``GradientProjector`` of B.

    A G = 0 makes (A - sigma B) G = -sigma B G, so P (A - sigma B)^{-1} is
    symmetric, inverts A - sigma B on the divergence-free vectors and maps
    the gradients to zero (Arbenz & Drmac 2002). It holds the projector and
    the ``mass_factor`` of A - sigma B.
    """

    def __init__(self, A, B, G):
        self.projector = GradientProjector(B, G)
        self.shifted = mass_factor(A - SHIFT * B)

    def solve(self, X):
        """P (A - sigma B)^{-1} X for a vector or a block of columns."""
        return self.projector.project(self.shifted.solve(X))


def condensed_eigensolve(A, B, G, k: int, factor=None):
    """First k physical eigenpairs of (A, B): ascending eigenvalues and
    B-orthonormal full-space vectors.

    Shift-invert Lanczos on the ``ProjectedInverse`` of the pencil, which
    inverts A - sigma B on the discretely divergence-free vectors and maps
    the gradient kernel to infinity, so no null mode is computed. ``factor``
    is a zero-argument callable returning that operator, for callers that
    keep it; by default it is factored here. A start vector fixed by the
    size and a sign convention (the entry of largest magnitude of each
    vector is positive) make reruns byte-identical. A relative
    eigen-residual above EIGEN_RESIDUAL_TOL raises NumericalError. Any k up
    to all n - n_grad physical pairs is solved so, but not all n pairs of a
    pencil without a gradient space (no interior vertex).
    """
    n, n_grad = G.shape
    if n - n_grad < k:
        raise NumericalError(
            f"pencil has only {n - n_grad} physical eigenvalues, requested {k}"
        )
    if k >= n:
        raise NumericalError(
            f"shift-invert Lanczos cannot return all {n} eigenpairs of the pencil"
        )
    inverse = factor() if factor is not None else ProjectedInverse(A, B, G)
    op = spla.LinearOperator((n, n), matvec=inverse.solve, dtype=float)
    # Lanczos finds the second copy of a multiple eigenvalue only by rounding
    # over its restarts. Past a quarter of the spectrum it restarts too seldom
    # (the square at mesh_n = 8 lost a copy at k = 45 of 127), so there its
    # basis spans the whole space, within 4x of the k vectors it returns.
    whole_space = 4 * (k + 1) > n - n_grad
    try:
        lam, V = spla.eigsh(
            A, k, M=B, sigma=SHIFT, which="LM", OPinv=op,
            v0=np.cos(np.arange(n, dtype=float)),
            ncv=n if whole_space else None,
        )
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert Lanczos failed: {exc}") from exc
    if whole_space:
        # the basis vectors past the n - n_grad divergence-free directions
        # are rounding noise that lies in the gradient space, and the Ritz
        # vectors pick up 10-20x the divergence of a dense solve from them;
        # the B-orthogonal projection off the gradients removes it
        V = inverse.projector.project(V)
    order = np.argsort(lam, kind="stable")
    lam, V = lam[order], V[:, order]
    peak = np.abs(V).argmax(axis=0)
    V = V * np.sign(V[peak, np.arange(k)])
    worst = float(residual_norms(A, B, lam, V).max())
    if not worst <= EIGEN_RESIDUAL_TOL:
        raise NumericalError(
            f"eigen-residual {worst:.2e} exceeds {EIGEN_RESIDUAL_TOL:.0e}"
        )
    return lam, V


def cotree_coordinates(V, lambdas, G, tc: TreeCotree):
    """Cotree coordinates Y of physical eigenvectors, expand_cotree(Y) = V.

    A v = lam B v and A G = 0 make y = (v / lam - G phi)[cotree], with
    G[tree, :] phi = v[tree] / lam, the unique such Y.
    """
    W = V / lambdas
    if len(tc.tree):
        W = W - G @ tc.tree_lu.solve(W[tc.tree])
    return W[tc.cotree]


def gram_schmidt_clean(Z, projector: GradientProjector):
    """Orthogonalize basis columns against the gradient space in the
    projector's inner product B.

    The projection is applied twice: one sparse solve leaves its rounding
    error in the gradient space. Columns that collapse to (numerically) pure
    gradients are dropped and reported; the rest are re-orthonormalized in B.

    Returns (Z_orth, dropped_column_indices).
    """
    Z = np.array(Z, dtype=float, copy=True)
    if projector.G.shape[1] == 0:
        return Z, []
    B0 = projector.B
    before = np.sqrt(np.maximum(np.einsum("ij,ij->j", Z, B0 @ Z), 0.0))
    Z = projector.project(projector.project(Z))
    after = np.sqrt(np.maximum(np.einsum("ij,ij->j", Z, B0 @ Z), 0.0))
    alive = after >= DROP_TOL * np.maximum(before, np.finfo(float).tiny)
    dropped = [int(i) for i in np.flatnonzero(~alive)]
    Z, kept = b_orthonormalize(Z[:, alive], B0)
    alive_idx = [int(i) for i in np.flatnonzero(alive)]
    dropped += [alive_idx[i] for i in range(len(alive_idx)) if i not in kept]
    return Z, sorted(dropped)
