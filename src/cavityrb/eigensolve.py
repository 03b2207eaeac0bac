"""Dense generalized symmetric eigensolver, null-mode threshold and helpers.

``solve_dense_gevp`` solves whole reduced pencils; the full pencil goes to
the sparse shift-invert solve of ``gauge.condensed_eigensolve`` only.
``null_mask`` applies the relative null threshold of the error study's
null leak and the null count of ``cavityrb check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NumericalError

DEFAULT_NULL_TOL = 1e-8
DEFAULT_MULT_TOL = 1e-6
# A column whose B norm falls below this fraction of its norm before an
# orthogonalization is numerically dependent and dropped.
DROP_TOL = 1e-10


def null_mask(lam: np.ndarray, null_tol: float) -> np.ndarray:
    """True where an eigenvalue is a null mode: at or below null_tol times
    the largest magnitude in the spectrum."""
    lam_ref = max(float(np.abs(lam).max()), np.finfo(float).tiny)
    return lam <= null_tol * lam_ref


@dataclass
class EigenSolution:
    """Retained eigenpairs of one pencil, ascending, B-orthonormal columns."""

    lambdas: np.ndarray
    vectors: np.ndarray
    n_discarded_null: int
    residuals: np.ndarray = field(default=None)
    t: float = float("nan")

    @property
    def frequencies(self) -> np.ndarray:
        """f_k = sqrt(lambda_k) / (2 pi), nondimensional."""
        return np.sqrt(self.lambdas) / (2.0 * np.pi)

    @property
    def k(self) -> int:
        return len(self.lambdas)


def solve_dense_gevp(A, B):
    """All eigenpairs of a symmetric-definite pencil, no null filtering.

    The one dense eigensolver of the package, which hands it only reduced
    pencils. Sparse matrices (the tests' full-pencil oracles) are densified
    into fresh Fortran-ordered arrays that LAPACK factors in place; dense
    arrays (the cached reduced pencils) are never overwritten.
    """
    a_fresh, b_fresh = sp.issparse(A), sp.issparse(B)
    Ad = A.toarray(order="F") if a_fresh else np.asarray(A, float)
    Bd = B.toarray(order="F") if b_fresh else np.asarray(B, float)
    try:
        return scipy.linalg.eigh(Ad, Bd, overwrite_a=a_fresh, overwrite_b=b_fresh)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"mass-matrix factorization failed: {exc}") from exc


def residual_norms(A, B, lambdas, vectors) -> np.ndarray:
    """Relative residuals ||A v - lam B v|| / (lam ||B v||) per column."""
    Av = A @ vectors
    Bv = B @ vectors
    out = np.empty(len(lambdas))
    for j, lam in enumerate(lambdas):
        denom = max(abs(lam) * np.linalg.norm(Bv[:, j]), np.finfo(float).tiny)
        out[j] = np.linalg.norm(Av[:, j] - lam * Bv[:, j]) / denom
    return out


def b_orthonormalize(
    V: np.ndarray,
    B,
    against: np.ndarray | None = None,
):
    """Modified Gram-Schmidt in the B inner product with re-orthogonalization.

    Columns are first orthogonalized against ``against`` (assumed already
    B-orthonormal), then against each other; each projection pass runs twice.
    Columns whose B norm shrinks below DROP_TOL times the input norm are
    dropped. B is a matrix or an operator such as ``gauge.cotree_metric``:
    only ``B @ v`` is used. Returns (Q, kept_indices).
    """
    V = np.array(V, dtype=float, copy=True)
    if V.ndim == 1:
        V = V[:, None]
    kept_cols = []
    kept_idx = []
    for j in range(V.shape[1]):
        v = V[:, j].copy()
        before = float(np.sqrt(max(v @ (B @ v), 0.0)))
        if before == 0.0:
            continue
        for _ in range(2):
            if against is not None and against.shape[1] > 0:
                v -= against @ (against.T @ (B @ v))
            for q in kept_cols:
                v -= q * float(q @ (B @ v))
        after = float(np.sqrt(max(v @ (B @ v), 0.0)))
        if after < DROP_TOL * before:
            continue
        kept_cols.append(v / after)
        kept_idx.append(j)
    if kept_cols:
        Q = np.column_stack(kept_cols)
    else:
        Q = np.zeros((V.shape[0], 0))
    return Q, kept_idx


def cluster_breaks(s: np.ndarray, delta: float = DEFAULT_MULT_TOL) -> np.ndarray:
    """The one rule of the package for which eigenvalues approximate one
    multiple eigenvalue: along the last axis of ascending spectra ``s``,
    True between consecutive eigenvalues whose gap exceeds delta times the
    larger magnitude, where a new cluster starts. Shape (..., m - 1)."""
    scale = np.maximum(np.abs(s[..., 1:]), np.abs(s[..., :-1]))
    scale = np.maximum(scale, np.finfo(float).tiny)
    return ~(np.diff(s, axis=-1) <= delta * scale)


def eigenvalue_clusters(lambdas: np.ndarray, delta: float = DEFAULT_MULT_TOL):
    """Group a spectrum, in any order, into multiplicity clusters.

    In value order, consecutive eigenvalues stay in one cluster while
    ``cluster_breaks`` finds none between them, so clusters chain. Returns a
    list of index arrays into ``lambdas``, each ordered by value (a stable
    sort breaks ties), clusters ascending.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size == 0:
        return []
    order = np.argsort(lam, kind="stable")
    return np.split(order, np.flatnonzero(cluster_breaks(lam[order], delta)) + 1)
