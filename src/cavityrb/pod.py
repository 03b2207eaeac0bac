"""Snapshot collection and proper orthogonal decomposition of the initial basis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalError, RankDeficiencyError
from .eigensolve import b_orthonormalize

# Gram eigenvalues below this fraction of the leading one carry no usable
# POD mode.
RANK_TOL = 1e-12

if TYPE_CHECKING:  # pod is imported by problem
    from .online import PencilInterpolant
    from .problem import CavityProblem


@dataclass
class SnapshotSet:
    """Eigenvector snapshots over a parameter training set.

    Column j of Y is one eigenvector; provenance[j] = (t, mode index,
    eigenvalue) records where it came from.
    """

    parameters: np.ndarray
    Y: np.ndarray
    provenance: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.Y.shape[1]


@dataclass
class ReducedBasis:
    """Basis matrix, orthonormal in the t_ref inner product of its space.

    ``space`` records the coordinates the columns live in: "edge" for the
    full tangential space, "cotree" for the condensed coordinates of the
    tree-cotree strategy (those upscale through the parameter's expansion
    map rather than as-is). ``interpolant`` is the basis's reduced pencil
    on the problem it was built for, attached by the offline build.
    """

    Z: np.ndarray
    t_ref: float
    gauge: str
    provenance: list = field(default_factory=list)
    space: str = "edge"
    interpolant: PencilInterpolant | None = None

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def size(self) -> int:
        return self.Z.shape[1]


def collect_snapshots(problem: CavityProblem, parameters, K: int) -> SnapshotSet:
    """First K gauged eigenvectors at every parameter of the training set.

    Columns live in the problem's basis coordinate space and are stored in
    (parameter, mode) order. The snapshot parameters are one-off: systems
    first assembled here leave the problem's cache afterwards.
    """
    ts = np.asarray(parameters, dtype=float)
    if ts.size == 0:
        raise ConfigError("snapshot parameter set is empty")
    if K < 1:
        raise ConfigError(f"snapshot mode count must be >= 1, got {K}")
    columns = []
    provenance = []
    with problem.transient_systems():
        for t in ts:
            lams, vectors = problem.snapshot_solve(float(t), K)
            for j in range(K):
                v = vectors[:, j]
                if not np.all(np.isfinite(v)) or np.linalg.norm(v) == 0.0:
                    raise NumericalError(f"degenerate snapshot at t={t!r}, mode {j}")
                columns.append(v)
                provenance.append((float(t), j, float(lams[j])))
    return SnapshotSet(parameters=ts, Y=np.column_stack(columns), provenance=provenance)


def pod_basis(
    Y: np.ndarray,
    B,
    N_init: int,
    t_ref: float = 0.0,
    gauge: str = "none",
    space: str = "edge",
) -> ReducedBasis:
    """Orthonormal basis of the N_init dominant snapshot directions.

    Method of snapshots: eigendecompose the weighted Gram matrix Y^T B Y,
    keep the N_init largest modes and scale each combination Y u_i by
    1/sqrt(lam_i). Modes below RANK_TOL times the leading Gram eigenvalue
    are unusable (the scaling would amplify noise into the basis), so asking
    for more raises a rank-deficiency error that reports the achievable size.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] == 0:
        raise ConfigError("snapshot matrix must have at least one column")
    if N_init < 1:
        raise ConfigError(f"initial basis size must be >= 1, got {N_init}")
    K_gram = Y.T @ (B @ Y)
    K_gram = 0.5 * (K_gram + K_gram.T)
    lam, U = scipy.linalg.eigh(K_gram)
    lam = lam[::-1]
    U = U[:, ::-1]
    lead = max(lam[0], np.finfo(float).tiny)
    usable = int((lam > RANK_TOL * lead).sum())
    if usable < N_init:
        raise RankDeficiencyError(
            f"snapshot set supports only {usable} POD modes "
            f"(rank tolerance {RANK_TOL!r}), requested {N_init}",
            achievable=usable,
        )
    Z = Y @ (U[:, :N_init] / np.sqrt(lam[:N_init]))
    # One safety re-orthonormalization pass: trailing modes of an
    # ill-conditioned Gram matrix can lose orthogonality at the 1/sqrt(lam)
    # amplification scale.
    Z, kept = b_orthonormalize(Z, B)
    if len(kept) < N_init:
        raise RankDeficiencyError(
            f"POD basis lost rank during orthonormalization ({len(kept)} of {N_init})",
            achievable=len(kept),
        )
    provenance = [f"pod:{i}" for i in range(N_init)]
    return ReducedBasis(
        Z=Z, t_ref=t_ref, gauge=gauge, provenance=provenance, space=space
    )


def reduce_system(Z: np.ndarray, A, B):
    """Project a pencil onto the basis: (Z^T A Z, Z^T B Z), both symmetric."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != A.shape[0] or A.shape != B.shape:
        raise ValueError(
            f"dimension mismatch: basis {Z.shape}, pencil {A.shape} / {B.shape}"
        )
    A_red = Z.T @ (A @ Z)
    B_red = Z.T @ (B @ Z)
    return 0.5 * (A_red + A_red.T), 0.5 * (B_red + B_red.T)

