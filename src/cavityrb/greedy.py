"""Multi-eigenvalue greedy extension of the reduced basis.

Each sweep solves the reduced pencil on the whole training set, scores every
tracked eigenvalue with a residual/gap a-posteriori estimator, and enriches
the basis with the full high-fidelity eigenspace of the worst (t, mode)
pair. Multiplicity clusters are always appended whole.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import gauge
from .eigensolve import (
    DEFAULT_MULT_TOL, cluster_breaks, eigenvalue_clusters, solve_dense_gevp,
)
from .errors import ConfigError, require
from .pod import ReducedBasis, reduce_system
from .problem import CavityProblem

RESIDUAL_FORMS = ("mass", "mass-inverse")


def recommended_n_init(K: int, tau: int) -> int:
    """Initial basis size ceil(1.5 (K + tau)) for reliable estimator gaps."""
    return math.ceil(1.5 * (K + tau))


@dataclass
class GreedyConfig:
    """Greedy loop parameters; a bad value raises ConfigError.

    The initial size is that of the basis ``greedy_extend`` receives. It
    should be at least ceil(1.5 (K + tau)) for the estimator gaps to be
    reliable; smaller sizes are allowed but warn. ``tol = inf`` accepts
    the initial basis as it is.
    """

    K: int
    tau: int
    xi_train: np.ndarray
    tol: float
    N_max: int
    delta_mult: float = DEFAULT_MULT_TOL
    residual_form: str = "mass"

    def __post_init__(self):
        self.xi_train = np.asarray(self.xi_train, dtype=float)
        require(self.K >= 1, "K", "must be >= 1", self.K)
        require(self.tau >= 0, "tau", "must be >= 0", self.tau)
        require(self.tol > 0, "tol", "must be positive", self.tol)
        require(0 < self.delta_mult < np.inf, "delta_mult",
                "must be positive and finite", self.delta_mult)
        if not (self.xi_train.size and np.isfinite(self.xi_train).all()):
            raise ConfigError("xi_train must be non-empty and finite", "xi_train")
        require(
            self.residual_form in RESIDUAL_FORMS, "residual_form",
            f"must be one of {RESIDUAL_FORMS}", self.residual_form,
        )


@dataclass
class GreedyRecord:
    iteration: int
    t_star: float
    mode_star: int
    max_eta: float
    basis_size: int
    appended: int = 0
    skipped: int = 0


@dataclass
class GreedyLog:
    records: list = field(default_factory=list)
    status: str = "converged"

    def rows(self):
        return [
            (r.iteration, r.t_star, r.mode_star, r.max_eta, r.basis_size)
            for r in self.records
        ]

    def sizes(self, n_init: int) -> list:
        """Sizes of the bases the greedy went through: the initial one and
        one per iteration that appended columns. The greedy only appends,
        so each of these bases is the leading columns of the one it
        returned."""
        return [n_init] + [r.basis_size for r in self.records if r.appended]


def relative_gaps(
    lambdas_red: np.ndarray, delta_mult: float = DEFAULT_MULT_TOL
) -> np.ndarray:
    """Relative distance |lam_j - lam_i| / |lam_j| from every eigenvalue i
    to the nearest eigenvalue j outside its multiplicity cluster (the lower
    one on a tie), for each ascending spectrum along the last axis: one
    (m,) spectrum or a (T, m) stack of them, row by row.

    Neighbors inside the cluster of i are excluded, since they approximate
    the same high-fidelity eigenvalue. The gap is nan where the whole
    spectrum is one cluster.
    """
    x = np.asarray(lambdas_red, dtype=float)
    breaks = cluster_breaks(x, delta_mult)
    # the nearest outside a cluster are the top of the cluster below and the
    # bottom of the one above; a missing side is infinitely far, so a
    # spectrum of one cluster gets inf / inf = nan
    inf = np.full((*x.shape[:-1], 1), np.inf)
    below = np.concatenate([-inf, np.where(breaks, x[..., :-1], -np.inf)], axis=-1)
    above = np.concatenate([np.where(breaks, x[..., 1:], np.inf), inf], axis=-1)
    lo = np.maximum.accumulate(below, axis=-1)
    hi = np.minimum.accumulate(above[..., ::-1], axis=-1)[..., ::-1]
    j = np.where(np.abs(lo - x) <= np.abs(hi - x), lo, hi)
    with np.errstate(invalid="ignore"):
        return np.abs((j - x) / j)


def estimate(
    A,
    B,
    U,
    lambdas,
    vectors,
    K: int,
    delta_mult: float = DEFAULT_MULT_TOL,
    b_factor=None,
) -> np.ndarray:
    """Gap-weighted residual estimates of the first K reduced modes at a
    stack of T parameters, shape (T, K).

    A and B are diag(A(t_1), ..., A(t_T)) and diag(B(t_1), ..., B(t_T)),
    the pencil itself when T = 1. Row i of the (T, m) ``lambdas`` and the
    (T, N, m) ``vectors`` holds the reduced eigenpairs at t_i of the
    upscaling U[i], U of shape (T, n, N). eta = (r^T B r) / (d lam) with the
    explicit residual r = A U v - lam B U v: one sparse product by A and
    one by B for the whole stack. With ``b_factor``, a factorization of B,
    the numerator is r^T B^{-1} r (the mass-inverse form), from one solve.
    Modes past the reduced spectrum or with an undefined gap score inf.
    """
    lam = np.asarray(lambdas, dtype=float)
    T, n = U.shape[:2]
    k = min(K, lam.shape[1])
    scale = relative_gaps(lam, delta_mult)[:, :k] * lam[:, :k]  # d lam
    W = (U @ vectors[:, :, :k]).reshape(T * n, k)
    R = (A @ W).reshape(T, n, k)
    BW = (B @ W).reshape(T, n, k)
    BW *= lam[:, None, :k]
    R -= BW
    del W, BW  # before the weighting: 11 MB each at n = 48 with 40 parameters
    flat = R.reshape(T * n, k)
    weighted = B @ flat if b_factor is None else b_factor.solve(flat)
    quad = np.einsum("tij,tij->tj", R, weighted.reshape(T, n, k))
    etas = np.full((T, K), np.inf)
    scored = ~np.isnan(scale)
    etas[:, :k][scored] = quad[scored] / scale[scored]
    return etas


def _bordered(old, U, MU_new):
    """Reduced matrices U^T M U at T parameters of U = [U_old, U_new], from
    old = U_old^T M U_old (T, N - q, N - q) and MU_new = M U_new (T, n, q):
    only the new rows and columns are computed."""
    T, N, q = U.shape[0], U.shape[2], MU_new.shape[2]
    cross = U.transpose(0, 2, 1) @ MU_new
    new = cross[:, N - q :]
    out = np.empty((T, N, N))
    out[:, : N - q, : N - q] = old
    out[:, :, N - q :] = cross
    out[:, N - q :, : N - q] = cross[:, : N - q].transpose(0, 2, 1)
    out[:, N - q :, N - q :] = 0.5 * (new + new.transpose(0, 2, 1))
    return out


def _block_diagonal(mats, like=None):
    """diag(M_1, ..., M_T) of CSR matrices that share one pattern, as A(t)
    and B(t) do at every t: the concatenated data on the pattern's index
    arrays at block offsets, or on the read-only index arrays of ``like``, a
    block diagonal of that pattern and stack size."""
    data = np.concatenate([M.data for M in mats])
    if like is not None:
        return sp.csr_matrix((data, like.indices, like.indptr), like.shape)
    M, T = mats[0], len(mats)
    offsets = np.arange(T)[:, None]
    indices = (M.indices + M.shape[1] * offsets).ravel()
    indptr = np.append((M.indptr[:-1] + M.nnz * offsets).ravel(), T * M.nnz)
    out = sp.csr_matrix((data, indices, indptr), (T * M.shape[0], T * M.shape[1]))
    out.indices.flags.writeable = out.indptr.flags.writeable = False
    return out


class _TrainingSet:
    """What the greedy keeps for its training set between sweeps.

    The stacked pencil A = diag(A(t_1), ..., A(t_T)) and B likewise, built
    at construction from the one pattern of every A(t) and B(t), O(T nnz(B))
    memory: a sweep or an append is one sparse product per matrix. Per
    parameter: the upscaling U(t) of the basis (one (T, n, N) array;
    edge-space bases use Z itself) and the reduced pencil (A_N(t), B_N(t)).
    The first sweep factors each B(t), uses it and drops it. From the first
    enrichment on, one factorization of the stacked B expands appended
    columns at every parameter and weights the mass-inverse residuals.
    """

    def __init__(self, problem: CavityProblem, Z: np.ndarray, config: GreedyConfig):
        self.config = config
        self.Z = Z
        self.systems = [problem.system(t) for t in config.xi_train.tolist()]
        self.A = _block_diagonal([s.A for s in self.systems])
        self.B = _block_diagonal([s.B for s in self.systems], self.A)
        self.tc = problem.tree_cotree if problem.basis_space == "cotree" else None
        self.inverse = config.residual_form == "mass-inverse"
        self.factor = None
        T, N = len(self.systems), Z.shape[1]
        if self.tc:
            self.U = np.empty((T, problem.n_curl, N))
        else:
            self.U = np.broadcast_to(Z, (T, *Z.shape))
        self.A_N = np.empty((T, N, N))
        self.B_N = np.empty((T, N, N))
        self.fresh = True

    def sweep(self) -> np.ndarray:
        """Estimator values over the training set, shape (N_train, K): the
        (T, N, N) reduced pencils go to the dense solver as one stack."""
        T, cfg = len(self.systems), self.config
        if self.fresh:
            self.fresh = False
            return np.vstack([self._first_estimate(i) for i in range(T)])
        m = cfg.K + cfg.tau
        lambdas, vectors = solve_dense_gevp(self.A_N, self.B_N)
        return estimate(
            self.A, self.B, self.U, lambdas[:, :m], vectors[:, :, :m], cfg.K,
            cfg.delta_mult, self.factor if self.inverse else None,
        )

    def _first_estimate(self, i: int) -> np.ndarray:
        """Upscale and reduce the basis at parameter i with a factorization
        of B(t_i) made for it alone, and score that parameter."""
        s, cfg = self.systems[i], self.config
        factor = gauge.mass_factor(s.B) if self.tc or self.inverse else None
        if self.tc:
            self.U[i] = gauge.expand_cotree(self.Z, s.A, self.tc, factor)
        self.A_N[i], self.B_N[i] = reduce_system(self.U[i], s.A, s.B)
        m = cfg.K + cfg.tau
        lam, V = solve_dense_gevp(self.A_N[i : i + 1], self.B_N[i : i + 1])
        return estimate(
            s.A, s.B, self.U[i : i + 1], lam[:, :m], V[:, :, :m], cfg.K, cfg.delta_mult,
            factor if self.inverse else None,
        )

    def append(self, Q: np.ndarray):
        """Add the columns Q to the basis: expand them at every parameter
        (one stacked solve for cotree bases) and border every reduced pencil
        with their rows and columns (one stacked sparse product per matrix)."""
        T, q = len(self.systems), Q.shape[1]
        if self.factor is None and (self.tc or self.inverse):
            self.factor = gauge.mass_factor(self.B)
        if self.tc:
            # H(t)^T Q = A(t) Y for Y = Q on the cotree edges, 0 on the tree
            Y = np.zeros((self.U.shape[1], q))
            Y[self.tc.cotree] = Q
            U_new = self.factor.solve(self.A @ np.tile(Y, (T, 1)))
            self.U = np.concatenate([self.U, U_new.reshape(T, -1, q)], axis=2)
        else:
            U_new = np.tile(Q, (T, 1))
            Z = np.hstack([self.U[0], Q])
            self.U = np.broadcast_to(Z, (T, *Z.shape))
        self.A_N = _bordered(self.A_N, self.U, (self.A @ U_new).reshape(T, -1, q))
        self.B_N = _bordered(self.B_N, self.U, (self.B @ U_new).reshape(T, -1, q))


def _enrichment_vectors(problem, t_star: float, i_star: int, config, solves: dict):
    """Full multiplicity-cluster eigenspace of mode i_star at t_star.

    ``solves`` holds the ``snapshot_solve`` made at each t_star: a later pick
    at the same t reuses it, and solves again, with twice the window, only
    when the cluster reaches the kept window's edge, so multiplicities are
    never split by the solve count.
    """
    available = problem.size
    if t_star not in solves:
        solves[t_star] = problem.snapshot_solve(
            t_star, min(config.K + config.tau + 2, available)
        )
    while True:
        lams, vectors = solves[t_star]
        cluster = next(
            c for c in eigenvalue_clusters(lams, config.delta_mult) if i_star in c
        )
        if cluster[-1] < lams.size - 1 or lams.size >= available:
            return vectors[:, cluster]
        solves[t_star] = problem.snapshot_solve(t_star, min(lams.size * 2, available))


def greedy_extend(
    basis: ReducedBasis,
    config: GreedyConfig,
    problem: CavityProblem,
):
    """Grow the basis until the worst estimator value drops below tol.

    Appended eigenspaces are gauge-cleaned per the problem's strategy and
    B(t_ref)-orthonormalized against the current basis; vectors that become
    numerically dependent are skipped. Ties in the argmax resolve to the
    smallest training parameter, then the smallest mode index. The systems
    it assembles leave the problem's cache when it ends. Returns the
    extended basis and a per-iteration log. A basis above N_max is a
    ConfigError; one below ceil(1.5 (K + tau)) warns.
    """
    if basis.size > config.N_max:
        raise ConfigError(
            f"N_max={config.N_max} is below the initial basis size {basis.size}"
        )
    recommended = recommended_n_init(config.K, config.tau)
    if basis.size < recommended:
        warnings.warn(
            f"N_init={basis.size} is below the recommended {recommended} = "
            "ceil(1.5 (K + tau)); estimator reliability may suffer",
            stacklevel=2,
        )
    Z = np.array(basis.Z, dtype=float, copy=True)
    provenance = list(basis.provenance)
    log = GreedyLog()
    iteration = 0
    solves = {}  # the enrichment solves by t_star, while the greedy runs
    with problem.transient_systems():
        training = _TrainingSet(problem, Z, config)
        while True:
            iteration += 1
            etas = training.sweep()
            flat = int(np.argmax(etas))
            it_t, i_star = divmod(flat, config.K)
            t_star = float(config.xi_train[it_t])
            max_eta = float(etas[it_t, i_star])
            record = GreedyRecord(
                iteration=iteration, t_star=t_star, mode_star=i_star,
                max_eta=max_eta, basis_size=Z.shape[1],
            )
            log.records.append(record)
            if max_eta < config.tol:
                log.status = "converged"
                break
            V = _enrichment_vectors(problem, t_star, i_star, config, solves)
            V_clean, _ = problem.clean_basis(V)
            Q, kept = problem.orthonormalize(V_clean, against=Z)
            record.appended = Q.shape[1]
            record.skipped = V.shape[1] - Q.shape[1]
            if Q.shape[1] == 0:
                warnings.warn(
                    f"greedy stagnated at iteration {iteration}: every candidate at "
                    f"t={t_star!r} was numerically dependent on the basis",
                    stacklevel=2,
                )
                log.status = "stagnated"
                break
            Z = np.hstack([Z, Q])
            provenance += [
                f"greedy:{iteration}:t={t_star!r}:mode={i_star}"
                for _ in range(Q.shape[1])
            ]
            record.basis_size = Z.shape[1]
            if Z.shape[1] >= config.N_max:
                log.status = "nmax-reached"
                warnings.warn(
                    f"basis cap N_max={config.N_max} reached with max eta "
                    f"{max_eta!r} above tol {config.tol!r}",
                    stacklevel=2,
                )
                break
            training.append(Q)
    extended = ReducedBasis(
        Z=Z, t_ref=basis.t_ref, gauge=basis.gauge, provenance=provenance,
        space=basis.space,
    )
    return extended, log
