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
from .eigensolve import DEFAULT_MULT_TOL, eigenvalue_clusters, solve_dense_gevp
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
    one on a tie), from one clustering of the spectrum.

    Neighbors inside the cluster of i are excluded, since they approximate
    the same high-fidelity eigenvalue. The gap is nan where the whole
    spectrum is one cluster.
    """
    lam = np.asarray(lambdas_red, dtype=float)
    clusters = eigenvalue_clusters(lam, delta_mult)
    gaps = np.full(lam.size, np.nan)
    if len(clusters) < 2:
        return gaps
    # in value order, the nearest outside a cluster are the top of the
    # cluster below and the bottom of the one above; a missing side is
    # infinitely far
    order = np.concatenate(clusters)
    x = lam[order]
    sizes = [c.size for c in clusters]
    first = np.cumsum(sizes) - sizes
    lo = np.repeat(np.append(np.inf, x[first[1:] - 1]), sizes)
    hi = np.repeat(np.append(x[first[1:]], np.inf), sizes)
    j = np.where(np.abs(lo - x) <= np.abs(hi - x), lo, hi)
    gaps[order] = np.abs((j - x) / j)
    return gaps


def estimate(
    systems,
    U,
    lambdas,
    vectors,
    K: int,
    delta_mult: float = DEFAULT_MULT_TOL,
    b_factor=None,
) -> np.ndarray:
    """Gap-weighted residual estimates of the first K reduced modes at a
    stack of T parameters, shape (T, K).

    Row i scores the reduced eigenpairs (lambdas[i], vectors[i]) of the
    upscaling U[i] on the pencil of systems[i]: eta = (r^T B r) / (d lam)
    with the explicit residual r = A U v - lam B U v. With ``b_factor``, a
    factorization of diag(B_1, ..., B_T) (of B itself when T = 1), the
    numerator is r^T B^{-1} r (the mass-inverse form), from one solve for
    the whole stack. Modes past the reduced spectrum or with an undefined
    gap score inf.
    """
    T, n = len(systems), U[0].shape[0]
    R = np.zeros((T, n, K))
    scale = np.full((T, K), np.nan)  # d lam of the scored modes
    for i, (s, lam, V) in enumerate(zip(systems, lambdas, vectors)):
        gaps = relative_gaps(lam, delta_mult)[:K]
        live = np.flatnonzero(~np.isnan(gaps))
        W = U[i] @ V[:, live]
        R[i][:, live] = s.A @ W - (s.B @ W) * lam[live]
        scale[i, live] = gaps[live] * lam[live]
    if b_factor is None:
        weighted = np.stack([s.B @ r for s, r in zip(systems, R)])
    else:
        weighted = b_factor.solve(R.reshape(T * n, K)).reshape(T, n, K)
    quad = np.einsum("tij,tij->tj", R, weighted)
    etas = np.full((T, K), np.inf)
    scored = ~np.isnan(scale)
    etas[scored] = quad[scored] / scale[scored]
    return etas


def _bordered(old, U, MU_new):
    """Reduced matrix U^T M U of U = [U_old, U_new] from old = U_old^T M U_old
    and MU_new = M U_new: only the new rows and columns are computed."""
    N, q = U.shape[1], MU_new.shape[1]
    cross = U.T @ MU_new
    out = np.empty((N, N))
    out[: N - q, : N - q] = old
    out[:, N - q :] = cross
    out[N - q :, : N - q] = cross[: N - q].T
    out[N - q :, N - q :] = 0.5 * (cross[N - q :] + cross[N - q :].T)
    return out


class _TrainingSet:
    """What the greedy keeps for its training set between sweeps.

    Per training parameter: the upscaling U(t) of the basis (all of them in
    one (N_train, n, N) array; edge-space bases use Z itself) and the
    reduced pencil (A_N(t), B_N(t)). The first sweep factors each B(t),
    uses it and drops it. From the first enrichment on, one factorization
    of diag(B(t_1), ..., B(t_T)) expands appended columns at every
    parameter in one solve and weights the mass-inverse residuals. A greedy
    that converges on its first sweep never builds it.
    """

    def __init__(self, problem: CavityProblem, Z: np.ndarray, config: GreedyConfig):
        self.config = config
        self.Z = Z
        self.systems = [problem.system(t) for t in config.xi_train.tolist()]
        self.tc = problem.tree_cotree if problem.basis_space == "cotree" else None
        self.inverse = config.residual_form == "mass-inverse"
        self.factor = self.Ht = None
        T, N = len(self.systems), Z.shape[1]
        if self.tc:
            self.U = np.empty((T, problem.n_curl, N))
        else:
            self.U = np.broadcast_to(Z, (T, *Z.shape))
        self.A_N = np.empty((T, N, N))
        self.B_N = np.empty((T, N, N))
        self.fresh = True

    def sweep(self) -> np.ndarray:
        """Estimator values over the training set, shape (N_train, K)."""
        T, cfg = len(self.systems), self.config
        if self.fresh:
            self.fresh = False
            return np.vstack([self._first_estimate(i) for i in range(T)])
        lambdas, vectors = zip(*(self._reduced_pairs(i) for i in range(T)))
        return estimate(
            self.systems, self.U, lambdas, vectors, cfg.K, cfg.delta_mult,
            self.factor if self.inverse else None,
        )

    def _first_estimate(self, i: int) -> np.ndarray:
        """Upscale and reduce the basis at parameter i with a factorization
        of B(t_i) made for it alone, and score that parameter."""
        s, cfg = self.systems[i], self.config
        factor = gauge.mass_factor(s.B) if self.tc or self.inverse else None
        if self.tc:
            self.U[i] = gauge.expand_cotree(self.Z, s.A, self.tc, factor)
        self.A_N[i], self.B_N[i] = reduce_system(self.U[i], s.A, s.B)
        lam, V = self._reduced_pairs(i)
        return estimate(
            [s], self.U[i : i + 1], [lam], [V], cfg.K, cfg.delta_mult,
            factor if self.inverse else None,
        )

    def _reduced_pairs(self, i: int):
        lam, V = solve_dense_gevp(self.A_N[i], self.B_N[i])
        return lam[: self.config.K + self.config.tau], V

    def append(self, Q: np.ndarray):
        """Add the columns Q to the basis: expand them at every parameter
        (one stacked solve for cotree bases) and border each reduced pencil
        with their rows and columns (two sparse products per parameter)."""
        T = len(self.systems)
        if self.factor is None and (self.tc or self.inverse):
            self.factor = gauge.mass_factor(
                sp.block_diag([s.B for s in self.systems], format="csc")
            )
            if self.tc:
                self.Ht = gauge.stacked_cotree_columns(
                    [s.A for s in self.systems], self.tc
                )
        self.Z = np.hstack([self.Z, Q])
        if self.tc:
            U_new = self.factor.solve(self.Ht @ Q).reshape(T, -1, Q.shape[1])
            self.U = np.concatenate([self.U, U_new], axis=2)
        else:
            U_new = np.broadcast_to(Q, (T, *Q.shape))
            self.U = np.broadcast_to(self.Z, (T, *self.Z.shape))
        self.A_N = np.stack([
            _bordered(self.A_N[i], self.U[i], s.A @ U_new[i])
            for i, s in enumerate(self.systems)
        ])
        self.B_N = np.stack([
            _bordered(self.B_N[i], self.U[i], s.B @ U_new[i])
            for i, s in enumerate(self.systems)
        ])


def _enrichment_vectors(problem, t_star: float, i_star: int, config):
    """Full multiplicity-cluster eigenspace of mode i_star at t_star."""
    available = problem.size
    k_solve = min(config.K + config.tau + 2, available)
    while True:
        lams, vectors = problem.snapshot_solve(t_star, k_solve)
        cluster = next(
            c for c in eigenvalue_clusters(lams, config.delta_mult) if i_star in c
        )
        # Re-solve with a wider window when the cluster touches its edge,
        # so multiplicities are never split by the solve count.
        if cluster[-1] < lams.size - 1 or k_solve >= available:
            break
        k_solve = min(k_solve * 2, available)
    return vectors[:, cluster]


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
            V = _enrichment_vectors(problem, t_star, i_star, config)
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
