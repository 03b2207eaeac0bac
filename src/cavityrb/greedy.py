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

from .eigensolve import DEFAULT_MULT_TOL, eigenvalue_clusters, solve_dense_gevp
from .errors import ConfigError, require
from .pod import ReducedBasis
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
    system,
    U,
    lambdas_red: np.ndarray,
    vectors_red: np.ndarray,
    K: int,
    delta_mult: float = DEFAULT_MULT_TOL,
    b_factor=None,
) -> np.ndarray:
    """Gap-weighted residual estimates of the first K reduced modes at one
    parameter, as an array of length K.

    eta_i = (r_i^T B r_i) / (d_i lam_red_i) with r_i the residual of
    eigenpair i upscaled by U (the third entry of ``reduced_pencil``); with
    the factorization ``b_factor`` of B the numerator is r_i^T B^{-1} r_i
    (the mass-inverse form). All residuals come from one block product.
    Modes past the reduced spectrum or with an undefined gap score inf.
    """
    lam = np.asarray(lambdas_red, dtype=float)
    etas = np.full(K, np.inf)
    gaps = relative_gaps(lam, delta_mult)[:K]
    live = np.flatnonzero(~np.isnan(gaps))
    if not live.size:
        return etas
    W = U @ vectors_red[:, live]
    R = system.A @ W - (system.B @ W) * lam[live]
    weighted = system.B @ R if b_factor is None else b_factor.solve(R)
    quad = np.einsum("ij,ij->j", R, weighted)
    etas[live] = quad / (gaps[live] * lam[live])
    return etas


def _sweep(problem, Z, config):
    """Estimator values over the training set, shape (N_train, K)."""
    etas = np.empty((config.xi_train.size, config.K))
    for it_t, t in enumerate(config.xi_train.tolist()):
        b_factor = None
        if config.residual_form == "mass-inverse":
            b_factor = problem.mass_factor(t)
        A_red, B_red, U = problem.reduced_pencil(Z, t, factor=b_factor)
        lam, V = solve_dense_gevp(A_red, B_red)
        etas[it_t] = estimate(
            problem.system(t), U, lam[: config.K + config.tau], V, config.K,
            config.delta_mult, b_factor,
        )
    return etas


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
    callback=None,
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
        while True:
            iteration += 1
            etas = _sweep(problem, Z, config)
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
            if callback is not None:
                callback(iteration, Z)
            if Z.shape[1] >= config.N_max:
                log.status = "nmax-reached"
                warnings.warn(
                    f"basis cap N_max={config.N_max} reached with max eta "
                    f"{max_eta!r} above tol {config.tol!r}",
                    stacklevel=2,
                )
                break
    extended = ReducedBasis(
        Z=Z, t_ref=basis.t_ref, gauge=basis.gauge, provenance=provenance,
        space=basis.space,
    )
    return extended, log
