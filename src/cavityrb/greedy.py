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

from .errors import GapUndefinedError
from .eigensolve import cluster_of, solve_dense_gevp
from .gauge import mass_factor
from .pod import ReducedBasis, upscale
from .problem import CavityProblem

RESIDUAL_FORMS = ("mass", "mass-inverse")


@dataclass
class GreedyConfig:
    """Greedy loop parameters.

    The initial basis should carry at least ceil(1.5 (K + tau)) vectors for
    the estimator gaps to be reliable; smaller values are allowed but warn.
    """

    K: int
    tau: int
    N_init: int
    xi_train: np.ndarray
    tol: float
    N_max: int
    delta_mult: float = 1e-6
    residual_form: str = "mass"

    def __post_init__(self):
        self.xi_train = np.asarray(self.xi_train, dtype=float)
        if self.K < 1 or self.tau < 0:
            raise ValueError("need K >= 1 and tau >= 0")
        if self.tol <= 0:
            raise ValueError(f"estimator tolerance must be positive, got {self.tol}")
        if self.xi_train.size == 0:
            raise ValueError("training set is empty")
        if self.residual_form not in RESIDUAL_FORMS:
            raise ValueError(f"residual_form must be one of {RESIDUAL_FORMS}")
        if self.N_init < self.recommended_n_init():
            warnings.warn(
                f"N_init={self.N_init} is below the recommended "
                f"{self.recommended_n_init()} = ceil(1.5 (K + tau)); "
                "estimator reliability may suffer",
                stacklevel=3,
            )

    def recommended_n_init(self) -> int:
        return math.ceil(1.5 * (self.K + self.tau))


@dataclass
class ErrorEstimate:
    """One estimator evaluation with its recombinable components."""

    t: float
    mode: int
    eta: float
    residual_quadform: float
    gap: float
    lam_red: float
    valid: bool = True


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


def gap(lambdas_red: np.ndarray, i: int, delta_mult: float = 1e-6) -> float:
    """Relative distance from eigenvalue i to its nearest distinct neighbor.

    Neighbors inside the multiplicity cluster of i are excluded, since they
    approximate the same high-fidelity eigenvalue. Raises GapUndefinedError
    when the whole spectrum is one cluster.
    """
    lam = np.asarray(lambdas_red, dtype=float)
    cluster = set(cluster_of(lam, i, delta_mult).tolist())
    outside = [j for j in range(lam.size) if j not in cluster]
    if not outside:
        raise GapUndefinedError(
            f"no eigenvalue outside the multiplicity cluster of index {i}"
        )
    j = min(outside, key=lambda jj: abs(lam[jj] - lam[i]))
    return abs((lam[j] - lam[i]) / lam[j])


def residual(Z, v_red, lam_red: float, A, B) -> np.ndarray:
    """Full-space residual of an upscaled reduced eigenpair."""
    v = upscale(np.asarray(Z, dtype=float), np.asarray(v_red, dtype=float))
    return A @ v - lam_red * (B @ v)


def estimate(
    system,
    U,
    i: int,
    lambdas_red: np.ndarray,
    vectors_red: np.ndarray,
    delta_mult: float = 1e-6,
    residual_form: str = "mass",
    b_factor=None,
) -> ErrorEstimate:
    """Gap-weighted residual estimate for reduced mode i at one parameter.

    eta_i = (r^T B r) / (d_i lam_red_i) with the residual of the eigenpair
    upscaled by U (the third entry of ``reduced_pencil``); the optional
    mass-inverse form replaces the numerator with r^T B^{-1} r.
    """
    lam_i = float(lambdas_red[i])
    try:
        d_i = gap(lambdas_red, i, delta_mult)
    except GapUndefinedError:
        return ErrorEstimate(
            t=system.t, mode=i, eta=np.inf, residual_quadform=np.nan,
            gap=np.nan, lam_red=lam_i, valid=False,
        )
    r = residual(U, vectors_red[:, i], lam_i, system.A, system.B)
    if residual_form == "mass":
        quad = float(r @ (system.B @ r))
    elif residual_form == "mass-inverse":
        if b_factor is None:
            b_factor = mass_factor(system.B)
        quad = float(r @ b_factor.solve(r))
    else:
        raise ValueError(f"residual_form must be one of {RESIDUAL_FORMS}")
    eta = quad / (d_i * lam_i)
    return ErrorEstimate(
        t=system.t, mode=i, eta=eta, residual_quadform=quad,
        gap=d_i, lam_red=lam_i,
    )


def _sweep(problem, Z, config):
    """Estimator values over the training set, shape (N_train, K)."""
    n_train = config.xi_train.size
    etas = np.empty((n_train, config.K))
    for it_t, t in enumerate(config.xi_train):
        sys_t = problem.system(float(t))
        b_factor = None
        if config.residual_form == "mass-inverse":
            b_factor = problem.mass_factor(float(t))
        A_red, B_red, U = problem.reduced_pencil(Z, float(t), factor=b_factor)
        lam, V = solve_dense_gevp(A_red, B_red)
        keep = min(config.K + config.tau, lam.size)
        lam_k = lam[:keep]
        for i in range(config.K):
            if i >= lam_k.size:
                etas[it_t, i] = np.inf
                continue
            est = estimate(
                sys_t, U, i, lam_k, V,
                delta_mult=config.delta_mult,
                residual_form=config.residual_form, b_factor=b_factor,
            )
            etas[it_t, i] = est.eta
    return etas


def _enrichment_vectors(problem, t_star: float, i_star: int, config):
    """Full multiplicity-cluster eigenspace of mode i_star at t_star."""
    available = problem.n_curl - problem.n_grad
    k_solve = min(config.K + config.tau + 2, available)
    while True:
        lams, vectors = problem.snapshot_solve(t_star, k_solve)
        cluster = cluster_of(lams, i_star, config.delta_mult)
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
    smallest training parameter, then the smallest mode index. Returns the
    extended basis and a per-iteration log.
    """
    Z = np.array(basis.Z, dtype=float, copy=True)
    provenance = list(basis.provenance)
    log = GreedyLog()
    iteration = 0
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
