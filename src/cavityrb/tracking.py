"""Derivative-based eigenvalue tracking along the deformation parameter.

Each step solves a bordered linear system for the eigenpair derivatives,
predicts the pair at t + h by first-order Taylor expansion, solves the
eigenproblem there and re-identifies the tracked modes by a B-weighted
correlation assignment. Crossings show up as rank changes inside the
tracked family and are flagged; splits of previously degenerate clusters
are not crossings and stay unflagged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, NumericalError, SingularDerivativeError, require
from .eigensolve import DEFAULT_MULT_TOL, b_orthonormalize, eigenvalue_clusters
from .online import pencil_interpolant
from .pod import ReducedBasis
from .problem import CavityProblem

# "high-fidelity" tracks the physical modes of the full pencil, with the
# problem itself as the ops; "reduced" tracks the pencil of a reduced basis,
# with its ``PencilInterpolant`` as the ops. Both ops have ``size``,
# ``solve(t, k)`` and ``derivative_pencil(t)``.
SYSTEMS = ("high-fidelity", "reduced")

# Relative residual accepted for the input eigenpair and the bordered solve.
RESIDUAL_TOL = 1e-8

RECTANGLE_MAX_INDEX = 12  # largest m, n of the analytic rectangle table
MISMATCH_TOL = 0.05  # relative mismatch above which an endpoint is unclassified


@dataclass
class TrackingConfig:
    """March parameters for one tracking run.

    ``overtrack`` extra candidates are always solved beyond the tracked K;
    the candidate window additionally grows on its own whenever tracked
    modes sink deeper into the sorted spectrum, so modes that are overtaken
    by untracked curves are never lost. A bad value raises ConfigError.
    """

    K: int
    h: float
    system: str = "high-fidelity"
    rho_min: float = 0.8
    max_halvings: int = 4
    overtrack: int = 2
    delta_mult: float = DEFAULT_MULT_TOL

    def __post_init__(self):
        require(self.K >= 1, "K", "must be >= 1", self.K)
        require(0 < self.h <= 1, "h", "must lie in (0, 1]", self.h)
        require(
            self.system in SYSTEMS, "system", f"must be one of {SYSTEMS}", self.system
        )
        require(0 < self.rho_min <= 1, "rho_min", "must lie in (0, 1]", self.rho_min)
        require(self.max_halvings >= 0, "max_halvings", "must be >= 0", self.max_halvings)
        require(self.overtrack >= 0, "overtrack", "must be >= 0", self.overtrack)
        require(0 < self.delta_mult < np.inf, "delta_mult",
                "must be positive and finite", self.delta_mult)


@dataclass
class TrackStep:
    t: float
    lambdas: np.ndarray          # tracked order, not sorted
    ranks: np.ndarray            # sorted position of each tracked mode
    perm: tuple                  # rank change vs previous step
    rhos: np.ndarray             # correlation of each match (nan at t=0)
    dlambdas: np.ndarray         # derivative used to predict this step
    flags: tuple = ()
    window: int = 0


@dataclass
class TrackingTrace:
    steps: list = field(default_factory=list)
    status: str = "completed"
    labels: list | None = None

    @property
    def complete(self) -> bool:
        return self.status == "completed" and bool(self.steps) and (
            abs(self.steps[-1].t - 1.0) < 1e-12
        )

    def crossings(self):
        """(t_before, t_after, midpoint) of every flagged crossing step."""
        out = []
        for prev, step in zip(self.steps, self.steps[1:]):
            if "crossing-detected" in step.flags:
                out.append((prev.t, step.t, 0.5 * (prev.t + step.t)))
        return out

    def endpoint_lambdas(self) -> np.ndarray:
        if not self.steps:
            raise NumericalError("empty trace")
        return self.steps[-1].lambdas


def eigen_derivatives(A, B, A_prime, B_prime, v, lam, c):
    """Eigenpair derivatives from the bordered system.

    Solves
        [A - lam B   -B v] [v']     [-A' v + lam B' v]
        [  c^T B       0 ] [lam']  = [   -c^T B' v    ]
    and verifies the linear-system residual; a numerically singular border
    (multiple eigenvalue) raises SingularDerivativeError.
    """
    v = np.asarray(v, dtype=float)
    Bv = B @ v
    Av = A @ v
    scale = max(abs(lam) * np.linalg.norm(Bv), np.finfo(float).tiny)
    if np.linalg.norm(Av - lam * Bv) / scale > RESIDUAL_TOL:
        raise ValueError("input pair is not an eigenpair to the required residual")
    c = np.asarray(c, dtype=float)
    cB = B @ c
    if abs(cB @ v) < 1e-12 * max(np.linalg.norm(cB) * np.linalg.norm(v), 1e-300):
        raise ValueError("normalization vector is B-orthogonal to the eigenvector")
    rhs = np.concatenate(
        [-(A_prime @ v) + lam * (B_prime @ v), [-(c @ (B_prime @ v))]]
    )
    n = v.shape[0]
    if sp.issparse(A):
        M = sp.bmat(
            [
                [A - lam * B, -sp.csc_matrix(Bv.reshape(n, 1))],
                [sp.csc_matrix(cB.reshape(1, n)), None],
            ],
            format="csc",
        )
    else:
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A - lam * B
        M[:n, n] = -Bv
        M[n, :n] = cB
    # One extra solve with a fixed probe estimates the inverse norm; a
    # backward-stable solve of a singular border still returns a small
    # residual, so the residual check alone cannot diagnose multiplicity.
    probe = np.cos(np.arange(n + 1, dtype=float))
    try:
        if sp.issparse(M):
            solve = spla.splu(M).solve
        else:
            solve = functools.partial(scipy.linalg.lu_solve, scipy.linalg.lu_factor(M))
        x, x_probe = solve(rhs), solve(probe)
    except (RuntimeError, ValueError) as exc:  # LinAlgError is a ValueError
        raise SingularDerivativeError(
            f"bordered system singular (multiple eigenvalue?): {exc}"
        ) from exc
    kappa_est = abs(M).max() * np.linalg.norm(x_probe) / np.linalg.norm(probe)
    if not np.all(np.isfinite(x)) or kappa_est > 1e12:
        raise SingularDerivativeError(
            f"bordered system numerically singular (condition estimate "
            f"{kappa_est:.2e}): multiple eigenvalue suspected"
        )
    res = np.linalg.norm(M @ x - rhs)
    ref = max(np.linalg.norm(rhs), abs(lam) * np.linalg.norm(Bv))
    if res > RESIDUAL_TOL * max(ref, 1.0):
        raise SingularDerivativeError(
            f"bordered solve residual {res!r} exceeds tolerance "
            "(multiple eigenvalue suspected)"
        )
    return x[:n], float(x[n])


def taylor_predict(v, lam, v_prime, lam_prime, h):
    """First-order prediction of the eigenpair at t + h."""
    return np.asarray(v) + h * np.asarray(v_prime), lam + h * lam_prime


@dataclass
class MatchResult:
    perm: np.ndarray
    rhos: np.ndarray
    ok: bool


def _correlation_matrix(P, C, B):
    """Correlations rho, with B C and the candidate B-norms they used."""
    BP = B @ P
    BC = B @ C
    pn = np.sqrt(np.maximum(np.einsum("ij,ij->j", P, BP), np.finfo(float).tiny))
    cn = np.sqrt(np.maximum(np.einsum("ij,ij->j", C, BC), np.finfo(float).tiny))
    return np.abs(P.T @ BC) / np.outer(pn, cn), BC, cn


def _assign(rho, rho_min, score=None):
    """Assignment maximizing ``score`` (default rho), accepted on rho."""
    K = rho.shape[0]
    rows, cols = linear_sum_assignment(-(rho if score is None else score))
    perm = np.empty(K, dtype=int)
    perm[rows] = cols
    rhos = rho[np.arange(K), perm]
    ok = True if rho_min is None else bool(rhos.min() >= rho_min)
    return MatchResult(perm=perm, rhos=rhos, ok=ok)


def correlation_match(predicted: np.ndarray, candidates: np.ndarray, B, rho_min=None) -> MatchResult:
    """Assign candidates to predicted vectors by maximal total correlation.

    rho_kj = |p_k^T B c_j| / (||p_k||_B ||c_j||_B); the optimal bipartite
    assignment makes permutation recovery deterministic near degeneracies.
    Requires at least as many candidates as predictions.
    """
    P = np.atleast_2d(np.asarray(predicted, dtype=float))
    C = np.atleast_2d(np.asarray(candidates, dtype=float))
    if P.ndim != 2 or C.ndim != 2:
        raise ValueError("predicted and candidate vectors must be matrices")
    if C.shape[1] < P.shape[1]:
        raise ValueError(f"need at least {P.shape[1]} candidates, got {C.shape[1]}")
    return _assign(_correlation_matrix(P, C, B)[0], rho_min)


def _cluster_aware_match(P, lam_pred, C, B, delta, rho_min):
    """Correlation assignment treating degenerate clusters as subspaces.

    Within a multiplicity cluster the individual eigenvector directions are
    arbitrary (any rotation of the eigenspace is valid), so each clustered
    mode scores candidates by their projection norm onto the whole cluster
    subspace; the assignment still hands out distinct candidates.
    """
    rho_ind, BC, cn = _correlation_matrix(P, C, B)
    rho = rho_ind.copy()
    for idx in eigenvalue_clusters(lam_pred, delta):
        if idx.size < 2:
            continue
        Q, _ = b_orthonormalize(P[:, idx], B)
        if Q.shape[1] == 0:
            continue
        proj = (Q.T @ BC) / cn[None, :]
        score = np.minimum(np.sqrt((proj**2).sum(axis=0)), 1.0)
        rho[idx, :] = score[None, :]
    # The subspace score decides acceptance; a small individual-correlation
    # term breaks assignment ties inside clusters so that seeded/predicted
    # member order survives a degenerate step.
    return _assign(rho, rho_min, score=rho + 1e-6 * rho_ind)


def _seed_degenerate_clusters(ops, config):
    """Pencil and first eigenpairs at t = 0, with degenerate starting
    clusters aligned to the directions they split into.

    The eigensolver returns an arbitrary rotation inside each multiple
    eigenspace at t = 0; projecting the eigenvectors from a small probe
    parameter back onto the eigenspace fixes physically meaningful tracked
    labels (the member that stays lower gets the lower index), consistently
    across system variants.
    """
    scan = min(ops.size, config.K + config.overtrack + 2)
    pencil0, lam0, V0 = ops.solve(0.0, scan)
    V0 = V0.copy()
    clusters = eigenvalue_clusters(lam0, config.delta_mult)
    if all(c.size < 2 for c in clusters):
        return pencil0, lam0, V0
    delta = min(config.h / 4.0, 0.25)
    _, _, V_d = ops.solve(delta, scan)
    B0 = pencil0[1]
    for idx in clusters:
        if idx.size < 2:
            continue
        Q, kept = b_orthonormalize(V0[:, idx], B0)
        if len(kept) < idx.size:
            continue
        probe = V_d[:, idx]
        coeff = Q.T @ (B0 @ probe)
        seeded, kept = b_orthonormalize(Q @ coeff, B0)
        if len(kept) == idx.size:
            V0[:, idx] = seeded
    return pencil0, lam0, V0


def _make_ops(config, problem, basis):
    """Operators of the tracked system: the problem itself, or the basis's
    interpolant. A reduced basis fits only the problem it was built for:
    every mismatch is one ConfigError."""
    if config.system == "high-fidelity":
        return problem
    if basis is None:
        raise ValueError("reduced tracking needs a basis")
    rows = problem.size if problem.basis_space == "cotree" else problem.n_curl
    names = ["gauge", "space", "t_ref", "rows"]
    stored = [basis.gauge, basis.space, basis.t_ref, basis.n]
    wanted = [problem.gauge, problem.basis_space, problem.t_ref, rows]
    interpolant = basis.interpolant
    if interpolant is not None:
        names += problem.FINGERPRINT_FIELDS
        stored += interpolant.fingerprint
        wanted += problem.fingerprint
    diffs = [
        f"{name} {a} (problem: {b})"
        for name, a, b in zip(names, stored, wanted) if a != b
    ]
    if diffs:
        raise ConfigError(
            "basis fingerprint does not match the problem: " + ", ".join(diffs)
        )
    if interpolant is None:
        # a version-1 file or a bare POD basis stores no interpolant
        interpolant = pencil_interpolant(problem, basis.Z)
    return interpolant


def _rank_permutation(prev_lam, cur_lam, delta):
    """Rank change of the tracked family and whether it is a true crossing.

    Returns the step permutation sigma with sigma[old rank] = new rank for
    each tracked mode. A rank swap only counts as a crossing when the
    swapped modes lay in different multiplicity clusters before the step;
    the splitting of a degenerate cluster is not a crossing.
    """
    prev_rank = np.argsort(np.argsort(prev_lam, kind="stable"), kind="stable")
    cur_rank = np.argsort(np.argsort(cur_lam, kind="stable"), kind="stable")
    sigma = np.empty(len(prev_lam), dtype=int)
    sigma[prev_rank] = cur_rank
    cluster_id = np.empty(len(prev_lam), dtype=int)
    for c, idx in enumerate(eigenvalue_clusters(prev_lam, delta)):
        cluster_id[idx] = c
    swapped = (prev_rank[:, None] < prev_rank) != (cur_rank[:, None] < cur_rank)
    crossing = bool((swapped & (cluster_id[:, None] != cluster_id[None, :])).any())
    return tuple(int(s) for s in sigma), crossing, tuple(int(r) for r in cur_rank)


def track(config: TrackingConfig, problem: CavityProblem, basis: ReducedBasis | None = None) -> TrackingTrace:
    """March the tracked eigenpairs from t = 0 to t = 1.

    The normalization vector of the bordered system is reset to B(t) v(t)
    at every step. Steps that fail the correlation threshold first widen the
    candidate window, then halve the step size (at most max_halvings times)
    before aborting with a partial trace. The final step lands exactly on 1.
    """
    ops = _make_ops(config, problem, basis)
    trace = TrackingTrace()

    if ops.size < config.K:
        raise NumericalError(
            f"system provides only {ops.size} eigenvalues, tracking needs {config.K}"
        )
    (A_t, B_t), lam0, V0 = _seed_degenerate_clusters(ops, config)
    window = min(ops.size, config.K + config.overtrack)
    lam_cur = lam0[: config.K].copy()
    V_cur = V0[:, : config.K].copy()
    trace.steps.append(
        TrackStep(
            t=0.0,
            lambdas=lam_cur.copy(),
            ranks=np.arange(config.K),
            perm=tuple(range(config.K)),
            rhos=np.full(config.K, np.nan),
            dlambdas=np.zeros(config.K),
            flags=(),
            window=window,
        )
    )

    lam_all = lam0
    positions = np.arange(config.K)
    t = 0.0
    while t < 1.0 - 1e-12:
        Ap_t, Bp_t = ops.derivative_pencil(t)

        # Eigenvector/eigenvalue derivatives per tracked mode. Degeneracy is
        # judged against the solved spectrum at t, which reaches one past the
        # candidate window (an untracked partner of a multiple eigenvalue
        # still makes the bordered system singular), and affected modes fall
        # back to zero-order prediction.
        dlam = np.zeros(config.K)
        Vdot = np.zeros_like(V_cur)
        multiple = np.zeros(lam_all.size, dtype=bool)
        for idx in eigenvalue_clusters(lam_all, config.delta_mult):
            multiple[idx] = idx.size > 1
        fallback_modes = []
        for k in range(config.K):
            if multiple[positions[k]]:
                fallback_modes.append(k)
                continue
            c = B_t @ V_cur[:, k]
            try:
                v_p, l_p = eigen_derivatives(
                    A_t, B_t, Ap_t, Bp_t, V_cur[:, k], lam_cur[k], c
                )
            except SingularDerivativeError:
                fallback_modes.append(k)
                continue
            dlam[k] = l_p
            Vdot[:, k] = v_p

        h_cur = min(config.h, 1.0 - t)
        halvings = 0
        match = None
        while True:
            t_next = min(t + h_cur, 1.0)
            dt = t_next - t
            V_pred, _ = taylor_predict(V_cur, lam_cur, Vdot, dlam, dt)
            win = min(window, ops.size)
            # Low correlation first widens the candidate window (tracked
            # modes may have been overtaken), then shrinks the step. One
            # eigenvalue beyond the window shows whether a candidate at its
            # edge belongs to a multiplicity cluster.
            while True:
                pencil, lam_next, V_next = ops.solve(t_next, min(win + 1, ops.size))
                match = _cluster_aware_match(
                    V_pred, lam_cur, V_next[:, :win], pencil[1],
                    config.delta_mult, config.rho_min,
                )
                if match.ok or win >= ops.size:
                    break
                win = min(2 * win, ops.size)
            if match.ok or halvings >= config.max_halvings:
                break
            halvings += 1
            h_cur *= 0.5
        if not match.ok:
            trace.status = "aborted-low-correlation"
            return trace

        lam_new = lam_next[match.perm].copy()
        V_new = V_next[:, match.perm].copy()
        perm, crossing, ranks = _rank_permutation(lam_cur, lam_new, config.delta_mult)
        flags = []
        if crossing:
            flags.append("crossing-detected")
        if fallback_modes:
            flags.append("derivative-fallback")
        if halvings:
            flags.append("step-halved")
        trace.steps.append(
            TrackStep(
                t=t_next,
                lambdas=lam_new,
                ranks=np.array(ranks),
                perm=perm,
                rhos=match.rhos.copy(),
                dlambdas=dlam.copy(),
                flags=tuple(flags),
                window=win,
            )
        )
        window = max(config.K + config.overtrack, int(match.perm.max()) + 1 + config.overtrack)
        lam_cur, V_cur = lam_new, V_new
        # the pencil solved at t_next serves the next bordered systems, so
        # every parameter is evaluated once
        A_t, B_t = pencil
        lam_all = lam_next
        positions = match.perm
        t = t_next

    trace.status = "completed"
    return trace


def analytic_rectangle_table(a: float, count: int):
    """Analytic cavity eigenvalues of the a x 1 rectangle with mode labels.

    lambda_(m,n) = pi^2 (m^2 / a^2 + n^2) for integer m, n >= 0, not both
    zero and at most RECTANGLE_MAX_INDEX; returns the ``count`` smallest as
    (label, lambda) pairs.
    """
    entries = []
    for m in range(RECTANGLE_MAX_INDEX + 1):
        for n in range(RECTANGLE_MAX_INDEX + 1):
            if m == 0 and n == 0:
                continue
            lam = np.pi**2 * (m**2 / a**2 + n**2)
            entries.append((f"({m},{n})", lam))
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries[:count]


def classify_endpoint(trace: TrackingTrace, analytic_table):
    """Label each tracked mode with the analytic entry of closest eigenvalue.

    The assignment is injective (optimal bipartite matching on relative
    mismatch); tracked modes whose best mismatch exceeds MISMATCH_TOL get an
    ``unclassified`` label carrying the observed mismatch. Duplicate analytic
    eigenvalues are assigned in deterministic table order.
    """
    if not trace.complete:
        raise NumericalError("trace did not reach t = 1; cannot classify endpoint")
    lam_end = trace.endpoint_lambdas()
    labels = [lbl for lbl, _ in analytic_table]
    values = np.array([v for _, v in analytic_table])
    if values.size < lam_end.size:
        raise ValueError("analytic table smaller than the tracked mode count")
    cost = np.abs(lam_end[:, None] - values[None, :]) / values[None, :]
    rows, cols = linear_sum_assignment(cost)
    out = [None] * lam_end.size
    for r, c in zip(rows, cols):
        mismatch = cost[r, c]
        if mismatch > MISMATCH_TOL:
            out[r] = f"unclassified(mismatch={mismatch:.3g})"
        else:
            out[r] = labels[c]
    trace.labels = out
    return out
