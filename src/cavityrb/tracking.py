"""Derivative-based eigenvalue tracking along the deformation parameter.

Each step takes the eigenpair derivatives from the window it solved,
predicts the pair at t + h by first-order Taylor expansion, solves the
eigenproblem there and re-identifies the tracked modes by a B-weighted
correlation assignment. Crossings show up as rank changes inside the
tracked family and are flagged; splits of previously degenerate clusters
are not crossings and stay unflagged. The parameters a march visits at one
step size are evaluated as one stack before it steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, SingularDerivativeError, require
from .eigensolve import DEFAULT_MULT_TOL, b_orthonormalize, cluster_breaks, eigenvalue_clusters
from .online import pencil_interpolant
from .pod import ReducedBasis
from .problem import CavityProblem

# "high-fidelity" tracks the physical modes of the full pencil, with the
# problem itself as the ops; "reduced" tracks the pencil of a reduced basis,
# with its ``PencilInterpolant`` as the ops. The march reads the ops through
# a stack of the parameters it will visit: a ``_WindowStack`` calls the
# problem's ``solve(t, k)``, ``derivative_pencil(t)`` and
# ``projected_inverse(t)`` (the ``gauge.ProjectedInverse`` of the last solve,
# with its ``gauge.GradientProjector``) one parameter at a time; a
# ``_SpectrumStack`` takes the interpolant's ``evaluate(ts)``, all of them at
# once. Both ops also have ``size`` and the three per-parameter methods.
SYSTEMS = ("high-fidelity", "reduced")

# Relative eigen-residual a pair handed to the derivative rule may have.
PAIR_RESIDUAL_TOL = 1e-8
# Relative residual of the bordered system that each derivative must meet.
RESIDUAL_TOL = 1e-8
# Stop rule of the complement solve: every column below this fraction of
# its gate, no halving of the largest residual in this many iterations, or
# the cap.
CG_STOP_FRACTION = 1e-2
CG_STALL_ITERATIONS = 5
CG_MAX_ITERATIONS = 50

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
    derivative_iterations: int = 0  # complement-solve iterations of dlambdas


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


@dataclass
class Derivatives:
    """Eigenpair derivatives of some modes of a solved window, or of every
    mode of a stack of windows (leading axes).

    ``vectors`` (..., n, m) and ``values`` (..., m) are zero in the columns
    that failed the residual gate (``failed``); ``iterations`` counts the
    complement solve's iterations (0 without a complement). ``unpaired``,
    ``orthogonal`` and ``multiple`` mark the columns whose input the rule
    cannot use: a pair off PAIR_RESIDUAL_TOL, an eigenvector B-orthogonal
    to its normalization vector, a mode in a multiplicity cluster.
    """

    vectors: np.ndarray
    values: np.ndarray
    failed: np.ndarray
    iterations: int
    unpaired: np.ndarray
    orthogonal: np.ndarray
    multiple: np.ndarray

    def pick(self, modes, row=()):
        """The columns ``modes`` of stack row ``row`` (of the whole, unstacked),
        raising for them as the rule raises for the modes it is asked for."""
        unpaired, orthogonal, multiple = (
            a[row][modes] for a in (self.unpaired, self.orthogonal, self.multiple)
        )
        _require_usable(unpaired, orthogonal, multiple)
        return Derivatives(
            self.vectors[row][..., modes], self.values[row][modes],
            self.failed[row][modes], self.iterations, unpaired, orthogonal, multiple,
        )


def _require_usable(unpaired, orthogonal, multiple):
    if unpaired.any():
        raise ValueError("input pair is not an eigenpair to the required residual")
    if orthogonal.any():
        raise ValueError("normalization vector is B-orthogonal to the eigenvector")
    if multiple.any():
        raise SingularDerivativeError(
            "a mode lies in a multiplicity cluster of the window (multiple eigenvalue)"
        )


def _colsum(X, Y):
    return np.einsum("...ij,...ij->...j", X, Y)


def _multiple(lam, delta):
    """Whether each eigenvalue lies in a multiplicity cluster: in value
    order, unless ``cluster_breaks`` finds a break on both sides of it.
    Along the last axis, so a (S, m) stack of spectra is one classification."""
    order = np.argsort(lam, axis=-1, kind="stable")
    edges = np.ones((*lam.shape[:-1], lam.shape[-1] + 1), dtype=bool)
    edges[..., 1:-1] = cluster_breaks(np.take_along_axis(lam, order, axis=-1), delta)
    mask = np.empty(lam.shape, dtype=bool)
    np.put_along_axis(mask, order, ~(edges[..., :-1] & edges[..., 1:]), axis=-1)
    return mask


def eigen_derivatives(pencil, derivative, lam_w, V_w, modes=None, inverse=None,
                      delta=DEFAULT_MULT_TOL, multiple=None):
    """Derivatives of the eigenpairs ``modes`` of a solved window, as
    ``Derivatives``.

    (lam_w, V_w) are eigenpairs of ``pencil`` = (A, B), V_w B-orthonormal,
    holding every eigenvalue up to one above the modes'; ``derivative`` is
    (A', B'). For v = V_w[:, k] and lam = lam_w[k], lam' = v^T (A' - lam B') v
    and (A - lam B) v' = r = lam' B v - (A' - lam B') v, with
    v' = x + sum_j c_j v_j + w + alpha v:

    * x = G (G^T B G)^{-1} (-G^T B' v), the gradient part that keeps
      G^T B(t) v(t) = 0 (A' G = 0);
    * c_j = v_j^T r / (lam_j - lam) over the other window pairs;
    * w, B-orthogonal to the window and divergence-free, solves
      (A - lam B) w = r + lam B x off the window by preconditioned CG. That
      operator is positive definite there, and the projected inverse
      P (A - sigma B)^{-1} maps its spectrum to (mu - lam) / (mu - sigma)
      for the mu past the window, whatever the mesh. All modes share one
      multi-column solve per iteration, and the stop is on the largest
      column (CG_* constants);
    * alpha fulfils the normalization row (B c)^T v' = -c^T B' v, c = B v.

    ``inverse`` is the ``gauge.ProjectedInverse`` of the pencil, which
    gives x (the ``gradient_part`` of its ``projector``, the
    ``gauge.GradientProjector`` of B) and the preconditioner. Without it
    (a reduced pencil, solved whole) V_w must be the whole spectrum and the
    rule is the modal sum alone; the pencils, their derivatives and the
    windows may then be (S, N, N) and (S, N) stacks, and the rule takes
    every stack at once. Each column must meet RESIDUAL_TOL on the bordered
    system
        [A - lam B   -B v] [v']     [-A' v + lam B' v]
        [  c^T B       0 ] [lam']  = [   -c^T B' v    ],
    or fails. ``multiple`` marks the window's modes that lie in a
    multiplicity cluster (``_multiple`` with ``delta`` when not given);
    their columns are masked before the modal division.

    With ``modes`` given, a mode in a cluster raises SingularDerivativeError,
    and a pair off PAIR_RESIDUAL_TOL or one B-orthogonal to its
    normalization vector ValueError. With ``modes=None`` the rule takes
    every column of every window and returns those gates per column, for
    ``Derivatives.pick`` to raise on the modes a caller selects.
    """
    A, B = pencil
    A_p, B_p = derivative
    lam_w = np.asarray(lam_w, dtype=float)
    V_w = np.asarray(V_w, dtype=float)
    n = V_w.shape[-2]
    if inverse is None and V_w.shape[-1] < n:
        raise ValueError("without a projected inverse the window must be the whole spectrum")
    if multiple is None:
        multiple = _multiple(lam_w, delta)
    every = modes is None
    modes = np.arange(lam_w.shape[-1]) if every else np.atleast_1d(
        np.asarray(modes, dtype=int))
    m = modes.size
    V, lam, multiple = V_w[..., modes], lam_w[..., modes], multiple[..., modes]
    lam_c = lam[..., None, :]
    BV = B @ V
    norm_BV = np.linalg.norm(BV, axis=-2)
    scale = np.maximum(np.abs(lam) * norm_BV, np.finfo(float).tiny)
    unpaired = np.linalg.norm(A @ V - lam_c * BV, axis=-2) / scale > PAIR_RESIDUAL_TOL
    BC = B @ BV
    vBC = _colsum(BC, V)
    orthogonal = np.abs(vBC) < 1e-12 * np.maximum(
        np.linalg.norm(BC, axis=-2) * np.linalg.norm(V, axis=-2), 1e-300)
    if not every:
        _require_usable(unpaired, orthogonal, multiple)
    unusable = unpaired | orthogonal | multiple

    ApV, BpV = A_p @ V, B_p @ V
    lam_p = _colsum(V, ApV - lam_c * BpV) / _colsum(V, BV)
    rhs = lam_c * BpV - ApV
    R = rhs + lam_p[..., None, :] * BV
    rhs_row = -_colsum(BV, BpV)
    ref = np.maximum(np.sqrt(_colsum(rhs, rhs) + rhs_row**2), np.abs(lam) * norm_BV)
    gate = RESIDUAL_TOL * np.maximum(ref, 1.0)

    # a clustered column would divide by its partners' zero gaps: it is
    # masked, and no caller selects it
    gap = lam_w[..., :, None] - lam_c
    gap[..., modes, np.arange(m)] = np.inf
    gap = np.where(unusable[..., None, :], np.inf, gap)
    D = V_w @ ((np.swapaxes(V_w, -1, -2) @ R) / gap)
    iterations = 0
    if inverse is not None:
        X = inverse.projector.gradient_part(-(inverse.projector.G.T @ BpV))
        BV_w = B @ V_w

        def precondition(Z):
            Y = inverse.solve(Z)
            return Y - V_w @ (BV_w.T @ Y)

        # preconditioned CG, one recurrence per column, from W = 0
        Z = R + lam * (B @ X)
        Z -= BV_w @ (V_w.T @ Z)
        W = np.zeros((n, m))
        P = precondition(Z)
        rz = _colsum(Z, P)
        norms = np.linalg.norm(Z, axis=0)
        largest = [norms.max()]
        while iterations < CG_MAX_ITERATIONS:
            if np.all(norms <= CG_STOP_FRACTION * gate):
                break
            if (iterations >= CG_STALL_ITERATIONS
                    and largest[-1] > 0.5 * largest[-1 - CG_STALL_ITERATIONS]):
                break
            Q = A @ P - lam * (B @ P)
            Q -= BV_w @ (V_w.T @ Q)
            pq = _colsum(P, Q)
            step = np.divide(rz, pq, out=np.zeros(m), where=pq > 0)
            W += step * P
            Z -= step * Q
            iterations += 1
            norms = np.linalg.norm(Z, axis=0)
            largest.append(norms.max())
            Y = precondition(Z)
            rz_next = _colsum(Z, Y)
            P = Y + np.divide(rz_next, rz, out=np.zeros(m), where=rz > 0) * P
            rz = rz_next
        D += X + W
    alpha = np.divide(rhs_row - _colsum(BC, D), vBC, out=np.zeros_like(vBC),
                      where=~orthogonal)
    D += alpha[..., None, :] * V

    top = A @ D - lam_c * (B @ D) - lam_p[..., None, :] * BV - rhs
    row = _colsum(BC, D) - rhs_row
    failed = ~(np.sqrt(_colsum(top, top) + row**2) <= gate) | unusable
    D = np.where(failed[..., None, :], 0.0, D)
    lam_p = np.where(failed, 0.0, lam_p)
    return Derivatives(D, lam_p, failed, iterations, unpaired, orthogonal, multiple)


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
    # imported on first use: scipy.optimize would double the package's
    # import time and memory
    from scipy.optimize import linear_sum_assignment

    K = rho.shape[0]
    rows, cols = linear_sum_assignment(-(rho if score is None else score))
    perm = np.empty(K, dtype=int)
    perm[rows] = cols
    rhos = rho[np.arange(K), perm]
    ok = True if rho_min is None else bool(rhos.min() >= rho_min)
    return MatchResult(perm=perm, rhos=rhos, ok=ok)


def _cluster_aware_match(P, lam_pred, C, B, delta, rho_min):
    """Correlation assignment treating degenerate clusters as subspaces.

    Within a multiplicity cluster the individual eigenvector directions are
    arbitrary (any rotation of the eigenspace is valid), so each clustered
    mode scores candidates by their projection norm onto the whole cluster
    subspace; the assignment still hands out distinct candidates.
    """
    rho_ind, BC, cn = _correlation_matrix(P, C, B)
    rho = rho_ind
    order = np.argsort(lam_pred, kind="stable")
    breaks = cluster_breaks(lam_pred[order], delta)
    if not breaks.all():  # a multiple eigenvalue: split into clusters
        rho = rho_ind.copy()
        for idx in np.split(order, np.flatnonzero(breaks) + 1):
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


def _seed_degenerate_clusters(lam0, V0, derivative, delta):
    """The t = 0 eigenvectors, with each degenerate cluster rotated onto the
    directions it splits into.

    The eigensolver returns an arbitrary rotation inside each multiple
    eigenspace. For a cluster with B-orthonormal columns V and mean
    eigenvalue lam, the eigenvectors of M = V^T (A' - lam B') V are the
    directions that stay eigenvectors to first order, and its eigenvalues
    their derivatives (Dailey 1989, AIAA J. 27(4)). Rotating V by them in
    ascending order gives the member that falls fastest the lower index;
    the rotation is orthogonal, so the columns stay B-orthonormal.
    """
    A_p, B_p = derivative
    V0 = V0.copy()
    for idx in eigenvalue_clusters(lam0, delta):
        if idx.size < 2:
            continue
        V = V0[:, idx]
        M = V.T @ (A_p @ V - lam0[idx].mean() * (B_p @ V))
        V0[:, idx] = V @ np.linalg.eigh(0.5 * (M + M.T))[1]
    return V0


def _make_ops(config, problem, basis):
    """Operators of the tracked system and the stack that evaluates their
    parameters: the problem itself with a ``_WindowStack``, or the basis's
    interpolant with a ``_SpectrumStack``. A reduced basis fits only the
    problem it was built for: every mismatch is one ConfigError."""
    if config.system == "high-fidelity":
        return problem, _WindowStack
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
    return interpolant, _SpectrumStack


class _WindowStack:
    """Parameters ``ts`` of a march on the high-fidelity ops, each solved
    when the march reaches it, with as many pairs as the march asks for:
    one factorization and one Lanczos run per parameter (a widened window
    runs Lanczos again on the same factors). The march reads only the row
    it solved last, so only that row's window, derivative pencil and
    multiplicity mask are kept, each made once; its derivatives run the
    rule on that window alone, with the complement solve of the step's
    ``ProjectedInverse``."""

    def __init__(self, ops, ts, delta):
        self.ops, self.ts, self.delta = ops, ts, delta

    def solve(self, i, k):
        pencil, lam, V = self.ops.solve(self.ts[i], k)
        self.pencil, self.lam, self.V = {i: pencil}, {i: lam}, {i: V}
        self.derivative, self.mask = {}, {}
        return pencil, lam, V

    def derivative_pencil(self, i):
        if i not in self.derivative:
            self.derivative[i] = self.ops.derivative_pencil(self.ts[i])
        return self.derivative[i]

    def multiple(self, i):
        if i not in self.mask:
            self.mask[i] = _multiple(self.lam[i], self.delta)
        return self.mask[i]

    def derivatives(self, i, modes):
        return eigen_derivatives(
            self.pencil[i], self.derivative_pencil(i), self.lam[i], self.V[i], modes,
            inverse=self.ops.projected_inverse(self.ts[i]), multiple=self.multiple(i),
        )


class _SpectrumStack:
    """Parameters ``ts`` of a march on the reduced ops, evaluated as one
    stack when it is made: the pencils, derivative pencils and whole
    spectra of ``PencilInterpolant.evaluate``, and one multiplicity
    classification of every spectrum. The derivatives of every mode of
    every parameter follow in one pass of the rule when the march first
    asks for them, so a seeded t = 0 window enters them. A row's window is
    its whole spectrum, however many pairs the march asks for."""

    def __init__(self, ops, ts, delta):
        self.pencils, self.lam, self.V = ops.evaluate(ts)
        self.mask = _multiple(self.lam, delta)
        self.every = None

    def solve(self, i, k):
        return (self.pencils[i, 0], self.pencils[i, 1]), self.lam[i], self.V[i]

    def derivative_pencil(self, i):
        return self.pencils[i, 2], self.pencils[i, 3]

    def multiple(self, i):
        return self.mask[i]

    def derivatives(self, i, modes):
        if self.every is None:
            P = self.pencils
            self.every = eigen_derivatives(
                (P[:, 0], P[:, 1]), (P[:, 2], P[:, 3]), self.lam, self.V,
                multiple=self.mask,
            )
        return self.every.pick(modes, i)


def _rank_permutation(prev_lam, cur_lam, delta):
    """Rank change of the tracked family and whether it is a true crossing.

    Returns the step permutation sigma with sigma[old rank] = new rank for
    each tracked mode. A rank swap only counts as a crossing when the
    swapped modes lay in different multiplicity clusters before the step;
    the splitting of a degenerate cluster is not a crossing.
    """
    order = np.argsort(prev_lam, kind="stable")
    prev_rank = np.argsort(order, kind="stable")
    cur_rank = np.argsort(np.argsort(cur_lam, kind="stable"), kind="stable")
    sigma = np.empty(len(prev_lam), dtype=int)
    sigma[prev_rank] = cur_rank
    # clusters numbered in value order: the count of breaks below each rank
    breaks = cluster_breaks(prev_lam[order], delta)
    cluster_id = np.concatenate(([0], np.cumsum(breaks)))[prev_rank]
    swapped = (prev_rank[:, None] < prev_rank) != (cur_rank[:, None] < cur_rank)
    crossing = bool((swapped & (cluster_id[:, None] != cluster_id[None, :])).any())
    return tuple(sigma.tolist()), crossing, tuple(cur_rank.tolist())


def track(config: TrackingConfig, problem: CavityProblem, basis: ReducedBasis | None = None) -> TrackingTrace:
    """March the tracked eigenpairs from t = 0 to t = 1.

    Before it steps, the march hands the ops every parameter it will visit
    at the step size h as one stack (``_WindowStack``, ``_SpectrumStack``):
    the reduced ops evaluate all of them at once, the high-fidelity ops
    each one as the march reaches it. Each step takes the derivatives of
    its simple tracked modes from the window solved at t
    (``eigen_derivatives``; the high-fidelity ops hand it the step's
    ``ProjectedInverse``), so each parameter is factored once; at t = 0
    the same derivative pencil seeds the degenerate clusters
    (``_seed_degenerate_clusters``). Steps that fail the correlation
    threshold first widen the candidate window, then halve the step size
    (at most max_halvings times) before aborting with a partial trace. The
    final step lands exactly on 1. The stacks, and the problem's systems of
    the visited parameters, live only as long as the call.
    """
    ops, Stack = _make_ops(config, problem, basis)
    if ops.size < config.K:
        raise NumericalError(
            f"system provides only {ops.size} eigenvalues, tracking needs {config.K}"
        )
    with problem.transient_systems():
        return _march(config, ops, Stack)


def _grid(t, h):
    """The parameters a march from t visits at step size h: t + h, t + 2 h,
    ..., the last step cut to land on 1 exactly."""
    ts = []
    while t < 1.0 - 1e-12:
        t = min(t + min(h, 1.0 - t), 1.0)
        ts.append(t)
    return ts


def _march(config, ops, Stack):
    """The march of ``track`` on its ops, reading every window from a
    ``Stack`` of parameters: one stack of 0 and the grid of step h from it;
    a stack of one for a halved step, after which the rest of the grid is
    stacked again from the parameter that step reached."""
    trace = TrackingTrace()
    K, delta = config.K, config.delta_mult
    # the window at t is row i of the stack ``here``: the tracked modes are
    # its columns ``positions``, and every window pair enters their
    # derivatives; the next full step reads row g of ``grid``
    window = min(ops.size, K + config.overtrack)
    grid = here = Stack(ops, [0.0, *_grid(0.0, config.h)], delta)
    i, g = 0, 1
    _, lam_w, V_w = here.solve(i, min(window + 1, ops.size))
    V_w = here.V[i] = _seed_degenerate_clusters(
        lam_w, V_w, here.derivative_pencil(i), delta
    )
    positions = np.arange(K)
    trace.steps.append(
        TrackStep(
            t=0.0,
            lambdas=lam_w[:K].copy(),
            ranks=np.arange(K),
            perm=tuple(range(K)),
            rhos=np.full(K, np.nan),
            dlambdas=np.zeros(K),
            flags=(),
            window=window,
        )
    )

    t = 0.0
    while t < 1.0 - 1e-12:
        if grid is None:
            grid, g = Stack(ops, _grid(t, config.h), delta), 0
        lam_cur, V_cur = lam_w[positions], V_w[:, positions]
        # Modes in a multiplicity cluster of the window, which reaches one
        # past the candidate window (an untracked partner of a multiple
        # eigenvalue counts), fall back to zero-order prediction, and so do
        # modes whose derivative fails the residual gate.
        fallback = here.multiple(i)[positions]
        simple = np.flatnonzero(~fallback)
        dlam = np.zeros(K)
        Vdot = np.zeros_like(V_cur)
        iterations = 0
        if simple.size:
            deriv = here.derivatives(i, positions[simple])
            dlam[simple] = deriv.values
            Vdot[:, simple] = deriv.vectors
            fallback[simple[deriv.failed]] = True
            iterations = deriv.iterations

        h_cur = min(config.h, 1.0 - t)
        halvings = 0
        match = None
        while True:
            t_next = min(t + h_cur, 1.0)
            nxt, j = (grid, g) if not halvings else (Stack(ops, [t_next], delta), 0)
            dt = t_next - t
            V_pred, _ = taylor_predict(V_cur, lam_cur, Vdot, dlam, dt)
            win = min(window, ops.size)
            # Low correlation first widens the candidate window (tracked
            # modes may have been overtaken), then shrinks the step. One
            # eigenvalue beyond the window shows whether a candidate at its
            # edge belongs to a multiplicity cluster.
            while True:
                pencil, lam_next, V_next = nxt.solve(j, min(win + 1, ops.size))
                match = _cluster_aware_match(
                    V_pred, lam_cur, V_next[:, :win], pencil[1],
                    delta, config.rho_min,
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
        perm, crossing, ranks = _rank_permutation(lam_cur, lam_new, delta)
        flags = []
        if crossing:
            flags.append("crossing-detected")
        if fallback.any():
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
                dlambdas=dlam,
                flags=tuple(flags),
                window=win,
                derivative_iterations=iterations,
            )
        )
        window = max(K + config.overtrack, int(match.perm.max()) + 1 + config.overtrack)
        # the window solved at t_next serves the next derivatives, so every
        # parameter is evaluated and factored once
        here, i, lam_w, V_w = nxt, j, lam_next, V_next
        if halvings:
            grid = None
        else:
            g += 1
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
    from scipy.optimize import linear_sum_assignment  # as in _assign

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
