import functools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, settings

from cavityrb import affine_stretch, build_reference_mesh, identity_map, sine_bump
from cavityrb.eigensolve import (
    DEFAULT_MULT_TOL,
    DEFAULT_NULL_TOL,
    DROP_TOL,
    EigenSolution,
    b_orthonormalize,
    eigenvalue_clusters,
    null_mask,
    residual_norms,
    solve_dense_gevp,
)
from cavityrb.assembly import _LOCAL_EDGES, _bary_gradients, quadrature_rule
from cavityrb.errors import GeometryError, NumericalError, SingularDerivativeError
from cavityrb.gauge import SHIFT, expand_cotree, mass_factor
from cavityrb.greedy import relative_gaps
from cavityrb.pod import reduce_system
from cavityrb.problem import CavityProblem
from cavityrb import tracking
from cavityrb.tracking import RESIDUAL_TOL, _assign, _correlation_matrix

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

# (key, value) pairs that RunConfig(**{key: value}) rejects; the CLI test
# runs each through a config file
RUN_CONFIG_REJECTS = [
    ("mesh_n", 0),
    ("mesh_n", 1),  # no interior vertex: the mixed-form solve needs one
    ("K", 0),
    ("tol", 0.0),
    ("track_h", 1.5),
    ("rho_min", 0.0),
    ("gauge", "magic"),
    ("family", "square"),
    ("bump_beta", 1.5),
    ("repetitions", 0),
    ("repetitions", 2),
    ("N_max", 10),  # below the initial size ceil(1.5 (5 + 2)) = 11
    ("stretch_a1", float("nan")),
    ("stretch_a1", float("inf")),
    ("bump_beta", float("nan")),
    ("tol", float("nan")),
    ("delta_mult", float("nan")),
    ("null_tol", float("inf")),
    ("delta_mult", -1.0),
    ("track_h", float("nan")),
    ("rho_min", float("nan")),
    ("track_system", "bogus"),
    ("track_system", "cotree"),
    ("residual_form", "bogus"),
    ("tau", -1),
    ("max_halvings", -1),
]


_MESHES = {}


def mesh(n):
    if n not in _MESHES:
        _MESHES[n] = build_reference_mesh(n)
    return _MESHES[n]


def make_problem(n=8, family="affine", gauge="tree-cotree", **kw):
    fam = {
        "affine": affine_stretch(2.5),
        "identity": identity_map(),
        "bump": sine_bump(0.3),
    }[family]
    return CavityProblem(mesh(n), fam, gauge=gauge, **kw)


def solve_gevp(A, B, k: int, null_tol: float = DEFAULT_NULL_TOL) -> EigenSolution:
    """Smallest k eigenpairs of A v = lambda B v above the null threshold
    (generic null-filtering oracle).

    A must be symmetric positive semi-definite and B symmetric positive
    definite. Eigenvalues at or below null_tol times the largest computed
    magnitude count as gradient null modes and are discarded; unlike the
    package's cotree solve, their number is not checked.
    """
    if k < 1:
        raise ValueError(f"requested eigenpair count must be >= 1, got {k}")
    lam, V = solve_dense_gevp(A, B)
    nonzero = ~null_mask(lam, null_tol)
    n_discarded = int((~nonzero).sum())
    idx = np.flatnonzero(nonzero)
    if idx.size < k:
        raise NumericalError(
            f"only {idx.size} eigenvalues above the null threshold, requested {k}"
        )
    idx = idx[:k]
    lambdas = lam[idx].copy()
    vectors = V[:, idx].copy()
    res = residual_norms(A, B, lambdas, vectors)
    return EigenSolution(
        lambdas=lambdas,
        vectors=vectors,
        n_discarded_null=n_discarded,
        residuals=res,
    )


def solve_full(problem, t, k):
    """First k physical eigenpairs of the problem's full pencil at t, by the
    null-filtering oracle."""
    s = problem.system(t)
    return solve_gevp(s.A, s.B, k)


def count_null(A, B, null_tol: float = DEFAULT_NULL_TOL) -> int:
    """Number of eigenvalues of (A, B) at or below the null threshold, by a
    dense solve of the whole pencil (oracle of the sparse null count of
    ``cavityrb check``)."""
    return int(null_mask(solve_dense_gevp(A, B)[0], null_tol).sum())



def mixed_factor(A, B, G):
    """Sparse LU of the mixed (Kikuchi) saddle-point matrix of the pencil at
    the shift (oracle of ``gauge.ProjectedInverse``),

        K(sigma) = [[A - sigma B, B G], [(B G)^T, 0]],

    nonsingular for sigma < 0 when G has full column rank. Solving
    K(sigma) [x; y] = [f; 0] gives the projected inverse
    x = P (A - sigma B)^{-1} f, and K(sigma) [x; y] = [0; g] its gradient
    part x = G (G^T B G)^{-1} g.
    """
    C = sp.csc_matrix(B @ G)
    K = sp.bmat([[A - SHIFT * B, C], [C.T, None]], format="csc")
    return spla.splu(K)


def mixed_solve(lu, F, g):
    """(K(sigma)^{-1} [F; g])[:n] for blocks F (n x m) and g (n_grad x m)."""
    return lu.solve(np.vstack([F, g]))[: F.shape[0]]


def gram_factor(G, C0):
    """Default-ordering, partially pivoted LU of the gradient Gram matrix
    C0^T G (oracle of the ``mass_factor`` of ``gauge.GradientProjector``)."""
    return spla.splu(sp.csc_matrix(C0.T @ G))


def graddiv_project(Z, G, C0, factor):
    """Z - G (C0^T G)^{-1} C0^T Z with ``factor`` the ``gram_factor`` of C0:
    with the assembled coupling block C0 = C(t), equal to B(t) G, the
    C-coupled oracle of ``gauge.GradientProjector(B(t), G).project``."""
    return Z - G @ factor.solve(np.asarray(C0.T @ Z))


def correlation_match(predicted, candidates, B, rho_min=None):
    """Assign candidates to predicted vectors by maximal total correlation
    (oracle of the tracker's cluster-aware match on simple spectra).

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


def divergence_defect(v, C, B) -> float:
    """Relative discrete divergence ||C^T v|| / ||v||_B at the parameter of C.

    Zero exactly when v is discretely divergence-free on that domain; the
    defect of a vector cleaned at one parameter generally grows when it is
    evaluated on a different domain configuration.
    """
    v = np.asarray(v, dtype=float)
    den = float(v @ (B @ v))
    if den <= 0.0 or C.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(C.T @ v) / np.sqrt(den))


def read_matrix_triplets(path):
    """Sparse matrix of a file that ``serialize.write_matrix_triplets``
    wrote: a ``#`` header line with the shape, then one ``row col value``
    line per entry."""
    rows, cols, vals = [], [], []
    shape = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                shape = (int(parts[2]), int(parts[3]))
                continue
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
    if shape is None:
        shape = (max(rows) + 1 if rows else 0, max(cols) + 1 if cols else 0)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


# ------------------------------------------------- assembly quadrature oracle
# The quadrature loop and COO scatter that the assembly maps replaced: each
# parameter integrates the element matrices afresh and sums them per entry.


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
    bary, wts = quadrature_rule(family.affine)
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


def assemble_loop(mesh, family, t):
    """(A, B, C) at t from the quadrature loop: the oracle for ``assemble``."""
    A_loc, B_loc, C_loc = _element_matrices(mesh, family, t)
    return (
        _scatter_edge_edge(A_loc, mesh),
        _scatter_edge_edge(B_loc, mesh),
        _scatter_edge_vertex(C_loc, mesh),
    )


def matrix_derivatives_loop(mesh, family, t):
    """(A'(t), B'(t)) from the loop's derivative pass: the oracle for
    ``matrix_derivatives``."""
    A_loc, B_loc, _ = _element_matrices(mesh, family, t, derivative=True)
    return _scatter_edge_edge(A_loc, mesh), _scatter_edge_edge(B_loc, mesh)


# Relative eigenvalue gap below which two different solvers are compared
# on the span of the eigenvalues, not on each eigenvector: by the
# Davis-Kahan bound, an eigenspace separated from the rest of the spectrum
# by a relative gap g is fixed only to the eigen-residual over g, so a pair
# split just outside one multiplicity cluster may come out rotated.
SPLIT_GAP = 1e-2


def eigenspace_distance(lam_ref, V_ref, V, B, delta=DEFAULT_MULT_TOL):
    """Largest entry of (I - P) V over the clusters of an ascending
    reference spectrum (``eigenvalue_clusters`` with ``delta``), P the
    B-orthogonal projector onto a cluster's reference eigenspace and V the
    first columns of another solve.

    Eigenvectors are fixed only up to sign and, inside a multiple
    eigenspace, up to rotation: two solves agree when each of their
    clusters spans the same space. A cluster that V cuts at its last column
    must lie inside the reference one, so the reference spectrum has to
    reach past it. For B-orthonormal columns of a whole cluster this is the
    distance of the two projectors.
    """
    k = V.shape[1]
    worst = 0.0
    for idx in eigenvalue_clusters(lam_ref, delta):
        inside = idx[idx < k]
        if inside.size:
            Q, W = V_ref[:, idx], V[:, inside]
            worst = max(worst, float(abs(W - Q @ (Q.T @ (B @ W))).max()))
    return worst


def bordered_derivatives(A, B, A_prime, B_prime, v, lam, c):
    """Eigenpair derivatives from the bordered system (oracle of
    ``tracking.eigen_derivatives``).

    Solves
        [A - lam B   -B v] [v']     [-A' v + lam B' v]
        [  c^T B       0 ] [lam']  = [   -c^T B' v    ]
    with one LU per mode and verifies the linear-system residual; a
    numerically singular border (multiple eigenvalue) raises
    SingularDerivativeError.
    """
    v = np.asarray(v, dtype=float)
    Bv = B @ v
    c = np.asarray(c, dtype=float)
    cB = B @ c
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
        raise SingularDerivativeError(f"bordered system singular: {exc}") from exc
    kappa_est = abs(M).max() * np.linalg.norm(x_probe) / np.linalg.norm(probe)
    if not np.all(np.isfinite(x)) or kappa_est > 1e12:
        raise SingularDerivativeError(
            f"bordered system numerically singular (condition estimate {kappa_est:.2e})"
        )
    res = np.linalg.norm(M @ x - rhs)
    ref = max(np.linalg.norm(rhs), abs(lam) * np.linalg.norm(Bv))
    if res > RESIDUAL_TOL * max(ref, 1.0):
        raise SingularDerivativeError(f"bordered solve residual {res!r} exceeds tolerance")
    return x[:n], float(x[n])


def central_difference(f, t, h):
    """Finite-difference oracle for t-derivatives: (f(t+h) - f(t-h)) / 2h,
    taken entrywise over the tuple of matrices that f returns."""
    plus, minus = f(t + h), f(t - h)
    return tuple((p - m) / (2.0 * h) for p, m in zip(plus, minus))


def expand_cotree_derivative(Y, XY, A_p, B_p, tc, factor):
    """t-derivative X' Y = B^{-1} (A'[:, cotree] Y - B' X Y) of the cotree
    expansion (oracle).

    XY is ``expand_cotree(Y, ...)`` at the same parameter, (A_p, B_p) the
    derivative pencil there and ``factor`` a factorization of B.
    """
    H_p = sp.csr_matrix(A_p)[tc.cotree, :]
    return factor.solve(H_p.T @ np.asarray(Y, dtype=float) - B_p @ XY)


def reduced_derivative(problem, Z, space, t):
    """Exact (A_red'(t), B_red'(t)) of a basis by the chain rule (oracle).

    Cotree bases have U = B^{-1} H^T Z with H^T = A[:, cotree], so
    U' = B^{-1} (A'[:, cotree] Z - B' U); edge-space bases have U' = 0.
    Then A_red' = sym(2 U'^T A U) + U^T A' U, and the same for B_red.
    """
    factor = problem.mass_factor(t) if space == "cotree" else None
    _, _, U = problem.reduced_pencil(Z, t, space=space)
    sys_t = problem.system(t)
    A_p, B_p = problem.derivative_pencil(t)
    dA, dB = reduce_system(U, A_p, B_p)
    if space == "cotree":
        U_p = expand_cotree_derivative(Z, U, A_p, B_p, problem.tree_cotree, factor)
        dA_u = U_p.T @ (sys_t.A @ U)
        dB_u = U_p.T @ (sys_t.B @ U)
        dA += dA_u + dA_u.T
        dB += dB_u + dB_u.T
    return dA, dB


def estimate_at(system, U, lambdas_red, vectors_red, K, delta_mult=DEFAULT_MULT_TOL,
                b_factor=None):
    """Gap-weighted residual estimates of the first K reduced modes at one
    parameter (oracle of ``greedy.estimate``): eta_i = (r_i^T B r_i) /
    (d_i lam_i) with r_i = A U v_i - lam_i B U v_i, or r_i^T B^{-1} r_i with
    the factorization ``b_factor`` of B. inf past the reduced spectrum and
    where the gap is undefined."""
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


def sweep(problem, Z, config):
    """Estimator values over the training set, shape (N_train, K), from
    scratch (oracle of the greedy's kept sweep): at every parameter B(t)
    is factored, the whole basis upscaled and its reduced pencil formed
    again."""
    etas = np.empty((config.xi_train.size, config.K))
    for it_t, t in enumerate(config.xi_train.tolist()):
        b_factor = None
        if config.residual_form == "mass-inverse":
            b_factor = problem.mass_factor(t)
        A_red, B_red, U = problem.reduced_pencil(Z, t)
        lam, V = solve_dense_gevp(A_red, B_red)
        etas[it_t] = estimate_at(
            problem.system(t), U, lam[: config.K + config.tau], V, config.K,
            config.delta_mult, b_factor,
        )
    return etas


def error_study_rows(problem, cfg, Z, sizes):
    """Rows (basis_size, mode, avg signed, max abs, null leak) of the error
    study (oracle of ``bench.ErrorStudy.run``): each size's leading columns
    of Z evaluated as a basis of their own, one ``reduced_pencil`` per size
    and test parameter."""
    ts_test = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, cfg.N_test)
    truth = np.array([problem.solve(float(t), cfg.K)[1] for t in ts_test])
    rows = []
    for size in sizes:
        signed = np.zeros(cfg.K)
        max_abs = np.zeros(cfg.K)
        leak = 0
        for j, t in enumerate(ts_test):
            A_red, B_red, _ = problem.reduced_pencil(Z[:, :size], float(t))
            lam, _ = solve_dense_gevp(A_red, B_red)
            leak = max(leak, int(null_mask(lam, cfg.null_tol).sum()))
            take = min(cfg.K, lam.size)
            rel = (lam[:take] - truth[j, :take]) / truth[j, :take]
            signed[:take] += rel
            max_abs[:take] = np.maximum(max_abs[:take], np.abs(rel))
        signed /= len(ts_test)
        rows += [(size, i, signed[i], max_abs[i], leak) for i in range(cfg.K)]
    return rows


class SweepOracle:
    """Stand-in for ``greedy._TrainingSet`` that keeps only the basis and
    runs the from-scratch ``sweep``."""

    def __init__(self, problem, Z, config):
        self.problem, self.Z, self.config = problem, Z, config

    def sweep(self):
        return sweep(self.problem, self.Z, self.config)

    def append(self, Q):
        self.Z = np.hstack([self.Z, Q])


def standard_form_eigensolve(A, B, tc):
    """All condensed eigenpairs through the orthonormal standard form (oracle).

    With X = B^{-1} H^T (H the cotree rows of A) and the QR factorization
    L^T X = Q_w R (L the Cholesky factor of B), B_hat = R^T R holds exactly
    and the condensed pencil is congruent to the standard matrix
    C = Q^T A Q with Q = X R^{-1}, whose columns are B-orthonormal. The
    condensed spectrum comes out without any null-mode threshold, which
    makes this an independent check of the production cotree solve.
    Returns ascending eigenvalues, cotree coordinates Y and B-orthonormal
    edge vectors V.
    """
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    X = expand_cotree(np.eye(len(tc.cotree)), A, tc, mass_factor(B))
    L = scipy.linalg.cholesky(B.toarray(), lower=True)
    R = scipy.linalg.qr(L.T @ X, mode="economic")[1]
    # enforce a positive diagonal so R is the Cholesky factor of B_hat
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    R = signs[:, None] * R
    Q = scipy.linalg.solve_triangular(R.T, X.T, lower=True).T
    C_std = Q.T @ (A @ Q)
    lam, Y_std = scipy.linalg.eigh(0.5 * (C_std + C_std.T))
    Y = scipy.linalg.solve_triangular(R, Y_std, lower=False)
    return lam, Y, Q @ Y_std


def mgs_gradient_clean(Z, G, B0):
    """Gram-Schmidt cleaning against a dense gradient basis (oracle).

    The raw incidence columns are B0-orthonormalized first, so that two
    modified Gram-Schmidt sweeps over them make an exact B0-orthogonal
    projection. Collapsed columns are dropped and the rest re-orthonormalized
    in B0, with the same rule as the package's sparse-solve cleaning.
    Returns (Z_orth, dropped_column_indices).
    """
    Z = np.array(Z, dtype=float, copy=True)
    Q, kept = b_orthonormalize(G.toarray(), B0)
    assert len(kept) == G.shape[1], "gradient columns are numerically dependent"
    before = np.sqrt(np.maximum(np.einsum("ij,ij->j", Z, B0 @ Z), 0.0))
    for _ in range(2):
        for j in range(Q.shape[1]):
            q = Q[:, j]
            Z -= np.outer(q, (B0 @ q) @ Z)
    after = np.sqrt(np.maximum(np.einsum("ij,ij->j", Z, B0 @ Z), 0.0))
    alive = after >= DROP_TOL * np.maximum(before, np.finfo(float).tiny)
    dropped = [int(i) for i in np.flatnonzero(~alive)]
    Z, kept = b_orthonormalize(Z[:, alive], B0)
    alive_idx = [int(i) for i in np.flatnonzero(alive)]
    dropped += [alive_idx[i] for i in range(len(alive_idx)) if i not in kept]
    return Z, sorted(dropped)


def clusters_loop(lam, delta):
    """Loop grouping of an ascending spectrum: the oracle of the vectorized
    eigenvalue_clusters."""
    groups = [[0]]
    for i in range(1, lam.size):
        scale = max(abs(lam[i]), abs(lam[i - 1]), np.finfo(float).tiny)
        if lam[i] - lam[i - 1] <= delta * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g, dtype=int) for g in groups]


def multiple_by_clusters(lam, delta):
    """Whether each eigenvalue lies in a multiplicity cluster, from the
    cluster index lists (oracle of ``tracking._multiple``)."""
    mask = np.zeros(lam.size, dtype=bool)
    for idx in eigenvalue_clusters(lam, delta):
        mask[idx] = idx.size > 1
    return mask


def rank_permutation_by_clusters(prev_lam, cur_lam, delta):
    """``tracking._rank_permutation`` with cluster labels from the cluster
    index lists (its oracle)."""
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


def cluster_aware_match_by_clusters(P, lam_pred, C, B, delta, rho_min):
    """``tracking._cluster_aware_match`` with a subspace score for every
    cluster index list, the simple ones skipped (its oracle)."""
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
    return _assign(rho, rho_min, score=rho + 1e-6 * rho_ind)


def probe_seeded_clusters(ops, lam0, V0, B0, t_probe, delta=DEFAULT_MULT_TOL):
    """The t = 0 eigenpairs (lam0, V0) of the ops, mass matrix B0, with each
    degenerate cluster aligned by a probe solve (oracle of
    ``tracking._seed_degenerate_clusters``).

    The eigenvectors of the same indices at t_probe, projected B-orthogonally
    onto the cluster's eigenspace at t = 0 and B-orthonormalized, replace the
    cluster: the member that is lower at the probe comes first. The
    projection differs from the directions the cluster splits into by
    O(t_probe).
    """
    V_probe = ops.solve(t_probe, V0.shape[1])[2]
    V = V0.copy()
    for idx in eigenvalue_clusters(lam0, delta):
        if idx.size < 2:
            continue
        Q, _ = b_orthonormalize(V0[:, idx], B0)
        V[:, idx], _ = b_orthonormalize(Q @ (Q.T @ (B0 @ V_probe[:, idx])), B0)
    return V


@pytest.fixture
def quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pod_clamped(Y, B, want, **kw):
    """POD basis of at most the achievable rank (snapshot sets of strongly
    correlated families often carry less numerical rank than requested)."""
    from cavityrb import pod_basis
    from cavityrb.errors import RankDeficiencyError

    try:
        return pod_basis(Y, B, want, **kw)
    except RankDeficiencyError as exc:
        return pod_basis(Y, B, exc.achievable, **kw)


def per_parameter_track(config, problem, basis=None):
    """``tracking.track`` by ``per_parameter_march`` (its oracle)."""
    ops, _ = tracking._make_ops(config, problem, basis)
    with problem.transient_systems():
        return per_parameter_march(config, ops)


def per_parameter_march(config, ops):
    """The march of ``tracking.track`` one parameter at a time (oracle of
    the stacked march): each step solves its next parameter with
    ``ops.solve``, takes its derivative pencil with ``ops.derivative_pencil``
    and runs ``eigen_derivatives`` on its own window, which classifies the
    window itself."""
    trace = tracking.TrackingTrace()
    K = config.K
    # the pencil, derivative pencil and solved window at t: the tracked modes
    # are the window columns ``positions``, and every window pair enters
    # their derivatives
    window = min(ops.size, K + config.overtrack)
    pencil_t, lam_w, V_w = ops.solve(0.0, min(window + 1, ops.size))
    derivative_t = ops.derivative_pencil(0.0)
    V_w = tracking._seed_degenerate_clusters(lam_w, V_w, derivative_t, config.delta_mult)
    positions = np.arange(K)
    trace.steps.append(
        tracking.TrackStep(
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
        lam_cur, V_cur = lam_w[positions], V_w[:, positions]
        # Modes in a multiplicity cluster of the window, which reaches one
        # past the candidate window (an untracked partner of a multiple
        # eigenvalue counts), fall back to zero-order prediction, and so do
        # modes whose derivative fails the residual gate.
        fallback = tracking._multiple(lam_w, config.delta_mult)[positions]
        simple = np.flatnonzero(~fallback)
        dlam = np.zeros(K)
        Vdot = np.zeros_like(V_cur)
        iterations = 0
        if simple.size:
            if derivative_t is None:
                derivative_t = ops.derivative_pencil(t)
            deriv = tracking.eigen_derivatives(
                pencil_t, derivative_t, lam_w, V_w, positions[simple],
                inverse=ops.projected_inverse(t), delta=config.delta_mult,
            )
            dlam[simple] = deriv.values
            Vdot[:, simple] = deriv.vectors
            fallback[simple[deriv.failed]] = True
            iterations = deriv.iterations

        h_cur = min(config.h, 1.0 - t)
        halvings = 0
        match = None
        while True:
            t_next = min(t + h_cur, 1.0)
            dt = t_next - t
            V_pred, _ = tracking.taylor_predict(V_cur, lam_cur, Vdot, dlam, dt)
            win = min(window, ops.size)
            # Low correlation first widens the candidate window (tracked
            # modes may have been overtaken), then shrinks the step. One
            # eigenvalue beyond the window shows whether a candidate at its
            # edge belongs to a multiplicity cluster.
            while True:
                pencil, lam_next, V_next = ops.solve(t_next, min(win + 1, ops.size))
                match = tracking._cluster_aware_match(
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
        perm, crossing, ranks = tracking._rank_permutation(lam_cur, lam_new, config.delta_mult)
        flags = []
        if crossing:
            flags.append("crossing-detected")
        if fallback.any():
            flags.append("derivative-fallback")
        if halvings:
            flags.append("step-halved")
        trace.steps.append(
            tracking.TrackStep(
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
        # the pencil and window solved at t_next serve the next derivatives,
        # so every parameter is evaluated and factored once
        pencil_t, lam_w, V_w = pencil, lam_next, V_next
        derivative_t = None
        positions = match.perm
        t = t_next

    trace.status = "completed"
    return trace
