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
from cavityrb.errors import NumericalError, SingularDerivativeError
from cavityrb.gauge import expand_cotree, mass_factor
from cavityrb.pod import reduce_system
from cavityrb.problem import CavityProblem
from cavityrb.tracking import RESIDUAL_TOL

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
    return solve_gevp(s.A, s.B, k, null_tol=problem.null_tol)


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
    _, _, U = problem.reduced_pencil(Z, t, space=space, factor=factor)
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
