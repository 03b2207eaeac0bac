"""Problem bundle: mesh + mapping + gauge strategy + per-parameter caches."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import gauge as gauge_mod
from .assembly import AssembledSystem, assemble, matrix_derivatives
from .eigensolve import (
    DEFAULT_NULL_TOL,
    EigenSolution,
    b_orthonormalize,
    residual_norms,
)
from .errors import ConfigError, NumericalError
from .geometry import MappingFamily, ReferenceMesh
from .pod import reduce_system

GAUGES = ("none", "gram-schmidt", "projection", "tree-cotree")


class CavityProblem:
    """One parameterized eigenproblem with an active spurious-mode strategy.

    Mesh and mapping are immutable; assembled systems are cached per
    parameter value and shared by every consumer (snapshots, greedy sweeps,
    tracking). The gauge strategy decides the coordinate space of snapshot
    vectors and how basis matrices are cleaned.
    """

    def __init__(
        self,
        mesh: ReferenceMesh,
        family: MappingFamily,
        gauge: str = "tree-cotree",
        null_tol: float = DEFAULT_NULL_TOL,
    ):
        if gauge not in GAUGES:
            raise ConfigError(f"unknown gauge {gauge!r}, expected one of {GAUGES}")
        self.mesh = mesh
        self.family = family
        self.gauge = gauge
        self.null_tol = null_tol
        self.t_ref = 0.0
        self._systems: dict[float, AssembledSystem] = {}
        self._tc = None
        self._bhat_ref = None
        self._gram = None
        self._mixed = None
        self._transient = False

    # ------------------------------------------------------------------ data

    @property
    def n_curl(self) -> int:
        return self.mesh.n_curl

    @property
    def n_grad(self) -> int:
        return self.mesh.n_grad

    @property
    def G(self):
        return self.mesh.gradient

    FINGERPRINT_FIELDS = ("mesh_n", "n_curl", "family", "parameter")

    @property
    def fingerprint(self) -> tuple:
        """(mesh_n, n_curl, family kind, family parameter): what a reduced
        pencil depends on besides its basis."""
        return (
            self.mesh.subdivisions, self.n_curl, self.family.kind,
            float(self.family.parameter),
        )

    @property
    def tree_cotree(self) -> gauge_mod.TreeCotree:
        if self._tc is None:
            self._tc = gauge_mod.build_tree_cotree(self.mesh)
        return self._tc

    def system(self, t: float) -> AssembledSystem:
        """Assembled matrices at t, cached by exact parameter value."""
        key = float(t)
        hit = self._systems.get(key)
        if hit is None:
            hit = assemble(self.mesh, self.family, key)
            self._systems[key] = hit
        return hit

    @contextmanager
    def transient_systems(self):
        """Systems first assembled inside the block leave the cache when it
        ends: for one-off parameters, such as interpolation nodes, that would
        otherwise stay in memory for the problem's lifetime. So does the
        mixed-form factor, if it belongs to one of them. Inside another such
        block nothing leaves before the outermost one ends."""
        if self._transient:
            yield
            return
        self._transient = True
        before = set(self._systems)
        try:
            yield
        finally:
            self._transient = False
            dropped = set(self._systems) - before
            for key in dropped:
                del self._systems[key]
            if self._mixed is not None and self._mixed[0] in dropped:
                self._mixed = None

    @property
    def b_ref(self):
        """Reference mass matrix B(t_ref) used for all orthonormalizations."""
        return self.system(self.t_ref).B

    def derivative_pencil(self, t: float):
        """Exact (A'(t), B'(t)) from one derivative pass of the assembly."""
        return matrix_derivatives(self.mesh, self.family, t)

    def mass_factor(self, t: float):
        """Sparse LU factorization of B(t)."""
        return gauge_mod.mass_factor(self.system(t).B)

    # ----------------------------------------------------------------- solve

    @property
    def size(self) -> int:
        """Number of physical modes, n_curl - n_grad."""
        return self.n_curl - self.n_grad

    def solve(self, t: float, k: int):
        """((A, B), lambdas, V): the pencil at t and its first k physical
        eigenpairs, V B-orthonormal in the edge space.

        The one solve of the full pencil: every high-fidelity consumer
        (snapshots, tracking, error-study truth, the CLI) goes through it.
        With ``size`` and ``derivative_pencil``, the problem is the
        tracker's high-fidelity ops.
        """
        sys_t = self.system(t)
        try:
            lambdas, V = gauge_mod.condensed_eigensolve(
                sys_t.A, sys_t.B, sys_t.G, k, self.null_tol,
                factor=lambda: self._mixed_factor(t),
            )
        except NumericalError as exc:
            raise NumericalError(f"condensed solve failed at t={t!r}: {exc}") from exc
        return (sys_t.A, sys_t.B), lambdas, V

    def _mixed_factor(self, t: float):
        """The mixed-form factor of the pencil at t, kept for the last
        parameter only: a tracker that widens its window at the same t runs
        one more Lanczos iteration, not one more factorization."""
        key = float(t)
        if self._mixed is None or self._mixed[0] != key:
            self._mixed = None  # free the old factor before making the next
            sys_t = self.system(key)
            self._mixed = (key, gauge_mod.mixed_factor(sys_t.A, sys_t.B, sys_t.G))
        return self._mixed[1]

    def mixed_form(self, t: float):
        """(G, the mixed-form factor at t): what the tracker's derivative rule
        needs past the solved window. After a solve at t it is that solve's
        factor, so a tracking step factors its pencil once."""
        return self.G, self._mixed_factor(t)

    def solve_condensed(self, t: float, k: int) -> EigenSolution:
        """``solve`` as an ``EigenSolution`` with residuals. Nothing in the
        package reads the residuals: the entry point stays because the
        benchmark's oracles in ``perfbench/cases.py`` call it."""
        (A, B), lambdas, V = self.solve(t, k)
        return EigenSolution(
            lambdas=lambdas,
            vectors=V,
            n_discarded_null=self.n_grad,
            residuals=residual_norms(A, B, lambdas, V),
            t=float(t),
        )

    # --------------------------------------------------------- basis support

    @property
    def basis_space(self) -> str:
        """Coordinate space of reduced bases built for this problem.

        The tree-cotree strategy keeps the basis in cotree coordinates: the
        condensed pencil is positive definite for every parameter, so the
        reduced model cannot develop spurious near-zero modes no matter how
        the basis recombines snapshots. The other strategies work in the
        full edge space. Combinations of divergence-free snapshots taken at
        different parameters are generally not divergence-free in any single
        metric, which is exactly what the cleanup strategies deal with.
        """
        return "cotree" if self.gauge == "tree-cotree" else "edge"

    @property
    def basis_metric(self):
        """Inner-product matrix at t_ref in the basis coordinate space."""
        if self.basis_space == "edge":
            return self.b_ref
        if self._bhat_ref is None:
            # B_hat = H X with H the cotree rows of A(t_ref), X its expansion
            sys_ref = self.system(self.t_ref)
            cotree = self.tree_cotree.cotree
            X = gauge_mod.expand_cotree(
                np.eye(len(cotree)), sys_ref.A, self.tree_cotree,
                gauge_mod.mass_factor(sys_ref.B),
            )
            B_hat = sys_ref.A.tocsr()[cotree, :] @ X
            self._bhat_ref = 0.5 * (B_hat + B_hat.T)
        return self._bhat_ref

    def snapshot_solve(self, t: float, k: int):
        """First k eigenpairs with vectors in the basis coordinate space."""
        _, lambdas, V = self.solve(t, k)
        if self.basis_space == "cotree":
            V = gauge_mod.cotree_coordinates(V, lambdas, self.G, self.tree_cotree)
        return lambdas, V

    def reduced_pencil(
        self, Z: np.ndarray, t: float, space: str | None = None, factor=None
    ):
        """(A_red, B_red, U) of the basis at t; U upscales reduced vectors.

        U = Z for edge-space bases; cotree bases map through the parameter's
        expansion B(t)^{-1} H(t)^T, so the reduced trial space is
        divergence-free on every domain configuration. ``factor`` is a
        factorization of B(t) the caller already holds.
        """
        sys_t = self.system(t)
        if (space or self.basis_space) == "edge":
            U = np.asarray(Z, dtype=float)
        else:
            U = gauge_mod.expand_cotree(
                Z, sys_t.A, self.tree_cotree, factor or self.mass_factor(t)
            )
        return (*reduce_system(U, sys_t.A, sys_t.B), U)

    # ----------------------------------------------------------------- gauge

    def clean_basis(self, Z: np.ndarray):
        """Apply the active strategy's spurious-mode removal to basis columns.

        Returns (Z_clean, dropped_column_indices). The tree-cotree strategy
        needs no cleanup (its basis coordinates carry no gradient space) and
        ungauged runs deliberately skip it.
        """
        if self.gauge == "gram-schmidt":
            return gauge_mod.gram_schmidt_clean(Z, self.G, self.b_ref, self._gram_factor())
        if self.gauge == "projection":
            sys_ref = self.system(self.t_ref)
            return gauge_mod.graddiv_project(Z, self.G, sys_ref.C, self._gram_factor()), []
        return np.array(Z, dtype=float, copy=True), []

    def _gram_factor(self):
        """LU of the cleaning's gradient Gram matrix C0^T G, factored once
        per problem: C0 = B(t_ref) G for gram-schmidt, the assembled coupling
        block C(t_ref) for projection. None without interior vertices."""
        if self._gram is None and self.n_grad:
            sys_ref = self.system(self.t_ref)
            C0 = sys_ref.B @ self.G if self.gauge == "gram-schmidt" else sys_ref.C
            self._gram = gauge_mod.gram_factor(self.G, C0)
        return self._gram

    def orthonormalize(self, V: np.ndarray, against: np.ndarray | None = None):
        return b_orthonormalize(V, self.basis_metric, against=against)
