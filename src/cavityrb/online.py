"""The online layer: a basis's reduced pencil as a Chebyshev interpolant in t.

Offline, the exact reduced pencil (A_N(t), B_N(t)) is evaluated at the
Chebyshev-Lobatto nodes t_j = (1 - cos(pi j / m)) / 2 of [0, 1], doubling m
from 8 (every level reuses the node values of the one before) until the
trailing quarter of the Chebyshev coefficients has decayed to round-off.
Online, the pencil and its t-derivative at any t are weighted sums of the
stored node values: the barycentric Lagrange weights and their derivative.
The interpolant evaluates a stack of S parameters at once: the weights of
all of them times the node values in one matrix product, unpacked into an
(S, 4, N, N) array of A_N, B_N, A_N' and B_N' by one index, and solved by
one ``solve_dense_gevp`` call (``evaluate``). No online evaluation touches
the mesh. The interpolant is the reduced tracker's operator layer itself:
a march hands it every parameter of its step grid as one stack, and keeps
nothing of it on the interpolant. ``pencil``, ``derivative_pencil`` and
``solve`` are stacks of one.
See Trefethen, *Approximation Theory and Approximation Practice*, and
Berrut & Trefethen, Barycentric Lagrange interpolation, SIAM Review 2004.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigensolve import solve_dense_gevp
from .errors import NumericalError

# The trailing quarter of the Chebyshev coefficients of each of A_N and B_N
# must fall to this fraction of its largest coefficient.
COEFF_TAIL_TOL = 1e-13
M_FIRST = 8
M_MAX = 128


def lobatto_nodes(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto nodes of [0, 1], ascending.

    The sine form makes the nodes symmetric (t_{m/2} = 0.5 exactly) and
    nested to the bit: the nodes of m are the even-indexed nodes of 2 m.
    """
    j = np.arange(m + 1)
    return 0.5 * (1.0 + np.sin(np.pi * (2 * j - m) / (2 * m)))


def coefficient_tail(values: np.ndarray) -> float:
    """Largest trailing-quarter Chebyshev coefficient of the node values,
    relative to the largest coefficient, taken per matrix (A_N and B_N).

    ``values`` has shape (m + 1, 2, ...); the coefficients of data at the
    Lobatto points are, up to one common factor, its discrete cosine
    transform (type I).
    """
    m = values.shape[0] - 1
    k = np.arange(m + 1)
    T = np.cos(np.pi * np.outer(k, k) / m)
    T[:, [0, -1]] *= 0.5
    T[[0, -1], :] *= 0.5
    coeff = np.abs(T @ values.reshape(m + 1, -1)).reshape(m + 1, 2, -1).max(axis=2)
    scale = np.maximum(coeff.max(axis=0), np.finfo(float).tiny)
    return float((coeff[(3 * m) // 4 :].max(axis=0) / scale).max())


@dataclass(frozen=True, eq=False)
class PencilInterpolant:
    """Reduced pencil of one basis on one problem, interpolated in t.

    ``values[j]`` holds the upper triangles (row-major) of the symmetric
    N x N matrices A_N and B_N at ``nodes[j]``; ``tail`` is the coefficient
    tail the degree was accepted with; ``fingerprint`` is the problem's
    (mesh_n, n_curl, family kind, family parameter).
    """

    nodes: np.ndarray
    values: np.ndarray
    size: int
    tail: float
    fingerprint: tuple

    @property
    def m(self) -> int:
        return self.nodes.size - 1

    @cached_property
    def barycentric_weights(self) -> np.ndarray:
        """(-1)^j, halved at both ends: the barycentric weights of the
        Lobatto nodes, built once per interpolant."""
        w = (-1.0) ** np.arange(self.m + 1)
        w[[0, -1]] *= 0.5
        return w

    @cached_property
    def unpack(self):
        """(N, N) index of each matrix entry into the packed upper triangle,
        built once per interpolant: one fancy index unpacks a whole stack."""
        rows, cols = np.triu_indices(self.size)
        index = np.empty((self.size, self.size), dtype=np.intp)
        index[rows, cols] = index[cols, rows] = np.arange(rows.size)
        return index

    def weights(self, ts):
        """Lagrange weights of the nodes at each parameter of ts and their
        t-derivatives, two (S, m + 1) arrays.

        The barycentric terms w_j / (t - t_j) are scaled by t - t_k, with
        t_k the nearest node, so nothing overflows at or next to a node; at
        a node the weights are a unit vector and the derivative weights the
        node's row of the differentiation matrix. The derivative weight of
        t_k is minus the sum of the others (the weights of a constant sum to
        zero), which avoids the cancellation next to a node.
        """
        w = self.barycentric_weights
        diff = np.asarray(ts, dtype=float).reshape(-1, 1) - self.nodes
        rows = np.arange(diff.shape[0])
        k = np.argmin(np.abs(diff), axis=1)
        delta = diff[rows, k].copy()
        diff[rows, k] = 1.0
        c = w * delta[:, None] / diff
        c[rows, k] = w[k]
        total = c.sum(axis=1, keepdims=True)
        ell = c / total
        # l_j' = l_j (sum_i l_i / (t - t_i) - 1 / (t - t_j)), with the i = k
        # term l_j l_k / delta rewritten as l_k w_j / ((t - t_j) total)
        inner = ell / diff
        inner[rows, k] = 0.0
        dell = (ell * (inner.sum(axis=1, keepdims=True) - 1.0 / diff)
                + ell[rows, k][:, None] * w / (diff * total))
        dell[rows, k] = 0.0
        dell[rows, k] = -dell.sum(axis=1)
        return ell, dell

    def pencils(self, ts):
        """A_N, B_N, A_N' and B_N' at each parameter of ts, one (S, 4, N, N)
        array: the weights and derivative weights of every parameter times
        the node values in one matrix product, unpacked by one index."""
        ell, dell = self.weights(ts)
        weights = np.stack([ell, dell], axis=1).reshape(-1, self.m + 1)
        packed = weights @ self.values.reshape(self.m + 1, -1)
        return packed.reshape(ell.shape[0], 4, -1)[:, :, self.unpack]

    def evaluate(self, ts):
        """The stack of the parameters ts: ``pencils(ts)`` and the whole
        spectrum of each pencil, as (pencils, lambdas (S, N), vectors
        (S, N, N)), from one stacked dense solve."""
        pencils = self.pencils(ts)
        return (pencils, *solve_dense_gevp(pencils[:, 0], pencils[:, 1]))

    def pencil(self, t: float):
        """(A_N(t), B_N(t)), a stack of one."""
        return tuple(self.pencils([t])[0, :2])

    def derivative_pencil(self, t: float):
        """(A_N'(t), B_N'(t)), the derivative of the interpolant, a stack of
        one."""
        return tuple(self.pencils([t])[0, 2:])

    def solve(self, t: float, k: int):
        """The pencil at t and its eigenpairs, as ((A_N, B_N), lambdas,
        vectors): the whole spectrum, of which the first k are asked for,
        because the dense solve computes every pair anyway. A stack of one."""
        pencils, lam, V = self.evaluate([t])
        return (pencils[0, 0], pencils[0, 1]), lam[0], V[0]

    def projected_inverse(self, t: float):
        """None: the reduced pencil has no gradient kernel to constrain, and
        its solves hand the derivative rule the whole spectrum."""
        return None


def pencil_interpolant(problem, Z: np.ndarray) -> PencilInterpolant:
    """Interpolant of the exact reduced pencil of Z on the problem.

    Raises NumericalError when m = M_MAX does not resolve the pencil.
    """
    size = Z.shape[1]
    rows, cols = np.triu_indices(size)
    computed = {}
    m = M_FIRST
    while True:
        nodes = lobatto_nodes(m)
        for t in nodes:
            if t not in computed:
                with problem.transient_systems():
                    A_red, B_red, _ = problem.reduced_pencil(Z, float(t))
                computed[t] = (A_red[rows, cols], B_red[rows, cols])
        values = np.array([computed[t] for t in nodes])
        tail = coefficient_tail(values)
        if tail <= COEFF_TAIL_TOL:
            return PencilInterpolant(nodes, values, size, tail, problem.fingerprint)
        if m >= M_MAX:
            raise NumericalError(
                f"reduced pencil not resolved by {m + 1} Chebyshev nodes "
                f"(coefficient tail {tail:.2e} > {COEFF_TAIL_TOL:.0e})"
            )
        m *= 2
