"""Structured triangulation of the unit square and smooth deformation maps.

The mesh is built once on the unit square and never changes topology; domain
deformation acts through a smooth map applied on top of the fixed mesh, so
every degree of freedom keeps its identity for all parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class ReferenceMesh:
    """Triangulated unit square with globally oriented edges.

    Edges run from the lower to the higher vertex index, which makes the
    signed vertex-edge incidence deterministic. Interior index maps number
    the tangential unknowns (interior edges) and the scalar potential
    unknowns (interior vertices); boundary entries are -1.
    """

    vertices: np.ndarray        # (V, 2) float
    edges: np.ndarray           # (E, 2) int, low -> high vertex
    triangles: np.ndarray       # (T, 3) int, counterclockwise
    tri_edges: np.ndarray       # (T, 3) int, global edge id of local edges
    tri_edge_signs: np.ndarray  # (T, 3) int, +1 if local dir == global dir
    boundary_vertex: np.ndarray  # (V,) bool
    boundary_edge: np.ndarray    # (E,) bool
    interior_edge_index: np.ndarray    # (E,) int, -1 on boundary
    interior_vertex_index: np.ndarray  # (V,) int, -1 on boundary

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_curl(self) -> int:
        """Number of interior-edge degrees of freedom."""
        return int((self.interior_edge_index >= 0).sum())

    @property
    def n_grad(self) -> int:
        """Number of interior-vertex degrees of freedom."""
        return int((self.interior_vertex_index >= 0).sum())

    @property
    def subdivisions(self) -> int:
        """Cells per side of the structured grid, (n + 1)^2 vertices."""
        return int(round(np.sqrt(self.num_vertices))) - 1

    @cached_property
    def gradient(self):
        """Discrete gradient G, built once per mesh (it is topological)."""
        from .assembly import discrete_gradient  # assembly imports this module

        return discrete_gradient(self)

    def metric_maps(self, affine: bool):
        """``assembly.MetricMaps`` of the affine or non-affine rule, built once."""
        from .assembly import build_metric_maps  # assembly imports this module

        kept = self.__dict__.setdefault("_metric_maps", {})
        return kept.get(affine) or kept.setdefault(affine, build_metric_maps(self, affine))

    def jacobian_rate(self, family: MappingFamily) -> np.ndarray:
        """J' = J(x, 1) - J(x, 0) of a family (J is affine in t) at the points
        of its rule's metric maps, evaluated once per family."""
        kept = self.__dict__.setdefault("_jacobian_rates", {})
        if family not in kept:
            points = self.metric_maps(family.affine).points
            kept[family] = family.jacobians(points, 1.0) - family.jacobians(points, 0.0)
            kept[family].flags.writeable = False
        return kept[family]

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_triangles


def build_reference_mesh(n: int) -> ReferenceMesh:
    """Build the structured triangulation with ``n`` subdivisions per side.

    Each of the n^2 square cells is split along one diagonal into two
    counterclockwise triangles; the diagonal direction alternates in a
    checkerboard pattern. For even n this keeps the full symmetry group of
    the square, so continuum-degenerate eigenvalue pairs stay exactly
    degenerate after discretization. Vertex ids follow row-major grid
    order, edge ids follow lexicographic (low, high) vertex order.
    """
    if n < 1:
        raise GeometryError(f"subdivision count must be >= 1, got {n}")
    k = n + 1
    xs = np.linspace(0.0, 1.0, k)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    v00 = iy * k + ix
    v10 = v00 + 1
    v01 = v00 + k
    v11 = v01 + 1
    rising = (ix + iy) % 2 == 0  # diagonal v00 -> v11, else v10 -> v01
    tri_a = np.where(
        rising[:, None], np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v10, v01]),
    )
    tri_b = np.where(
        rising[:, None], np.column_stack([v00, v11, v01]),
        np.column_stack([v10, v11, v01]),
    )
    triangles = np.vstack([tri_a, tri_b]).astype(np.int64)

    pairs = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1).astype(np.int64)
    pairs_sorted = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs_sorted, axis=0, return_inverse=True)
    ntri = triangles.shape[0]
    tri_edges = inverse.reshape(3, ntri).T.copy()
    tri_edge_signs = signs.reshape(3, ntri).T.copy()

    counts = np.bincount(inverse, minlength=edges.shape[0])
    if counts.max() > 2:
        raise GeometryError("non-manifold edge in structured mesh")
    boundary_edge = counts == 1

    vid = np.arange(k * k)
    vix = vid % k
    viy = vid // k
    boundary_vertex = (vix == 0) | (vix == n) | (viy == 0) | (viy == n)

    interior_edge_index = -np.ones(edges.shape[0], dtype=np.int64)
    interior_edge_index[~boundary_edge] = np.arange((~boundary_edge).sum())
    interior_vertex_index = -np.ones(k * k, dtype=np.int64)
    interior_vertex_index[~boundary_vertex] = np.arange((~boundary_vertex).sum())

    mesh = ReferenceMesh(
        vertices=vertices,
        edges=edges,
        triangles=triangles,
        tri_edges=tri_edges,
        tri_edge_signs=tri_edge_signs,
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
        interior_edge_index=interior_edge_index,
        interior_vertex_index=interior_vertex_index,
    )
    if mesh.euler_characteristic() != 1:
        raise GeometryError("triangulation does not satisfy V - E + T = 1")
    return mesh


AFFINE_STRETCH = "affine-stretch"
SINE_BUMP = "sine-bump"
FAMILIES = (AFFINE_STRETCH, SINE_BUMP)


@dataclass(frozen=True)
class MappingFamily:
    """Smooth deformation of the unit square for t in [0, 1].

    ``affine-stretch`` scales the x axis by a(t) = 1 + (stretch_end - 1) t,
    so a(0) = 1 is the identity. ``sine-bump`` displaces the y axis by
    y (1 + t beta sin(pi x)), a genuinely non-affine map. Topology is never
    touched; only vertex images move.
    """

    kind: str
    stretch_end: float = 2.5
    bump_beta: float = 0.3

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise GeometryError(f"unknown mapping kind {self.kind!r}")
        if self.kind == SINE_BUMP and abs(self.bump_beta) >= 1.0:
            raise GeometryError("bump amplitude must satisfy |beta| < 1")

    @property
    def affine(self) -> bool:
        return self.kind == AFFINE_STRETCH

    @property
    def parameter(self) -> float:
        """The family's shape parameter: stretch_end or bump_beta."""
        return self.stretch_end if self.affine else self.bump_beta

    def stretch(self, t: float) -> float:
        """Stretch factor a(t) of the affine family."""
        return 1.0 + (self.stretch_end - 1.0) * t

    def stretch_rate(self) -> float:
        """da/dt, constant for the linear-in-t stretch law."""
        return self.stretch_end - 1.0

    def map_points(self, points: np.ndarray, t: float) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = p.copy()
        if self.kind == AFFINE_STRETCH:
            out[:, 0] *= self.stretch(t)
        else:
            out[:, 1] = p[:, 1] * (1.0 + t * self.bump_beta * np.sin(np.pi * p[:, 0]))
        return out

    def jacobians(self, points: np.ndarray, t: float) -> np.ndarray:
        """Jacobian of the map at each point, shape (m, 2, 2)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        m = p.shape[0]
        J = np.zeros((m, 2, 2))
        if self.kind == AFFINE_STRETCH:
            J[:, 0, 0] = self.stretch(t)
            J[:, 1, 1] = 1.0
        else:
            J[:, 0, 0] = 1.0
            J[:, 1, 0] = t * self.bump_beta * np.pi * p[:, 1] * np.cos(np.pi * p[:, 0])
            J[:, 1, 1] = 1.0 + t * self.bump_beta * np.sin(np.pi * p[:, 0])
        return J


def affine_stretch(a_end: float = 2.5) -> MappingFamily:
    return MappingFamily(kind=AFFINE_STRETCH, stretch_end=a_end)


def sine_bump(beta: float = 0.3) -> MappingFamily:
    return MappingFamily(kind=SINE_BUMP, bump_beta=beta)


def identity_map() -> MappingFamily:
    """Stationary family, a(t) = 1 for all t."""
    return MappingFamily(kind=AFFINE_STRETCH, stretch_end=1.0)
