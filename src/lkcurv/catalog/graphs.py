"""Spherical graphs: vertices on the unit sphere joined by minor great-circle arcs.

A :class:`SphericalGraph` is the unit-sphere trace of a conic set of dimension
at most two.  Arcs are always the minor geodesic between their endpoints, so
every edge has length in (0, pi) and is totally geodesic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np

from ..errors import SetValidationError
from .charts import GRAM_DET_TOL

VERTEX_NORM_TOL = 1e-10
ARC_ANGLE_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
class SphericalGraph:
    vertices: np.ndarray  # (V, n) unit rows
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges

    def arc_angle(self, edge_index: int) -> float:
        i, j = self.edges[edge_index]
        dot = float(np.clip(np.dot(self.vertices[i], self.vertices[j]), -1.0, 1.0))
        return float(np.arccos(dot))

    @cached_property
    def arc_angles(self) -> np.ndarray:
        """``arc_angle`` of every edge, computed once per graph."""
        return np.array([self.arc_angle(e) for e in range(self.n_edges)])

    def total_arc_length(self) -> float:
        return float(sum(self.arc_angles))

    def edge_tangent(self, edge_index: int, at_vertex: int) -> np.ndarray:
        """Unit tangent of the arc at one of its endpoints, pointing inward."""
        i, j = self.edges[edge_index]
        if at_vertex == i:
            a, b = self.vertices[i], self.vertices[j]
        elif at_vertex == j:
            a, b = self.vertices[j], self.vertices[i]
        else:
            raise ValueError("vertex is not an endpoint of the edge")
        cos_t = float(np.clip(np.dot(a, b), -1.0, 1.0))
        sin_t = float(np.sqrt(max(1.0 - cos_t * cos_t, 0.0)))
        return (b - cos_t * a) / sin_t

    def incident_edges(self, vertex: int) -> List[int]:
        return [e for e, (i, j) in enumerate(self.edges) if vertex in (i, j)]

    def degree(self, vertex: int) -> int:
        return len(self.incident_edges(vertex))

    def arc_points(self, edge_index: int, ts: np.ndarray) -> np.ndarray:
        """Points along the arc at parameters ts in [0, 1]."""
        i, j = self.edges[edge_index]
        theta = self.arc_angle(edge_index)
        ts = np.asarray(ts, dtype=float)
        return (
            np.sin((1.0 - ts) * theta)[:, None] * self.vertices[i]
            + np.sin(ts * theta)[:, None] * self.vertices[j]
        ) / np.sin(theta)


def validate_graph(graph: SphericalGraph) -> None:
    verts = graph.vertices
    n = graph.ambient_dim
    if n < 2:
        raise SetValidationError("vertices", "ambient dimension must be >= 2")
    if not np.all(np.isfinite(verts)):
        raise SetValidationError("vertices", "non-finite number")
    with np.errstate(over="ignore"):  # a huge entry gives norm inf, which is not 1
        norms = np.linalg.norm(verts, axis=1)
    if np.max(np.abs(norms - 1.0)) > VERTEX_NORM_TOL:
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise SetValidationError("vertices", f"vertex {bad} has norm {norms[bad]!r}, not 1")
    for e, (i, j) in enumerate(graph.edges):
        if not (0 <= i < graph.n_vertices and 0 <= j < graph.n_vertices):
            raise SetValidationError("edges", f"edge {e} references a missing vertex")
        if i == j:
            raise SetValidationError("edges", f"edge {e} joins a vertex to itself")
        theta = graph.arc_angle(e)
        if theta < ARC_ANGLE_MARGIN or theta > np.pi - ARC_ANGLE_MARGIN:
            raise SetValidationError(
                "edges", f"edge {e} has arc length {theta}, outside (0, pi)"
            )
    _validate_edge_intersections(graph)


# the rows a, b, -c, -d of ``_arcs_meet`` left after dropping each one in turn
_TRIPLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# on one great circle, ends closer than this are one point: the squared sine
# of the angle between them is then at most GRAM_DET_TOL
_SAME_POINT_ANGLE = float(np.sqrt(GRAM_DET_TOL))


def _arcs_meet(a, b, c, d) -> bool:
    """Whether the minor arcs ab and cd share a point that is not an end of both.

    A point of both is a nonzero x >= 0 with x0 a + x1 b = x2 c + x3 d, a
    kernel vector of the rows [a, b, -c, -d], and it is an end of ab where x0
    or x1 vanishes and of cd where x2 or x3 does.  Independent rows have no
    kernel.  Otherwise, where some three rows are independent, the kernel is
    one line, and x_j vanishes exactly where the other three rows are
    dependent (x_j^2 is proportional to their Gram determinant).  Where no
    three are, the four span a plane: the arcs lie on one great circle and
    are compared as angle intervals.  Rows are dependent by the rule of
    ``charts.tangent_gram``, whose Hadamard bound is 1 on unit vectors.
    """
    rows = np.stack([a, b, -c, -d])
    gram = rows @ rows.T
    if np.linalg.det(gram) > GRAM_DET_TOL:
        return False
    minors = np.linalg.det(gram[_TRIPLES[:, :, None], _TRIPLES[:, None, :]])
    zero = minors <= GRAM_DET_TOL
    if np.all(zero):
        return _one_circle_overlap(a, b, c, d)
    # the kernel vector with x_r = 1, from the best-conditioned three rows
    r = int(np.argmax(minors))
    others = _TRIPLES[r]
    x = np.ones(4)
    x[others] = np.linalg.solve(gram[others[:, None], others], -gram[others, r])
    if np.any((x < 0.0) & ~zero):
        return False
    return not ((zero[0] or zero[1]) and (zero[2] or zero[3]))


def _one_circle_overlap(a, b, c, d) -> bool:
    """Whether minor arcs ab and cd of one great circle share more than an end:
    cd as the interval [start, start + length] of angles from a toward b,
    start in [0, 2 pi), against (0, angle of b)."""
    e = b - (a @ b) * a
    e /= np.linalg.norm(e)
    theta, start, stop = np.arctan2([b @ e, c @ e, d @ e], [b @ a, c @ a, d @ a])
    length = (stop - start) % (2.0 * np.pi)
    if length > np.pi:  # the minor arc runs from d to c
        start, length = stop, 2.0 * np.pi - length
    start %= 2.0 * np.pi
    return bool(start < theta - _SAME_POINT_ANGLE
                or start + length > 2.0 * np.pi + _SAME_POINT_ANGLE)


def _validate_edge_intersections(graph: SphericalGraph) -> None:
    """Arcs may meet only at shared ends."""
    for e1, e2 in combinations(range(graph.n_edges), 2):
        if _arcs_meet(*graph.vertices[list(graph.edges[e1] + graph.edges[e2])]):
            raise SetValidationError(
                "edges", f"edges {e1} and {e2} meet away from a shared vertex")


# --------------------------------------------------------------------- builtins

def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def builtin_graphs() -> Dict[str, SphericalGraph]:
    """Catalog of small spherical graphs used throughout the test corpus."""
    graphs: Dict[str, SphericalGraph] = {}

    graphs["cross_s1"] = SphericalGraph(
        vertices=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        edges=(),
    )
    graphs["antipodal_s2"] = SphericalGraph(
        vertices=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        edges=(),
    )
    # great circle in the xy-plane split into four quarter arcs; a minor-arc
    # representation cannot split a circle into fewer than three arcs
    graphs["circle_s2"] = SphericalGraph(
        vertices=np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        ),
        edges=((0, 1), (1, 2), (2, 3), (3, 0)),
    )
    # three arcs of length pi/3 from the north pole
    center = np.array([0.0, 0.0, 1.0])
    leaves = []
    polar = np.pi / 3.0
    for azimuth in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0):
        leaves.append(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
        )
    graphs["star3_s2"] = SphericalGraph(
        vertices=np.vstack([center, np.array(leaves)]),
        edges=((0, 1), (0, 2), (0, 3)),
    )
    # two junctions joined by three two-arc paths (graph with chi = -1)
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0])
    mid = _unit(v1 + v2)
    m_up = _unit(mid + 0.45 * np.array([0.0, 0.0, 1.0]))
    m_dn = _unit(mid - 0.45 * np.array([0.0, 0.0, 1.0]))
    graphs["theta_s2"] = SphericalGraph(
        vertices=np.vstack([v1, v2, m_up, mid, m_dn]),
        edges=((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)),
    )
    tetra = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / np.sqrt(3.0)
    graphs["tetra_s2"] = SphericalGraph(
        vertices=tetra,
        edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    )
    return graphs
