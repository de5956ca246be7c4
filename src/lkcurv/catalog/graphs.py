"""Spherical graphs: vertices on the unit sphere joined by minor great-circle arcs.

A :class:`SphericalGraph` is the unit-sphere trace of a conic set of dimension
at most two.  Arcs are always the minor geodesic between their endpoints, so
every edge has length in (0, pi) and is totally geodesic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..errors import SetValidationError

VERTEX_NORM_TOL = 1e-10
ARC_ANGLE_MARGIN = 1e-8
ARC_INTERIOR_MARGIN = 1e-9


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
        return float(sum(self.arc_angle(e) for e in range(self.n_edges)))

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


def _arc_parameter_of(graph, e, point, tol=1e-9):
    """Parameter in [0, 1] if the unit vector ``point`` lies on arc e, else None."""
    i, _ = graph.edges[e]
    theta = graph.arc_angle(e)
    vi = graph.vertices[i]
    tangent = graph.edge_tangent(e, i)
    c = float(np.dot(point, vi))
    s = float(np.dot(point, tangent))
    residual = point - (c * vi + s * tangent)
    if np.linalg.norm(residual) > 1e-8:
        return None  # not on the arc's great circle
    u = float(np.arctan2(s, c))  # angle from vi along the arc
    if -tol * theta <= u <= theta * (1.0 + tol):
        return float(np.clip(u / theta, 0.0, 1.0))
    return None


def _validate_edge_intersections(graph: SphericalGraph) -> None:
    """Arcs may meet only at shared endpoints."""
    for e1 in range(graph.n_edges):
        for e2 in range(e1 + 1, graph.n_edges):
            p1 = _arc_plane_basis(graph, e1)
            p2 = _arc_plane_basis(graph, e2)
            # candidate intersection directions of the two great circles
            m = p1 @ p2.T
            _, svals, vt = np.linalg.svd(m)
            if svals[-1] > 1.0 - 1e-9:
                # same great circle: check the parameter intervals overlap
                if _same_circle_overlap(graph, e1, e2):
                    raise SetValidationError(
                        "edges", f"edges {e1} and {e2} overlap along a common circle"
                    )
                continue
            if svals[0] < 1.0 - 1e-9:
                continue  # planes meet only at the origin
            direction = vt[0] @ p2
            direction /= np.linalg.norm(direction)
            for cand in (direction, -direction):
                t1 = _arc_parameter_of(graph, e1, cand)
                t2 = _arc_parameter_of(graph, e2, cand)
                if t1 is None or t2 is None:
                    continue
                # endpoint-to-endpoint contact is a shared vertex; anything
                # touching an arc interior is a genuine crossing
                interior1 = ARC_INTERIOR_MARGIN < t1 < 1.0 - ARC_INTERIOR_MARGIN
                interior2 = ARC_INTERIOR_MARGIN < t2 < 1.0 - ARC_INTERIOR_MARGIN
                if interior1 or interior2:
                    raise SetValidationError(
                        "edges", f"edges {e1} and {e2} cross away from a shared vertex"
                    )


def _arc_plane_basis(graph, e):
    i, j = graph.edges[e]
    q, _ = np.linalg.qr(np.stack([graph.vertices[i], graph.vertices[j]]).T)
    return q.T  # (2, n)


def _same_circle_overlap(graph, e1, e2) -> bool:
    ts = np.linspace(0.05, 0.95, 19)
    pts1 = graph.arc_points(e1, ts)
    for p in pts1:
        t2 = _arc_parameter_of(graph, e2, p)
        if t2 is not None and ARC_INTERIOR_MARGIN < t2 < 1 - ARC_INTERIOR_MARGIN:
            return True
    return False


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
