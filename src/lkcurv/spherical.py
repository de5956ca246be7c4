"""Relative curvatures of spherical graphs and the conic reduction.

For a graph on the unit sphere with geodesic arcs, the order-1 relative
curvature is the total arc length and the order-0 one concentrates on the
vertices: each vertex contributes the mean over tangent directions v of its
Morse index 1 - #{incident edges whose initial tangent has positive inner
product with v}.  Under v -> -v each incident tangent is positive for exactly
half of the directions, so the mean index of a vertex is 1 - deg/2 and the
order-0 curvature is V - E exactly, which is the spherical Gauss-Bonnet
identity for one-complexes.  ``vertex_index_mean`` samples the same mean over
directions; ``spherical_gauss_bonnet_check`` holds the sampled sum against
V - E, so that check does not use the closed form it tests.

``conic_lk_measure`` converts the relative curvatures of the sphere trace
into the curvature measures of the cone inside a ball: order k of the cone
picks up R^k / k times order k-1 of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Tuple

import numpy as np

from .catalog.graphs import SphericalGraph
from .catalog.sets import ConicGraph
from .errors import NonGenericDirectionError, UnsupportedSection
from .grassmann import STREAM_VERTEX, substream
from .report import TheoremReport, make_row

GENERIC_DOT_TOL = 1e-10


@dataclass(frozen=True)
class SphericalLK:
    k: int
    value: float
    stderr: float


def _vertex_tangent_basis(graph: SphericalGraph, vertex: int) -> np.ndarray:
    """Orthonormal basis of the tangent space of the sphere at a vertex."""
    q, _ = np.linalg.qr(graph.vertices[vertex][:, None], mode="complete")
    return q[:, 1:].T  # (n-1, n)


def vertex_morse_index(graph: SphericalGraph, vertex: int, v: np.ndarray) -> int:
    """Index 1 - #{incident edge tangents u with <u, v> > 0}.

    ``v`` must be a unit vector tangent to the sphere at the vertex and
    generic for its incident edges.
    """
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    if abs(float(np.dot(v, graph.vertices[vertex]))) > 1e-8:
        raise ValueError("direction must be tangent to the sphere at the vertex")
    descending = 0
    for e in graph.incident_edges(vertex):
        dot = float(np.dot(graph.edge_tangent(e, vertex), v))
        if abs(dot) < GENERIC_DOT_TOL:
            raise NonGenericDirectionError(
                f"direction orthogonal to an edge tangent at vertex {vertex}"
            )
        if dot > 0.0:
            descending += 1
    return 1 - descending


def vertex_index_mean(
    graph: SphericalGraph, vertex: int, n_samples: int, seed: int, stream: int = 0
) -> Tuple[float, float]:
    """Monte Carlo mean and stderr of the vertex index over tangent directions.

    Isolated vertices have index one for every direction; that case is exact.
    """
    degree = graph.degree(vertex)
    if degree == 0:
        return 1.0, 0.0
    basis = _vertex_tangent_basis(graph, vertex)
    tangents = np.stack(
        [graph.edge_tangent(e, vertex) for e in graph.incident_edges(vertex)]
    )
    coords = tangents @ basis.T  # (deg, n-1)
    rng = substream(seed, STREAM_VERTEX, vertex, stream)
    m = basis.shape[0]
    dirs = rng.standard_normal((n_samples, m))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        dirs[bad] = rng.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]
    dots = dirs @ coords.T  # (n_samples, deg)
    ties = np.abs(dots) < GENERIC_DOT_TOL
    if np.any(ties):
        rows = np.nonzero(ties.any(axis=1))[0]
        for row in rows:
            while True:
                cand = rng.standard_normal(m)
                nrm = np.linalg.norm(cand)
                if nrm < 1e-12:
                    continue
                cand /= nrm
                cd = coords @ cand
                if np.all(np.abs(cd) >= GENERIC_DOT_TOL):
                    dots[row] = cd
                    break
    alphas = 1.0 - np.count_nonzero(dots > 0.0, axis=1).astype(float)
    mean = float(np.mean(alphas))
    stderr = float(np.std(alphas, ddof=1) / sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def spherical_lk(graph: SphericalGraph, k: int) -> SphericalLK:
    """Relative curvature of order k of a spherical graph, in closed form.

    Order 0 is V - E (the vertex index means 1 - deg/2 summed), order 1 the
    total arc length, and all orders >= 2 vanish on one-complexes.
    """
    if k < 0 or k > graph.ambient_dim - 1:
        raise ValueError(f"order must lie in [0, {graph.ambient_dim - 1}]")
    if k == 0:
        return SphericalLK(0, float(graph.euler_characteristic()), 0.0)
    if k == 1:
        return SphericalLK(1, graph.total_arc_length(), 0.0)
    return SphericalLK(k, 0.0, 0.0)


def spherical_gauss_bonnet_check(
    graph: SphericalGraph, n_samples: int = 10000, seed: int = 0, set_name: str = "graph"
) -> TheoremReport:
    """chi(graph) = V - E against the sampled sum of the vertex index means."""
    total = 0.0
    var = 0.0
    for vertex in range(graph.n_vertices):
        mean, stderr = vertex_index_mean(graph, vertex, n_samples, seed)
        total += mean
        var += stderr * stderr
    row = make_row(
        k=0,
        lhs=float(graph.euler_characteristic()),
        rhs=total,
        uncertainty=sqrt(var),
        route_lhs="combinatorial(V-E)",
        route_rhs="vertex_index_monte_carlo",
    )
    return TheoremReport(
        theorem_id="spherical_gauss_bonnet",
        set_name=set_name,
        rows=[row],
        seed=seed,
        n_samples=n_samples,
    )


def conic_lk_measure_detailed(
    x: ConicGraph, k: int, radius: float, center=None
) -> Tuple[float, float]:
    """Curvature measure of order k of the cone inside a ball, with stderr.

    With a base point the measure is supported only by edge-free cones
    (unions of rays), where the order-1 value is the exact total ray length
    inside the off-center ball.
    """
    if k < 1:
        raise ValueError("conic curvature measures need k >= 1")
    n = x.ambient_dim
    if k > n:
        raise ValueError(f"k must lie in [1, {n}]")
    center = None if center is None or not np.any(np.asarray(center)) else np.asarray(center, dtype=float)
    if center is not None:
        if x.graph.n_edges:
            raise UnsupportedSection(
                "curvature measures of translated cones with two-dimensional "
                "sectors are not supported"
            )
        if k == 1:
            total = 0.0
            for direction in x.graph.vertices:
                dot = float(direction @ center)
                disc = dot * dot - float(center @ center) + radius * radius
                if disc <= 0.0:
                    continue
                root = sqrt(disc)
                lo, hi = max(dot - root, 0.0), max(dot + root, 0.0)
                total += hi - lo
            return total, 0.0
        return 0.0, 0.0
    if k - 1 >= 2:
        return 0.0, 0.0
    trace = spherical_lk(x.graph, k - 1)
    scale = radius**k / k
    return scale * trace.value, scale * trace.stderr


def conic_lk_measure(x: ConicGraph, k: int, radius: float, center=None) -> float:
    value, _ = conic_lk_measure_detailed(x, k, radius, center=center)
    return value
