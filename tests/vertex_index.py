"""Sampled vertex indices: the Monte Carlo oracle for the spherical order-0 curvature.

The library takes the order-0 relative curvature of a spherical graph in
closed form, V - E, since the mean Morse index of a vertex of degree deg over
its tangent directions is 1 - deg/2.  This module keeps the sampled route:
``vertex_morse_index`` is the index for one direction, ``vertex_index_mean``
averages it over uniform tangent directions drawn from stream domain 2 of
``substream``, which no library route draws from, and
``spherical_gauss_bonnet_check`` holds the sampled sum against V - E, so the
check does not use the closed form it tests.
"""

from __future__ import annotations

from math import sqrt
from typing import Tuple

import numpy as np

from lkcurv import LkError, SphericalGraph, TheoremReport
from lkcurv.grassmann import substream
from lkcurv.report import make_row

# the stream domain of the vertex directions; domains 1 and 4 are the Grassmannian draws
STREAM_VERTEX = 2
GENERIC_DOT_TOL = 1e-10


class NonGenericDirectionError(LkError):
    """A direction orthogonal to an incident edge tangent was supplied where a
    generic direction is required."""


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
