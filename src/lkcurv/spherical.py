"""Relative curvatures of spherical graphs and the conic reduction.

For a graph on the unit sphere with geodesic arcs, the order-1 relative
curvature is the total arc length and the order-0 one concentrates on the
vertices: each vertex contributes the mean over tangent directions v of its
Morse index 1 - #{incident edges whose initial tangent has positive inner
product with v}.  Under v -> -v each incident tangent is positive for exactly
half of the directions, so the mean index of a vertex is 1 - deg/2 and the
order-0 curvature is V - E exactly, which is the spherical Gauss-Bonnet
identity for one-complexes.  ``spherical_lk`` returns these closed forms; the
test suite holds the order-0 one against a sampled mean of the vertex indices.

``conic_lk_measure_detailed`` converts the relative curvatures of the sphere
trace into the curvature measures of the cone inside a ball: order k of the
cone picks up R^k / k times order k-1 of the trace.
"""

from __future__ import annotations

from math import sqrt
from typing import Tuple

import numpy as np

from .catalog.graphs import SphericalGraph
from .catalog.sets import ConicGraph
from .errors import UnsupportedSection


def spherical_lk(graph: SphericalGraph, k: int) -> float:
    """Relative curvature of order k of a spherical graph, in closed form.

    Order 0 is V - E (the vertex index means 1 - deg/2 summed), order 1 the
    total arc length, and all orders >= 2 vanish on one-complexes.
    """
    if k < 0 or k > graph.ambient_dim - 1:
        raise ValueError(f"order must lie in [0, {graph.ambient_dim - 1}]")
    if k == 0:
        return float(graph.euler_characteristic())
    if k == 1:
        return graph.total_arc_length()
    return 0.0


# ``limits.curvature_measures`` calls this for cones, and the benchmark's
# tracing wraps it by name
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
    return radius**k / k * spherical_lk(x.graph, k - 1), 0.0
