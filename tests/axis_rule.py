"""A Gauss-Legendre rule on one interval, panel by panel: the reference rule.

``axis_rule(lo, hi, count, paneled)`` builds the rule that
``gauss_legendre_nodes`` gives one piece, one panel at a time: the whole
interval at ``count`` nodes, or on a ``paneled`` axis composite rules of
``count / 8`` nodes (6 to 64) on panels cut at the powers of two toward the
axis origin.  The tests hold the library's one-broadcast rules and radius
sweeps against it, node for node.
"""

from __future__ import annotations

import numpy as np

from lkcurv.catalog.charts import _gl_rule


def dyadic_cuts(lo: float, hi: float):
    """lo, hi, 0 and every +-2^j (j >= 0) strictly between them, sorted."""
    points = {float(lo), float(hi)}
    if lo < 0.0 < hi:
        points.add(0.0)
    magnitude = 1.0
    while magnitude < max(abs(lo), abs(hi)):
        points.update(p for p in (magnitude, -magnitude) if lo < p < hi)
        magnitude *= 2.0
    return sorted(points)


def axis_rule(lo: float, hi: float, count: int, paneled: bool):
    """Nodes and weights of the rule on [lo, hi], panel by panel."""
    if not paneled:
        x, w = _gl_rule(count)
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w
    x, w = _gl_rule(int(np.clip(count / 8, 6, 64)))
    bounds = dyadic_cuts(lo, hi)
    nodes = [0.5 * (b - a) * x + 0.5 * (b + a) for a, b in zip(bounds, bounds[1:])]
    weights = [0.5 * (b - a) * w for a, b in zip(bounds, bounds[1:])]
    return np.concatenate(nodes), np.concatenate(weights)
