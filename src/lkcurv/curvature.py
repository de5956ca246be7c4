"""Differential geometry of smooth curves and surfaces.

The curvature density of order k at a chart node integrates sigma_(d-k) of
the second fundamental form over the unit normal sphere.  The integral is
exact, with no sampling: for a unit normal v = sum_a w_a e_a the form is
sum_a w_a A_a, odd orders integrate to zero, and sigma_2 is a quadratic form
in w, so its integral over S^(c-1) is |S^(c-1)|/c * sum_a sigma_2(A_a).  By
the Gauss equation that sum is the Gauss curvature K, which is intrinsic, so
one formula serves every codimension.  A smooth set has one chart, a curve
or a surface, so the orders d - k are 0, 1 and 2: order 0 integrates to the
normal-sphere area, which the normalization cancels, odd orders vanish, and
order 2 is |S^(c-1)|/c K.

``measure_sweep`` integrates the densities of several orders over the part
of the set inside the ball of each radius of a sweep, by Gauss-Legendre
cubature on the curve or profile parameter t alone, in one batched pass, and
gives (radii, orders) arrays of measures and bounds.  The chart gives, once
per sweep, the exact pieces of t that each ball reaches
(``Chart.ball_intervals``); each rule (fine and halved) maps each distinct
panel of the radii's pieces once (equal dyadic panels give equal nodes), and
``_node_scalars`` runs once for the whole sweep, on both rules' nodes:

* a curve's nodes all lie inside the ball, so the rule needs no mask, and a
  curve that leaves the ball and comes back is integrated on every piece.
  Its velocities alone give det G = |p'|^2 (``PolyCurve.node_scalars``);
* a surface of revolution (every builtin surface) is read off its profile
  (w, z), one profile call per sweep (``Revolution.node_scalars``): det G =
  (w'^2 + z'^2) w^2, the Gauss curvature K, which gives the order-2 density
  in every codimension, and the terms A, B, C of |p - c|^2 = A + B cos phi +
  C sin phi on the round circle at t.  The part of the circle inside the
  ball is one arc with closed-form ends, and each profile node carries the
  exact measure of its phi inside the ball (``arc_share``): no jump enters
  the integrand.  The t-values where the circle enters the ball wholly are
  panel breaks, so the measure is smooth on every panel.  On a frame of
  coordinate axes, as on every builtin surface, each of these is the
  arithmetic of the 2-D jet at phi = 0, bit for bit; the tests hold the
  route against that jet (``tests/qr_frames.py``).

Set validation judges the tangent frames by the same ``node_scalars``.

One ``arc_share`` call covers every radius and rule.  Each (rule, radius)
slot then sums its own slice of nodes with ``np.add.reduce``, in its own
order with its own weights and shares, exactly as a sweep of that radius
alone would.  ``lk_measure_detailed`` is a sweep of one order and one
radius.  The benchmark's tracing wraps ``lk_measure_detailed`` and counts
the nodes of ``gauss_legendre_nodes`` by these names in this module.

Sign convention: the form is <second derivative, v>; every quantity reported
here is even in v, so flipping the normal orientation changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .catalog.charts import GRAM_DET_TOL, dyadic_panels, gauss_legendre_nodes
from .catalog.sets import SmoothSet
from .errors import DegenerateChartError
from .geomconst import sphere_volume


@dataclass
class CubatureSpec:
    nodes_2d: int = 128       # on the profile parameter of a surface
    nodes_1d: int = 512       # 64 per dyadic panel; halved, 32 per panel

    def count(self, dim: int) -> int:
        """The rule's node count on t for a chart of dimension ``dim``."""
        return self.nodes_1d if dim == 1 else self.nodes_2d

    def halved(self) -> "CubatureSpec":
        return CubatureSpec(
            nodes_2d=max(self.nodes_2d // 2, 8),
            nodes_1d=max(self.nodes_1d // 2, 32),
        )


def vanishes_identically(dim: int, k: int) -> bool:
    """Whether the order-k density of a smooth set of dimension ``dim`` is 0
    at every node: orders above the dimension vanish, and odd-order symmetric
    functions are odd in the normal direction, so they integrate to zero over
    the normal sphere."""
    return k > dim or (dim - k) % 2 == 1


def arc_share(gap: np.ndarray, cos_coef: np.ndarray, sin_coef: np.ndarray,
              phi_range: Optional[Tuple[float, float]]) -> np.ndarray:
    """The measure of {phi : gap + cos_coef cos phi + sin_coef sin phi <= 0}
    at each node, over the whole circle (``phi_range`` None) or over the
    interval ``phi_range``, counting each turn it spans."""
    rho = np.hypot(cos_coef, sin_coef)
    positive = rho > 0.0
    # inside where cos(phi - phi0) <= -gap / rho: outside the arc phi0 +- alpha
    ratio = np.where(positive, np.clip(-gap, -rho, rho) / np.where(positive, rho, 1.0),
                     np.where(gap <= 0.0, 1.0, -1.0))
    alpha = np.arccos(ratio)
    per_turn = 2.0 * np.pi - 2.0 * alpha
    if phi_range is None:
        return per_turn
    phi0 = np.arctan2(sin_coef, cos_coef)

    def inside_up_to(angle):  # measure of the inside part of [phi0, phi0 + angle]
        return (np.floor(angle / (2.0 * np.pi)) * per_turn
                + np.clip(np.mod(angle, 2.0 * np.pi) - alpha, 0.0, per_turn))

    lo, hi = phi_range
    return inside_up_to(hi - phi0) - inside_up_to(lo - phi0)


def _node_scalars(x: SmoothSet, t: np.ndarray, ks, center: np.ndarray):
    """sqrt det G, the ball terms A, B, C of |p(t, phi) - c|^2 = A + B cos phi
    + C sin phi (None on a curve) and the densities (orders, nodes) of the
    orders ks, none of which vanishes identically, at every node of t."""
    chart, n = x.chart, x.ambient_dim
    det, degenerate, gauss, terms = chart.shape.node_scalars(t, center, any(k < 2 for k in ks))
    if degenerate:
        raise DegenerateChartError(f"chart {chart.label!r}: tangent Gram determinant at "
                                   f"most {GRAM_DET_TOL} g11 g22")
    # a curve's one live order, k = 1, and a surface's top order have density 1
    densities = np.ones((len(ks), len(t)))
    if gauss is not None:
        codim = n - 2
        for row, k in zip(densities, ks):
            if k < 2:
                row[:] = sphere_volume(codim - 1) / codim * gauss / sphere_volume(n - k - 1)
    return np.sqrt(det), terms, densities


def _slot_sums(x: SmoothSet, ks, radii: List[float], pieces: List[np.ndarray],
               spec: CubatureSpec, center: np.ndarray) -> np.ndarray:
    """Measures (2 radii, orders) of the orders ks at each radius of the
    sweep, from a Gauss-Legendre rule on each of its pieces of t: one row per
    radius at the fine rule, then one per radius at the halved rule.  The
    node scalars are built once, on both rules' nodes together, and each
    (rule, radius) slot sums its own slice of nodes in its own order."""
    chart = x.chart
    counts = [len(spans) for spans in pieces]
    sums = np.zeros((2 * len(radii), len(ks)))
    if not sum(counts):
        return sums
    spans = np.concatenate(pieces)
    panels = dyadic_panels(spans, chart.paneled)
    points, (fine, coarse), weights, (fine_ends, coarse_ends) = zip(*(
        gauss_legendre_nodes(spans, rule.count(chart.dim), chart.paneled, panels)
        for rule in (spec, spec.halved())))
    sqrt_gram, terms, densities = _node_scalars(x, np.concatenate(points), ks, center)
    # the nodes of both rules in one order, by rule, then by piece; each
    # (rule, radius) slot ends after the nodes of its radius's last piece
    index, weights = np.concatenate([fine, coarse + len(points[0])]), np.concatenate(weights)
    last = np.cumsum(counts)
    ends = np.concatenate([fine_ends[last], coarse_ends[last] + len(fine)]).tolist()
    slots = list(zip([0] + ends, ends))
    share = 1.0
    if terms is not None:
        squares = np.repeat(np.square(radii * 2), [b - a for a, b in slots])
        share = arc_share(terms[0, index] - squares, terms[1, index], terms[2, index],
                          chart.phi_range())
    # C order, so that each row's slice is summed pairwise as a 1-d array is
    products = weights * sqrt_gram[index] * share * np.take(densities, index, axis=1)
    for slot, (a, b) in enumerate(slots):
        sums[slot] = np.add.reduce(products[:, a:b], axis=1)
    return sums


def measure_sweep(
    x: SmoothSet,
    ks,
    radii,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Curvature measures of the orders ks of X inside the ball of each radius
    and their error bounds, the change under halving the cubature
    resolution, as two (radii, orders) arrays.  Each (radius, order) gets the
    bits of a sweep of that radius and order alone."""
    if not isinstance(x, SmoothSet):
        raise TypeError("measure_sweep expects a smooth set")
    n, d = x.ambient_dim, x.dim
    ks = list(ks)
    if not all(0 <= k <= n for k in ks):
        raise ValueError(f"k must lie in [0, {n}]")
    radii = list(radii)
    for radius in radii:
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(radius * radius):
            raise ValueError(f"radius {radius:g} is too large: R^2 is not finite")
    values, bounds = np.zeros((2, len(radii), len(ks)))
    live = [j for j, k in enumerate(ks) if not vanishes_identically(d, k)]
    if live:
        spec = spec or CubatureSpec()
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        sums = _slot_sums(x, [ks[j] for j in live], radii,
                          x.chart.ball_intervals(radii, center), spec, center)
        fine, coarse = sums[:len(radii)], sums[len(radii):]
        infinite = ~(np.isfinite(fine) & np.isfinite(coarse))
        if infinite.any():
            i, j = np.argwhere(infinite)[0]
            raise ValueError(f"radius {radii[i]:g}: the order-{ks[live[j]]} measure "
                             "is not finite")
        values[:, live], bounds[:, live] = fine, np.abs(fine - coarse)
    return values, bounds


# the benchmark's tracing wraps this by name
def lk_measure_detailed(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> Tuple[float, float]:
    """Curvature measure of order k of X inside the ball, with an error bound."""
    values, bounds = measure_sweep(x, (k,), (radius,), spec=spec, center=center)
    return float(values[0, 0]), float(bounds[0, 0])
