"""Differential geometry of smooth curves and surfaces.

The curvature density of order k at a chart node integrates sigma_(d-k) of
the second fundamental form over the unit normal sphere.  The integral is
exact, with no sampling: for a unit normal v = sum_a w_a e_a the form is
sum_a w_a A_a, odd orders integrate to zero, and sigma_2 is a quadratic form
in w, so its integral over S^(c-1) is |S^(c-1)|/c * sum_a sigma_2(A_a).  By
the Gauss equation that sum is 1/2 (|H|^2 - |II|^2), which is intrinsic, so
the cubature needs no orthonormal frame: ``_chart_frames`` keeps the
Jacobian J, the second derivatives h_ij and det G of the metric G = J^T J,
and the density is read in coordinates, with G and G^-1 written out by hand
for surfaces and no QR or matrix inverse per node.  det G and the rule that
calls a frame degenerate come from ``catalog.charts.tangent_gram``, which set
validation shares:

* codimension 1: B_ij = <h_ij, N> with N = J_1 x J_2, |N|^2 = det G, so
  sigma_2 = det B / det G^2, and a flat chart gives exactly zero;
* codimension 2 and more: the normal parts h_ij - J G^-1 J^T h_ij give
  sigma_2 = (<h11_perp, h22_perp> - |h12_perp|^2) / det G.

A smooth set has one chart, a curve or a surface, so the orders d - k are
0, 1 and 2: order 0 integrates to the normal-sphere area, which the
normalization cancels, odd orders vanish, and order 2 is the surface formula
above.

``lk_measures_sweep`` integrates the densities of several orders over the
part of the set inside the ball of each radius of a sweep, by Gauss-Legendre
cubature on the curve or profile parameter t alone.  The chart gives, once
per sweep, the exact pieces of t that each ball reaches
(``Chart.ball_intervals``), and each rule (fine and halved) evaluates the
chart once for the whole sweep, on the union of the radii's nodes of t (equal
dyadic panels give equal nodes):

* a curve's nodes all lie inside the ball, so the rule needs no mask, and a
  curve that leaves the ball and comes back is integrated on every piece;
* a surface of revolution (``Chart.rotation_axis`` set; every builtin
  surface) has det G and densities that depend on t alone.  Its jet, det G
  and every order's density are built once per profile node, at phi = 0.  On
  its round circle |p - c|^2 = A + B cos phi + C sin phi, with A, B and C
  read off that jet, so the part of the circle inside the ball is one arc
  with closed-form ends, and each profile node carries the exact measure of
  its phi inside the ball (``arc_share``): no jump enters the integrand.  The
  t-values where the circle enters the ball wholly are panel breaks, so the
  measure is smooth on every panel.

Any other chart, a surface with no rotation axis or a chart of dimension 3
or more, is refused on entry to ``lk_measures_sweep`` and
``limits.estimate_limits``, before any grid is built.

Each radius gathers its own nodes in its own order, applies its own weights
and shares, and sums exactly as a sweep of that radius alone would.
``lk_measure_detailed`` is a sweep of one order and one radius.

Sign convention: the form is <second derivative, v>; every quantity reported
here is even in v, so flipping the normal orientation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .catalog.charts import GRAM_DET_TOL, Chart, _dot, gauss_legendre_nodes, tangent_gram
from .catalog.sets import SmoothSet
from .errors import DegenerateChartError, UnsupportedSection
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


@dataclass(eq=False)
class _FrameData:
    positions: np.ndarray   # (B, n)
    jac: np.ndarray         # (B, n, d) columns d map / du_i
    hess: np.ndarray        # (B, n, d, d)
    det_gram: np.ndarray    # (B,) det G, G = J^T J
    sqrt_gram: np.ndarray   # (B,)


def _chart_frames(chart: Chart, u: np.ndarray) -> _FrameData:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    positions, jac, hess = chart.jet(u)
    det_gram, degenerate = tangent_gram(jac)
    if degenerate:
        raise DegenerateChartError(
            f"chart {chart.label!r}: tangent Gram determinant at most "
            f"{GRAM_DET_TOL} g11 g22"
        )
    return _FrameData(
        positions=positions,
        jac=jac,
        hess=hess,
        det_gram=det_gram,
        sqrt_gram=np.sqrt(det_gram),
    )


def _surface_sigma(frames: _FrameData, codim: int) -> np.ndarray:
    """Sum of sigma_2 of the forms over an orthonormal normal basis, on a
    surface chart: (<h11_perp, h22_perp> - |h12_perp|^2) / det G."""
    jac, hess, det = frames.jac, frames.hess, frames.det_gram
    j1, j2 = jac[:, :, 0], jac[:, :, 1]
    h11, h12, h22 = hess[:, :, 0, 0], hess[:, :, 0, 1], hess[:, :, 1, 1]
    if codim == 1:
        # N = J1 x J2 has |N|^2 = det G, so sigma_2 = det <h, N> / det G^2;
        # a flat chart gives exactly zero
        normal = np.stack([
            j1[:, 1] * j2[:, 2] - j1[:, 2] * j2[:, 1],
            j1[:, 2] * j2[:, 0] - j1[:, 0] * j2[:, 2],
            j1[:, 0] * j2[:, 1] - j1[:, 1] * j2[:, 0],
        ], axis=1)
        b11, b12, b22 = _dot(h11, normal), _dot(h12, normal), _dot(h22, normal)
        return (b11 * b22 - b12 * b12) / det / det
    g11, g12, g22 = _dot(j1, j1), _dot(j1, j2), _dot(j2, j2)

    def normal_part(h):
        # h - J G^-1 J^T h, with G^-1 written out
        t1, t2 = _dot(j1, h), _dot(j2, h)
        c1 = (g22 * t1 - g12 * t2) / det
        c2 = (g11 * t2 - g12 * t1) / det
        return h - c1[:, None] * j1 - c2[:, None] * j2

    p11, p12, p22 = normal_part(h11), normal_part(h12), normal_part(h22)
    return (_dot(p11, p22) - _dot(p12, p12)) / det


def _lambda_batch(x: SmoothSet, frames: _FrameData, k: int) -> np.ndarray:
    """Curvature density of order k at the frame nodes."""
    n, d = x.ambient_dim, x.dim
    batch = frames.positions.shape[0]
    order = d - k
    if order < 0 or order % 2 == 1:
        return np.zeros(batch)
    if order == 0:
        # sigma_0 integrates to the normal-sphere area, which the
        # normalization cancels exactly
        return np.ones(batch)
    # order 2: the chart is a surface
    codim = n - d
    sigma = _surface_sigma(frames, codim)
    return sphere_volume(codim - 1) / codim * sigma / sphere_volume(n - k - 1)


def _ball_terms(frames: _FrameData, center: np.ndarray, axis: int) -> np.ndarray:
    """On a chart with rotation axis ``axis``, the rows A, B, C of
    |p(t, phi) - c|^2 = A + B cos phi + C sin phi at every profile node, from
    its jet at phi = 0."""
    offset = frames.positions - center[None, :]
    # the map is a + cos phi u + sin phi v with round circles (|u| = |v|,
    # u . v = 0): at phi = 0, p = a + u, dp/dphi = v and d2p/dphi2 = -u;
    # summed coordinate by coordinate, so a node's bits do not depend on the
    # other nodes of its grid
    terms = np.zeros((3, offset.shape[0]))
    for i in range(offset.shape[1]):
        bend, turn = frames.hess[:, i, axis, axis], frames.jac[:, i, axis]
        middle = offset[:, i] + bend
        terms[0] += middle * middle + bend * bend
        terms[1] -= 2.0 * middle * bend
        terms[2] += 2.0 * middle * turn
    return terms


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
    """sqrt det G, the ball terms of ``_ball_terms`` (None on a curve) and the
    density of each order at every node of t, at phi = 0 on a surface."""
    chart = x.chart
    u = np.zeros((len(t), chart.dim))
    u[:, chart.profile_axis] = t
    frames = _chart_frames(chart, u)
    terms = None if chart.rotation_axis is None else _ball_terms(
        frames, center, chart.rotation_axis)
    return frames.sqrt_gram, terms, [_lambda_batch(x, frames, k) for k in ks]


def _radius_sums(weights, index, share, sqrt_gram, densities) -> List[float]:
    """One radius's measure of each order: the sum over its nodes ``index``
    of weight * sqrt det G * share inside the ball * density."""
    factor = weights * sqrt_gram[index] * share
    return [float(np.sum(factor * row[index])) for row in densities]


def _sweep_at_resolution(
    x: SmoothSet,
    ks,
    radii: List[float],
    pieces: List[np.ndarray],
    spec: CubatureSpec,
    center: np.ndarray,
) -> List[List[float]]:
    """Measures of the orders ks at each radius of the sweep, from a
    Gauss-Legendre rule on each of its pieces of t.

    The chart evaluates its frames and densities once, on the union of every
    radius's nodes; each radius then sums its own nodes in its own order with
    its own weights, so it gets the bits of a sweep of that radius alone.  A
    curve's nodes all lie inside the ball, and each profile node of a surface
    carries the exact measure of the phi inside the ball (``arc_share``).
    """
    totals = [[0.0] * len(ks) for _ in radii]
    owners = [j for j, spans in enumerate(pieces) for _ in spans]
    if not owners:
        return totals
    chart = x.chart
    points, rules = gauss_legendre_nodes(
        np.concatenate(pieces), spec.count(chart.dim), chart.paneled)
    sqrt_gram, terms, densities = _node_scalars(x, points, ks, center)
    for j, radius in enumerate(radii):
        own = [rule for owner, rule in zip(owners, rules) if owner == j]
        if not own:
            continue
        index = np.concatenate([where for where, _ in own])
        weights = np.concatenate([w for _, w in own])
        share = 1.0 if terms is None else arc_share(
            terms[0, index] - radius * radius, terms[1, index], terms[2, index],
            chart.phi_range())
        totals[j] = _radius_sums(weights, index, share, sqrt_gram, densities)
    return totals


def require_cubature_chart(x) -> None:
    """Refuse a smooth set whose chart is neither a curve nor a surface of
    revolution, before any grid is built: the cubature integrates on the
    curve or profile parameter t alone."""
    chart = x.chart if isinstance(x, SmoothSet) else None
    if chart is not None and chart.dim != (1 if chart.rotation_axis is None else 2):
        raise UnsupportedSection(
            f"chart {chart.label!r} of dimension {chart.dim} is neither a curve nor a "
            "surface of revolution; curvature is computed on curves and surfaces of "
            "revolution only"
        )


def lk_measures_sweep(
    x: SmoothSet,
    ks,
    radii,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> List[List[Tuple[float, float]]]:
    """Curvature measures of the orders ks of X inside the ball of each radius,
    each with an error bound: one list of (value, bound) pairs per radius.

    The bound is the change under halving the cubature resolution.  The
    chart's pieces of each ball are solved once per sweep and shared by both
    rules.
    Each rule evaluates the chart's jet and densities once for the whole
    sweep, on the union of the radii's nodes, and evaluates every order on
    them, so each (radius, order) gets the same bits as a call for that radius
    and order alone.
    """
    if not isinstance(x, SmoothSet):
        raise TypeError("lk_measures_sweep expects a smooth set")
    require_cubature_chart(x)
    n, d = x.ambient_dim, x.dim
    ks = list(ks)
    if not all(0 <= k <= n for k in ks):
        raise ValueError(f"k must lie in [0, {n}]")
    radii = list(radii)
    for radius in radii:
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not np.isfinite(radius * radius):
            raise ValueError(f"radius {radius:g} is too large: R^2 is not finite")
    # orders above the dimension vanish, and odd-order symmetric functions are
    # odd in the normal direction, so they integrate to zero over the normal sphere
    live = [k for k in ks if k <= d and (d - k) % 2 == 0]
    measures = [{} for _ in radii]
    if live:
        spec = spec or CubatureSpec()
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        pieces = x.chart.ball_intervals(radii, center)
        fine = _sweep_at_resolution(x, live, radii, pieces, spec, center)
        coarse = _sweep_at_resolution(x, live, radii, pieces, spec.halved(), center)
        for radius, found, values, others in zip(radii, measures, fine, coarse):
            for k, value, other in zip(live, values, others):
                if not (np.isfinite(value) and np.isfinite(other)):
                    raise ValueError(f"radius {radius:g}: the order-{k} measure is not finite")
                found[k] = (value, abs(value - other))
    return [[found.get(k, (0.0, 0.0)) for k in ks] for found in measures]


# the benchmark's tracing wraps this by name
def lk_measure_detailed(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> Tuple[float, float]:
    """Curvature measure of order k of X inside the ball, with an error bound."""
    return lk_measures_sweep(x, (k,), (radius,), spec=spec, center=center)[0][0]
