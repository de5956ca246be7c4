"""Chart atlases for smooth sets.

A chart supplies the parametrization together with exact first and second
derivatives, a partition-of-unity weight defined on ambient points, and a
domain fitter that returns a parameter box covering the part of the surface
inside a given ball.  Built-in maps know their own geometry, so for the shapes
shipped here the fitted box matches the ball almost exactly and the indicator
used by the cubature rejects essentially nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np
from scipy.special import roots_legendre

from ..errors import SetValidationError


@dataclass(eq=False)
class Chart:
    label: str
    dim: int
    ambient_dim: int
    map_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    base_domain: Optional[np.ndarray]  # (dim, 2) or None for an unbounded natural domain
    domain_fn: Optional[Callable[[float, np.ndarray], Optional[np.ndarray]]] = None
    weight_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)
    # axes whose fitted ranges grow with the ball radius; cubature panels them
    # dyadically toward the chart's unit-scale feature region
    panel_axes: tuple = ()

    def domain_for_ball(self, radius: float, center: np.ndarray) -> Optional[np.ndarray]:
        """Parameter box covering the chart's trace inside the ball, or None."""
        center = np.asarray(center, dtype=float)
        if self.domain_fn is not None:
            box = self.domain_fn(radius, center)
            if box is None:
                return None
            box = np.asarray(box, dtype=float)
            if self.base_domain is not None:
                lo = np.maximum(box[:, 0], self.base_domain[:, 0])
                hi = np.minimum(box[:, 1], self.base_domain[:, 1])
                if np.any(lo >= hi):
                    return None
                box = np.stack([lo, hi], axis=1)
            return box
        if self.base_domain is None:
            raise SetValidationError(self.label, "chart has neither domain nor fitter")
        return np.asarray(self.base_domain, dtype=float)

    def weights(self, x: np.ndarray) -> np.ndarray:
        if self.weight_fn is None:
            return np.ones(x.shape[0])
        return np.asarray(self.weight_fn(x), dtype=float)


@lru_cache(maxsize=32)
def _gl_rule(count: int):
    nodes, weights = roots_legendre(count)
    return nodes, weights


def _dyadic_panels(lo: float, hi: float, scale: float = 1.0):
    """Panel boundaries refined geometrically toward the origin of the axis."""
    points = {float(lo), float(hi)}
    if lo < 0.0 < hi:
        points.add(0.0)
    magnitude = scale
    top = max(abs(lo), abs(hi))
    while magnitude < top:
        for p in (magnitude, -magnitude):
            if lo < p < hi:
                points.add(float(p))
        magnitude *= 2.0
    return sorted(points)


def _axis_rule(lo: float, hi: float, count: int, paneled: bool):
    if not paneled:
        x, w = _gl_rule(count)
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w
    per_panel = int(np.clip(count / 8, 6, 64))
    x, w = _gl_rule(per_panel)
    nodes, weights = [], []
    bounds = _dyadic_panels(lo, hi)
    for a, b in zip(bounds, bounds[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def gauss_legendre_nodes(box: np.ndarray, counts, panel_axes=()) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of per-axis Gauss-Legendre rules on an axis-aligned box.

    Axes listed in ``panel_axes`` use composite rules on dyadic panels, so
    unit-scale integrand features stay resolved no matter how large the
    fitted range grows with the ball radius.
    """
    box = np.asarray(box, dtype=float)
    dim = box.shape[0]
    counts = tuple(int(c) for c in (counts if np.iterable(counts) else [counts] * dim))
    axes, wts = [], []
    for d in range(dim):
        lo, hi = box[d]
        x, w = _axis_rule(lo, hi, counts[d], d in panel_axes)
        axes.append(x)
        wts.append(w)
    if dim == 1:
        return axes[0][:, None], wts[0]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrid = np.meshgrid(*wts, indexing="ij")
    weights = np.ones(pts.shape[0])
    for w in wgrid:
        weights = weights * w.ravel()
    return pts, weights


def _feasible_interval(g, width0: float, max_width: float = 1e7) -> Optional[np.ndarray]:
    """Bracket {t : g(t) <= 0} for a function with g -> +inf both ways.

    Returns a slightly padded [lo, hi] (the cubature indicator trims any
    excess) or None when the feasible set appears empty.
    """
    width = max(width0, 1.0)
    while g(np.array([-width]))[0] <= 0 or g(np.array([width]))[0] <= 0:
        width *= 2.0
        if width > max_width:
            raise ValueError("feasible interval fitter failed to bracket")
    ts = np.linspace(-width, width, 8193)
    vals = g(ts)
    feas = vals <= 0.0
    if not feas.any():
        i = int(np.argmin(vals))
        local = np.linspace(ts[max(i - 2, 0)], ts[min(i + 2, len(ts) - 1)], 4097)
        lv = g(local)
        if not (lv <= 0).any():
            return None
        ts, vals, feas = local, lv, lv <= 0
    idx = np.nonzero(feas)[0]
    lo = _bisect_edge(g, ts[idx[0] - 1], ts[idx[0]]) if idx[0] > 0 else ts[0]
    hi = _bisect_edge(g, ts[idx[-1] + 1], ts[idx[-1]]) if idx[-1] < len(ts) - 1 else ts[-1]
    return np.array([min(lo, hi), max(lo, hi)])


def _bisect_edge(g, outside: float, inside: float, iters: int = 80) -> float:
    for _ in range(iters):
        mid = 0.5 * (outside + inside)
        if g(np.array([mid]))[0] <= 0:
            inside = mid
        else:
            outside = mid
        if abs(outside - inside) <= 1e-13 * (1.0 + abs(mid)):
            break
    return outside  # outer edge, so the box covers the feasible set


# ------------------------------------------------------------------- factories
#
# Every builder takes (domain, params) where domain may be None (use the
# natural/fitted domain) and returns a Chart.  The maps are vectorized over a
# batch axis: U has shape (B, dim).


def _build_plane(domain, params):
    frame = np.asarray(params.get("frame", np.eye(2, 3)), dtype=float)
    if frame.ndim != 2 or frame.shape[0] != 2:
        raise SetValidationError("charts.params.frame", "needs two rows")
    n = frame.shape[1]
    origin = np.asarray(params.get("origin", np.zeros(n)), dtype=float)
    if origin.shape != (n,):
        raise SetValidationError(
            "charts.params.origin", f"has shape {origin.shape}, the frame rows have length {n}"
        )
    u, v = frame

    def map_fn(U):
        r, phi = U[:, 0], U[:, 1]
        return origin + np.outer(r * np.cos(phi), u) + np.outer(r * np.sin(phi), v)

    def jac_fn(U):
        r, phi = U[:, 0], U[:, 1]
        d_r = np.outer(np.cos(phi), u) + np.outer(np.sin(phi), v)
        d_phi = np.outer(-r * np.sin(phi), u) + np.outer(r * np.cos(phi), v)
        return np.stack([d_r, d_phi], axis=2)

    def hess_fn(U):
        r, phi = U[:, 0], U[:, 1]
        B = U.shape[0]
        h = np.zeros((B, len(u), 2, 2))
        d_rphi = np.outer(-np.sin(phi), u) + np.outer(np.cos(phi), v)
        d_phiphi = np.outer(-r * np.cos(phi), u) + np.outer(-r * np.sin(phi), v)
        h[:, :, 0, 1] = d_rphi
        h[:, :, 1, 0] = d_rphi
        h[:, :, 1, 1] = d_phiphi
        return h

    def domain_fn(radius, center):
        r_max = float(np.linalg.norm(center - origin)) + radius
        return np.array([[0.0, r_max], [0.0, 2.0 * np.pi]])

    return Chart("plane", 2, len(u), map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params), panel_axes=(0,))


def _build_sphere(domain, params, n=3):
    r0 = float(params.get("radius", 1.0))
    c0 = np.asarray(params.get("center", np.zeros(3)), dtype=float)

    def map_fn(U):
        th, ph = U[:, 0], U[:, 1]
        return c0 + r0 * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
        )

    def jac_fn(U):
        th, ph = U[:, 0], U[:, 1]
        d_th = r0 * np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=1)
        d_ph = r0 * np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros_like(th)], axis=1)
        return np.stack([d_th, d_ph], axis=2)

    def hess_fn(U):
        th, ph = U[:, 0], U[:, 1]
        B = U.shape[0]
        h = np.zeros((B, 3, 2, 2))
        h[:, :, 0, 0] = r0 * np.stack([-np.sin(th) * np.cos(ph), -np.sin(th) * np.sin(ph), -np.cos(th)], axis=1)
        d_thph = r0 * np.stack([-np.cos(th) * np.sin(ph), np.cos(th) * np.cos(ph), np.zeros_like(th)], axis=1)
        h[:, :, 0, 1] = d_thph
        h[:, :, 1, 0] = d_thph
        h[:, :, 1, 1] = r0 * np.stack([-np.sin(th) * np.cos(ph), -np.sin(th) * np.sin(ph), np.zeros_like(th)], axis=1)
        return h

    def domain_fn(radius, center):
        gap = abs(float(np.linalg.norm(center - c0)) - r0)
        if gap > radius:
            return None
        return np.array([[0.0, np.pi], [0.0, 2.0 * np.pi]])

    return Chart("sphere", 2, 3, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params))


def _build_cylinder(domain, params, n=3):
    r0 = float(params.get("radius", 1.0))

    def map_fn(U):
        ph, z = U[:, 0], U[:, 1]
        return np.stack([r0 * np.cos(ph), r0 * np.sin(ph), z], axis=1)

    def jac_fn(U):
        ph = U[:, 0]
        zeros = np.zeros_like(ph)
        d_ph = np.stack([-r0 * np.sin(ph), r0 * np.cos(ph), zeros], axis=1)
        d_z = np.stack([zeros, zeros, np.ones_like(ph)], axis=1)
        return np.stack([d_ph, d_z], axis=2)

    def hess_fn(U):
        ph = U[:, 0]
        B = U.shape[0]
        h = np.zeros((B, 3, 2, 2))
        h[:, :, 0, 0] = np.stack([-r0 * np.cos(ph), -r0 * np.sin(ph), np.zeros_like(ph)], axis=1)
        return h

    def domain_fn(radius, center):
        rho = float(np.hypot(center[0], center[1]))
        gap2 = radius * radius - (r0 - rho) ** 2
        if gap2 < 0:
            return None
        half = float(np.sqrt(gap2))
        return np.array([[0.0, 2.0 * np.pi], [center[2] - half, center[2] + half]])

    return Chart("cylinder", 2, 3, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params), panel_axes=(1,))


def _build_paraboloid(domain, params, n=3):
    # z = a (x^2 + y^2), polar parameters (r, phi)
    a = float(params.get("coefficient", 1.0))

    def map_fn(U):
        r, ph = U[:, 0], U[:, 1]
        return np.stack([r * np.cos(ph), r * np.sin(ph), a * r * r], axis=1)

    def jac_fn(U):
        r, ph = U[:, 0], U[:, 1]
        d_r = np.stack([np.cos(ph), np.sin(ph), 2.0 * a * r], axis=1)
        d_ph = np.stack([-r * np.sin(ph), r * np.cos(ph), np.zeros_like(r)], axis=1)
        return np.stack([d_r, d_ph], axis=2)

    def hess_fn(U):
        r, ph = U[:, 0], U[:, 1]
        B = U.shape[0]
        h = np.zeros((B, 3, 2, 2))
        h[:, :, 0, 0] = np.stack([np.zeros_like(r), np.zeros_like(r), 2.0 * a * np.ones_like(r)], axis=1)
        d_rph = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(r)], axis=1)
        h[:, :, 0, 1] = d_rph
        h[:, :, 1, 0] = d_rph
        h[:, :, 1, 1] = np.stack([-r * np.cos(ph), -r * np.sin(ph), np.zeros_like(r)], axis=1)
        return h

    def domain_fn(radius, center):
        rho_c = float(np.hypot(center[0], center[1]))

        def gap(r):
            r = np.abs(np.asarray(r, dtype=float))
            return (r - rho_c) ** 2 + (a * r * r - center[2]) ** 2 - radius * radius

        interval = _feasible_interval(gap, width0=np.sqrt(radius / max(abs(a), 1e-12)) + radius)
        if interval is None:
            return None
        r_max = float(max(abs(interval[0]), abs(interval[1])))
        return np.array([[0.0, r_max], [0.0, 2.0 * np.pi]])

    return Chart("paraboloid", 2, 3, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params), panel_axes=(0,))


def _build_hyperboloid(domain, params, n=3):
    # x^2 + y^2 - z^2 = 1, parameters (phi, z), radius w(z) = sqrt(1 + z^2)

    def _w(z):
        return np.sqrt(1.0 + z * z)

    def map_fn(U):
        ph, z = U[:, 0], U[:, 1]
        w = _w(z)
        return np.stack([w * np.cos(ph), w * np.sin(ph), z], axis=1)

    def jac_fn(U):
        ph, z = U[:, 0], U[:, 1]
        w = _w(z)
        wp = z / w
        zeros = np.zeros_like(z)
        d_ph = np.stack([-w * np.sin(ph), w * np.cos(ph), zeros], axis=1)
        d_z = np.stack([wp * np.cos(ph), wp * np.sin(ph), np.ones_like(z)], axis=1)
        return np.stack([d_ph, d_z], axis=2)

    def hess_fn(U):
        ph, z = U[:, 0], U[:, 1]
        w = _w(z)
        wp = z / w
        wpp = 1.0 / (w * w * w)
        B = U.shape[0]
        h = np.zeros((B, 3, 2, 2))
        h[:, :, 0, 0] = np.stack([-w * np.cos(ph), -w * np.sin(ph), np.zeros_like(z)], axis=1)
        d_phz = np.stack([-wp * np.sin(ph), wp * np.cos(ph), np.zeros_like(z)], axis=1)
        h[:, :, 0, 1] = d_phz
        h[:, :, 1, 0] = d_phz
        h[:, :, 1, 1] = np.stack([wpp * np.cos(ph), wpp * np.sin(ph), np.zeros_like(z)], axis=1)
        return h

    def domain_fn(radius, center):
        rho_c = float(np.hypot(center[0], center[1]))

        def gap(z):
            z = np.asarray(z, dtype=float)
            return (_w(z) - rho_c) ** 2 + (z - center[2]) ** 2 - radius * radius

        interval = _feasible_interval(gap, width0=radius + abs(center[2]) + 2.0)
        if interval is None:
            return None
        return np.array([[0.0, 2.0 * np.pi], [interval[0], interval[1]]])

    return Chart("hyperboloid_one_sheet", 2, 3, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params), panel_axes=(1,))


def _build_torus(domain, params, n=3):
    R0 = float(params.get("major_radius", 2.0))
    r0 = float(params.get("minor_radius", 0.5))

    def map_fn(U):
        ph, ps = U[:, 0], U[:, 1]
        w = R0 + r0 * np.cos(ps)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r0 * np.sin(ps)], axis=1)

    def jac_fn(U):
        ph, ps = U[:, 0], U[:, 1]
        w = R0 + r0 * np.cos(ps)
        zeros = np.zeros_like(ph)
        d_ph = np.stack([-w * np.sin(ph), w * np.cos(ph), zeros], axis=1)
        d_ps = np.stack(
            [-r0 * np.sin(ps) * np.cos(ph), -r0 * np.sin(ps) * np.sin(ph), r0 * np.cos(ps)], axis=1
        )
        return np.stack([d_ph, d_ps], axis=2)

    def hess_fn(U):
        ph, ps = U[:, 0], U[:, 1]
        w = R0 + r0 * np.cos(ps)
        B = U.shape[0]
        h = np.zeros((B, 3, 2, 2))
        h[:, :, 0, 0] = np.stack([-w * np.cos(ph), -w * np.sin(ph), np.zeros_like(ph)], axis=1)
        d_phps = np.stack(
            [r0 * np.sin(ps) * np.sin(ph), -r0 * np.sin(ps) * np.cos(ph), np.zeros_like(ph)], axis=1
        )
        h[:, :, 0, 1] = d_phps
        h[:, :, 1, 0] = d_phps
        h[:, :, 1, 1] = np.stack(
            [-r0 * np.cos(ps) * np.cos(ph), -r0 * np.cos(ps) * np.sin(ph), -r0 * np.sin(ps)], axis=1
        )
        return h

    def domain_fn(radius, center):
        if float(np.linalg.norm(center)) - (R0 + r0) > radius:
            return None
        return np.array([[0.0, 2.0 * np.pi], [0.0, 2.0 * np.pi]])

    return Chart("torus", 2, 3, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params))


def _build_poly_curve(domain, params, n=3):
    where = "charts.params.coefficients"
    coeffs = np.asarray(params.get("coefficients", []), dtype=float)  # (n, deg+1)
    if coeffs.ndim != 2 or coeffs.size == 0:
        raise SetValidationError(where, "needs one row of coefficients per coordinate")
    ambient = coeffs.shape[0]
    dcoeffs = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    if not np.any(dcoeffs):
        raise SetValidationError(where, "every coordinate is constant, so the map is a point")
    d2coeffs = dcoeffs[:, 1:] * np.arange(1, dcoeffs.shape[1])
    if d2coeffs.shape[1] == 0:
        d2coeffs = np.zeros((ambient, 1))

    def _horner(c, t):
        out = np.zeros((t.shape[0], ambient))
        for j in range(ambient):
            out[:, j] = np.polynomial.polynomial.polyval(t, c[j])
        return out

    def map_fn(U):
        return _horner(coeffs, U[:, 0])

    def jac_fn(U):
        return _horner(dcoeffs, U[:, 0])[:, :, None]

    def hess_fn(U):
        return _horner(d2coeffs, U[:, 0])[:, :, None, None]

    def domain_fn(radius, center):
        def gap(t):
            t = np.asarray(t, dtype=float)
            x = _horner(coeffs, t)
            return np.sum((x - center[None, :]) ** 2, axis=1) - radius * radius

        try:
            interval = _feasible_interval(gap, width0=radius)
        except ValueError as exc:
            raise SetValidationError(
                where, f"the curve is still inside the radius-{radius:g} ball at |t| = 1e7"
            ) from exc
        if interval is None:
            return None
        return interval[None, :]

    return Chart("poly_curve", 1, ambient, map_fn, jac_fn, hess_fn,
                 _as_box(domain), domain_fn, params=dict(params), panel_axes=(0,))


def _as_box(domain):
    if domain is None:
        return None
    return np.asarray(domain, dtype=float)


CHART_BUILDERS: Dict[str, Callable] = {
    "plane": _build_plane,
    "sphere": _build_sphere,
    "cylinder": _build_cylinder,
    "paraboloid": _build_paraboloid,
    "hyperboloid_one_sheet": _build_hyperboloid,
    "torus": _build_torus,
    "poly_curve": _build_poly_curve,
}


def build_chart(name: str, domain=None, params=None) -> Chart:
    if name not in CHART_BUILDERS:
        raise SetValidationError("charts.map", f"unknown chart map {name!r}")
    params = params or {}
    numbers = {"charts.domain": domain} if domain is not None else {}
    numbers.update((f"charts.params.{key}", value) for key, value in params.items())
    for where, value in numbers.items():
        try:
            finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise SetValidationError(where, "not a number or an array of numbers") from exc
        if not finite:
            raise SetValidationError(where, "non-finite number")
    return CHART_BUILDERS[name](domain, params)
