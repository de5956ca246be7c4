"""Charts for smooth sets.

A smooth set has one chart, a curve or a surface.  The chart supplies one
jet, the parametrization together with its exact first and second derivatives
at a batch of parameter points, and a domain fitter that returns a parameter
box covering the part of the chart's trace inside a given ball.  Built-in
maps know their own geometry, so for the shapes shipped here the fitted box
matches the ball almost exactly and the indicator used by the cubature rejects
essentially nothing.

Every builtin surface is a surface of revolution,

    (t, phi) -> origin + w(t) (cos phi e1 + sin phi e2) + z(t) e3,

so a map gives only its profile curve: w, z and their first two derivatives
at t.  ``_revolution_chart`` turns a profile into the map, its Jacobian and
its second derivatives by the chain rule, evaluating the profile, cos phi and
sin phi once per node for all three, with the same per-node arithmetic for
every map, and records the index of phi as ``Chart.rotation_axis``: det G
and the curvature densities of such a chart do not depend on phi, so the
cubature builds frames on the profile (phi = 0) only.  The space curve
``poly_curve`` differentiates its polynomial coefficients instead.

Cubature uses tensor products of Gauss-Legendre rules.  Each rule is computed
here by Newton's method on the three-term Legendre recurrence from Tricomi's
initial guess, which gives nodes and weights to full double precision (Hale
and Townsend, SIAM J. Sci. Comput. 35, 2013), and is cached per node count.
The boxes of a radius sweep share each axis's union of nodes
(``union_rules``), and each box keeps its own rule on them (``GridRule``);
``gauss_legendre_nodes`` also returns their tensor grid.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import SetValidationError

# floor on the tangent Gram determinant det(J^T J) at a chart node
GRAM_DET_TOL = 1e-12


@dataclass(eq=False)
class Chart:
    label: str
    dim: int
    ambient_dim: int
    # U (B, dim) -> points (B, n), Jacobians (B, n, dim), second derivatives (B, n, dim, dim)
    jet: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]
    base_domain: Optional[np.ndarray]  # (dim, 2) or None for an unbounded natural domain
    domain_fn: Optional[Callable[[float, np.ndarray], Optional[np.ndarray]]] = None
    params: dict = field(default_factory=dict)
    # axes whose fitted ranges grow with the ball radius; cubature panels them
    # dyadically toward the chart's unit-scale feature region
    panel_axes: tuple = ()
    # index of phi on a surface of revolution, whose map is
    # a(t) + cos phi u(t) + sin phi v(t): det G and the densities depend on t
    # alone, so cubature evaluates the jet on the profile (phi = 0) only
    rotation_axis: Optional[int] = None

    def domain_for_ball(self, radius: float, center: np.ndarray) -> Optional[np.ndarray]:
        """Parameter box covering the chart's trace inside the ball, or None."""
        radius = float(radius)
        if not np.isfinite(radius * radius):
            # the fitters compare squared distances, which would all be inf or nan
            raise ValueError(f"radius {radius:g} is too large: R^2 is not finite")
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


def _legendre(count: int, x: np.ndarray):
    """P_count and its derivative at each x, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, count):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, count * (x * p - p_prev) / (x * x - 1.0)


# Newton from Tricomi's guess converges in a few steps; a step this small is a
# rounding of a converged node
_NEWTON_STEPS = 10
_NEWTON_TOL = 4.0 * np.finfo(float).eps


@lru_cache(maxsize=32)
def _gl_rule(count: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    k = np.arange(count, 0, -1)
    x = (1.0 - 1.0 / (8.0 * count**2) + 1.0 / (8.0 * count**3)) * np.cos(
        np.pi * (4 * k - 1) / (4 * count + 2))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(count, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    _, dp = _legendre(count, x)
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    # the rule is symmetric about 0; averaging the mirror images makes it exactly so
    nodes, weights = 0.5 * (x - x[::-1]), 0.5 * (weights + weights[::-1])
    # the cache hands these arrays to every caller
    nodes.flags.writeable = weights.flags.writeable = False
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


@dataclass(frozen=True)
class GridRule:
    """One box's tensor Gauss-Legendre rule on a shared tensor grid."""
    shape: tuple         # grid nodes per axis
    where: tuple         # per axis, the grid positions of the box's nodes
    axis_weights: tuple  # per axis, their weights

    def tensor(self) -> Tuple[np.ndarray, np.ndarray]:
        """Grid indices of the box's nodes in their own ij order, and their weights."""
        index, weights = self.where[0], self.axis_weights[0]
        for size, where, w in zip(self.shape[1:], self.where[1:], self.axis_weights[1:]):
            index = np.add.outer(index * size, where)
            weights = np.multiply.outer(weights, w)
        return index.ravel(), weights.ravel()


def union_rules(boxes, counts, panel_axes=()):
    """Per-axis Gauss-Legendre rules on axis-aligned boxes, sharing each
    axis's union of nodes.

    ``boxes`` is one (dim, 2) box or a stack of them.  Returns ``(axes,
    rules)``: ``axes[d]`` holds the sorted union of every box's nodes on axis
    d, and ``rules[j]`` is box j's own rule on the tensor grid of the axes.
    Equal panels give equal nodes, so the boxes of a radius sweep share most
    of each axis.

    Axes listed in ``panel_axes`` use composite rules on dyadic panels, so
    unit-scale integrand features stay resolved no matter how large the
    fitted range grows with the ball radius.
    """
    boxes = np.asarray(boxes, dtype=float)
    if boxes.ndim == 2:
        boxes = boxes[None]
    dim = boxes.shape[1]
    counts = tuple(int(c) for c in (counts if np.iterable(counts) else [counts] * dim))
    box_rules = [[_axis_rule(lo, hi, counts[d], d in panel_axes) for d, (lo, hi) in enumerate(box)]
                 for box in boxes]
    axes = [np.unique(np.concatenate([rule[d][0] for rule in box_rules])) for d in range(dim)]
    shape = tuple(len(a) for a in axes)
    rules = [GridRule(shape, tuple(np.searchsorted(a, x) for a, (x, _) in zip(axes, rule)),
                      tuple(w for _, w in rule))
             for rule in box_rules]
    return axes, rules


# the benchmark's tracing counts the nodes of this grid by name
def gauss_legendre_nodes(boxes, counts, panel_axes=()):
    """Tensor products of per-axis Gauss-Legendre rules on axis-aligned boxes,
    sharing one grid.

    Returns ``(points, rules)``: ``points`` (N, dim) is the tensor grid, in ij
    order, of ``union_rules``'s axes, and ``rules[j]`` is box j's own rule on
    it.  One box's grid is its own rule.
    """
    axes, rules = union_rules(boxes, counts, panel_axes)
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    return points, rules


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


# A finite bracket is at most 2^1025 wide and the closest doubles are 2^-1074
# apart, so this many halvings reach adjacent doubles, which meet the tolerance.
_DOUBLE_HALVINGS = 1025 + 1074


def _bisect_edge(g, outside: float, inside: float) -> float:
    for _ in range(_DOUBLE_HALVINGS):
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
# Every builder takes the map's parameters as keywords with their defaults
# (those keywords are the parameters a set file may give) and returns a Chart
# with its natural or fitted domain; ``build_chart`` sets a given domain box.
# The maps are vectorized over a batch axis: U has shape (B, dim).


def _scalar(value, key: str) -> float:
    value = np.asarray(value, dtype=float)
    if value.ndim:
        raise SetValidationError(f"charts.params.{key}", f"needs one number, got shape {value.shape}")
    return float(value)


def _vector(value, key: str, n: int) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape != (n,):
        raise SetValidationError(f"charts.params.{key}", f"has shape {value.shape}, needs ({n},)")
    return value


def _revolution_chart(label, profile, phi_axis, domain_fn, panel_axes=(),
                      frame=np.eye(3), origin=np.zeros(3)) -> Chart:
    """Chart of (t, phi) -> origin + w(t) (cos phi e1 + sin phi e2) + z(t) e3.

    ``profile(t)`` returns (w, w', w'', z, z', z''), the rows of ``frame`` are
    e1, e2 and e3, and ``phi_axis`` is the parameter index of phi.
    """
    t_axis = 1 - phi_axis

    def span(a, b, c):  # a e1 + b e2 + c e3 at each node
        local = np.empty((len(a), 3))
        local[:, 0], local[:, 1], local[:, 2] = a, b, c
        return local @ frame

    def jet(U):
        w, dw, ddw, z, dz, ddz = profile(U[:, t_axis])
        ph = U[:, phi_axis]
        c, s = np.cos(ph), np.sin(ph)
        jac = np.empty((U.shape[0], frame.shape[1], 2))
        jac[:, :, t_axis] = span(dw * c, dw * s, dz)
        jac[:, :, phi_axis] = span(-w * s, w * c, 0.0)
        hess = np.empty((U.shape[0], frame.shape[1], 2, 2))
        hess[:, :, t_axis, t_axis] = span(ddw * c, ddw * s, ddz)
        hess[:, :, t_axis, phi_axis] = hess[:, :, phi_axis, t_axis] = span(-dw * s, dw * c, 0.0)
        hess[:, :, phi_axis, phi_axis] = span(-w * c, -w * s, 0.0)
        return origin + span(w * c, w * s, z), jac, hess

    return Chart(label, 2, frame.shape[1], jet, None, domain_fn, panel_axes=panel_axes,
                 rotation_axis=phi_axis)


def _build_plane(frame=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), origin=None):
    # polar parameters (r, phi) in the plane spanned by the two frame rows
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[0] != 2:
        raise SetValidationError("charts.params.frame", "needs two rows")
    n = frame.shape[1]
    origin = np.zeros(n) if origin is None else _vector(origin, "origin", n)

    def profile(r):
        return r, 1.0, 0.0, 0.0, 0.0, 0.0

    def domain_fn(ball_r, ball_c):
        r_max = float(np.linalg.norm(ball_c - origin)) + ball_r
        return np.array([[0.0, r_max], [0.0, 2.0 * np.pi]])

    return _revolution_chart("plane", profile, 1, domain_fn, (0,),
                             np.vstack([frame, np.zeros(n)]), origin)


def _build_sphere(radius=1.0, center=(0.0, 0.0, 0.0)):
    # polar angle theta from e3, then phi
    r0 = _scalar(radius, "radius")
    c0 = _vector(center, "center", 3)

    def profile(th):
        s, c = np.sin(th), np.cos(th)
        return r0 * s, r0 * c, -r0 * s, r0 * c, -r0 * s, -r0 * c

    def domain_fn(ball_r, ball_c):
        if abs(float(np.linalg.norm(ball_c - c0)) - r0) > ball_r:
            return None
        return np.array([[0.0, np.pi], [0.0, 2.0 * np.pi]])

    return _revolution_chart("sphere", profile, 1, domain_fn, origin=c0)


def _build_cylinder(radius=1.0):
    # parameters (phi, z) around the e3 axis
    r0 = _scalar(radius, "radius")

    def profile(z):
        return r0, 0.0, 0.0, z, 1.0, 0.0

    def domain_fn(ball_r, ball_c):
        rho = float(np.hypot(ball_c[0], ball_c[1]))
        gap2 = ball_r * ball_r - (r0 - rho) ** 2
        if gap2 < 0:
            return None
        half = float(np.sqrt(gap2))
        return np.array([[0.0, 2.0 * np.pi], [ball_c[2] - half, ball_c[2] + half]])

    return _revolution_chart("cylinder", profile, 0, domain_fn, (1,))


def _build_paraboloid(coefficient=1.0):
    # z = a (x^2 + y^2), polar parameters (r, phi)
    a = _scalar(coefficient, "coefficient")

    def profile(r):
        return r, 1.0, 0.0, a * r * r, 2.0 * a * r, 2.0 * a

    def domain_fn(ball_r, ball_c):
        rho_c = float(np.hypot(ball_c[0], ball_c[1]))

        def gap(r):
            r = np.abs(np.asarray(r, dtype=float))
            return (r - rho_c) ** 2 + (a * r * r - ball_c[2]) ** 2 - ball_r * ball_r

        interval = _feasible_interval(gap, width0=np.sqrt(ball_r / max(abs(a), 1e-12)) + ball_r)
        if interval is None:
            return None
        r_max = float(max(abs(interval[0]), abs(interval[1])))
        return np.array([[0.0, r_max], [0.0, 2.0 * np.pi]])

    return _revolution_chart("paraboloid", profile, 1, domain_fn, (0,))


def _build_hyperboloid():
    # x^2 + y^2 - z^2 = 1, parameters (phi, z), radius w(z) = sqrt(1 + z^2)

    def profile(z):
        w = np.sqrt(1.0 + z * z)
        return w, z / w, 1.0 / (w * w * w), z, 1.0, 0.0

    def domain_fn(ball_r, ball_c):
        rho_c = float(np.hypot(ball_c[0], ball_c[1]))

        def gap(z):
            z = np.asarray(z, dtype=float)
            return (np.sqrt(1.0 + z * z) - rho_c) ** 2 + (z - ball_c[2]) ** 2 - ball_r * ball_r

        interval = _feasible_interval(gap, width0=ball_r + abs(ball_c[2]) + 2.0)
        if interval is None:
            return None
        return np.array([[0.0, 2.0 * np.pi], [interval[0], interval[1]]])

    return _revolution_chart("hyperboloid_one_sheet", profile, 0, domain_fn, (1,))


def _build_torus(major_radius=2.0, minor_radius=0.5):
    # parameters (phi, psi): phi around the e3 axis, psi around the tube
    R0 = _scalar(major_radius, "major_radius")
    r0 = _scalar(minor_radius, "minor_radius")

    def profile(ps):
        s, c = np.sin(ps), np.cos(ps)
        return R0 + r0 * c, -r0 * s, -r0 * c, r0 * s, r0 * c, -r0 * s

    def domain_fn(ball_r, ball_c):
        if float(np.linalg.norm(ball_c)) - (R0 + r0) > ball_r:
            return None
        return np.array([[0.0, 2.0 * np.pi], [0.0, 2.0 * np.pi]])

    return _revolution_chart("torus", profile, 0, domain_fn)


def _build_poly_curve(coefficients=()):
    where = "charts.params.coefficients"
    coeffs = np.asarray(coefficients, dtype=float)  # (n, deg+1)
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

    def jet(U):
        t = U[:, 0]
        return (_horner(coeffs, t), _horner(dcoeffs, t)[:, :, None],
                _horner(d2coeffs, t)[:, :, None, None])

    def domain_fn(ball_r, ball_c):
        def gap(t):
            t = np.asarray(t, dtype=float)
            x = _horner(coeffs, t)
            return np.sum((x - ball_c[None, :]) ** 2, axis=1) - ball_r * ball_r

        try:
            interval = _feasible_interval(gap, width0=ball_r)
        except ValueError as exc:
            raise SetValidationError(
                where, f"the curve is still inside the radius-{ball_r:g} ball at |t| = 1e7"
            ) from exc
        if interval is None:
            return None
        return interval[None, :]

    return Chart("poly_curve", 1, ambient, jet, None, domain_fn, panel_axes=(0,))


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
    if not isinstance(name, str) or name not in CHART_BUILDERS:
        raise SetValidationError("charts.map", f"unknown chart map {name!r}")
    builder = CHART_BUILDERS[name]
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise SetValidationError("charts.params", "needs an object of named parameters")
    known = list(inspect.signature(builder).parameters)
    numbers = {"charts.domain": domain} if domain is not None else {}
    for key, value in params.items():
        if key not in known:
            raise SetValidationError(f"charts.params.{key}", f"unknown parameter; map {name!r} "
                                     f"takes {', '.join(known) or 'none'}")
        numbers[f"charts.params.{key}"] = value
    for where, value in numbers.items():
        try:
            finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise SetValidationError(where, "not a number or an array of numbers") from exc
        if not finite:
            raise SetValidationError(where, "non-finite number")
    chart = builder(**params)
    chart.params = dict(params)
    if domain is not None:
        box = np.asarray(domain, dtype=float)
        if box.shape != (chart.dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise SetValidationError("charts.domain", f"needs {chart.dim} rows [lo, hi] with lo < hi")
        chart.base_domain = box
    return chart
