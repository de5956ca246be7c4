"""Charts for smooth sets.

A smooth set has one chart, a curve or a surface, and a chart's shape is one
of the two the cubature integrates:

* ``Revolution``, a surface of revolution,

      (t, phi) -> origin + w(t) (cos phi e1 + sin phi e2) + z(t) e3,

  with orthonormal e1, e2, e3 (e3 = 0 for a plane), given by its profile
  curve: w, z and their first two derivatives at t.  Every builtin surface
  is one;
* ``PolyCurve``, the space curve ``poly_curve``, given by its polynomial
  coefficients.

A ``Chart`` is the map's name, its shape, a set file's domain box and the
map's parameters.  Each shape gives its points (``points``), which set
validation spot-checks, and the scalars of the cubature at a batch of nodes
of t (``node_scalars``): det G, whether some node's tangent frame is
degenerate and, on a surface, the Gauss curvature and the ball terms of each
profile circle.  det G and the curvature densities of a surface of
revolution do not depend on phi, so one profile call gives them for a whole
sweep; a curve's det G = |p'|^2 comes from its velocities alone.  Set
validation takes its verdict on the tangent frames from the same
``node_scalars``, so the two share one det G.  Each shape also owns its map's
natural range of t and the exact part of it that a ball reaches
(``Chart.ball_intervals``).

Ball geometry.  Write the ball's center, relative to the origin, as s along
the plane of e1 and e2 (its distance from the axis), h along e3 and a normal
rest of squared length n2.  The circle of the profile node t then lies at
squared distance between (|w| - s)^2 + (z - h)^2 + n2 and (|w| + s)^2 + (z -
h)^2 + n2 from the center, so it meets the ball of radius R where the profile
point (w, z) lies in the disc of radius sqrt(R^2 - n2) about (s, h) or in
the one about (-s, h) of the meridian plane, and lies inside the ball wholly
where (w, z) lies in both.  Each map solves such a disc in closed form or by
the real roots of one polynomial:

* plane and cylinder: a quadratic;
* sphere and torus: one arc of the profile circle, from a linear equation in
  cos t and sin t;
* paraboloid: a quartic in r; hyperboloid: the quartic in z that squaring
  out sqrt(1 + z^2) gives (its root, a quadratic, on the axis, where the
  quartic is a perfect square);
* ``poly_curve``: |p(t) - c|^2 - R^2, of degree 2 deg, whose real roots
  bound every piece of the curve inside the ball.

A disc takes the whole list of q = R^2 - n2 of a radius sweep at once: the
gap polynomials of every radius go to one companion-matrix stack per
degree, one ``eigvals`` call each, and the unsquared gap is evaluated once
at every candidate midpoint of every radius.
Roots are found in a scaled variable, so that no squared form overflows,
and which side of each root lies inside is decided by the sign of the
unsquared gap between candidates, so near-double roots are never lost.  The
t-values where the profile circle enters the ball wholly split the
intervals into pieces, which the cubature takes as panel breaks.

A tangent frame is judged by ``gram_degenerate``: det G against a fraction
of Hadamard's bound g11 g22, so the verdict does not change when the set is
dilated.  On a curve det G = g11, and the frame of a surface of revolution
is orthogonal (g12 = 0), so det G is its own bound on both shapes, and a
frame is degenerate exactly where det G is 0.

Cubature uses Gauss-Legendre rules on t alone.  Each rule is computed here
by Newton's method on the three-term Legendre recurrence from Tricomi's
initial guess, which gives nodes and weights to full double precision (Hale
and Townsend, SIAM J. Sci. Comput. 35, 2013), and is cached per node count.
The pieces of t of a radius sweep share their distinct panels: a dict keyed
on the panel bounds finds each distinct panel once (``dyadic_panels``, whose
result both rules of a sweep share), ``gauss_legendre_nodes`` maps every
distinct panel from [-1, 1] once, in one broadcast, and each piece keeps its
own positions and weights on those nodes, as flat arrays.  A chart whose
range of t grows with the ball radius (``Chart.paneled``) takes composite
rules on dyadic panels, cut from one list of powers of 2 for every piece.
"""

from __future__ import annotations

import inspect
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..errors import SetValidationError

# a tangent frame is degenerate where det G <= GRAM_DET_TOL g11 g22 (``gram_degenerate``)
GRAM_DET_TOL = 1e-12

# a curve still inside a ball this far out along its parameter is refused
_CURVE_REACH = 1e7

_TWO_PI = 2.0 * math.pi


class Revolution(NamedTuple):
    """origin + w(t) (cos phi e1 + sin phi e2) + z(t) e3: ``profile(t)`` gives
    (w, w', w'', z, z', z''), constants as scalars, and ``phi_axis`` is the
    parameter index of phi.  ``disc(s, h, qs, lo, hi)`` gives, for each q > 0
    of the list ``qs``, the spans of t in [lo, hi] whose profile point lies in
    the disc of squared radius q about (s, h), and ``natural`` is the map's
    own range of t, one turn of an angle where ``periodic``.  ``frame`` (3, n)
    holds the rows e1, e2, e3 (orthonormal, or e3 = 0 for a plane)."""
    profile: Callable
    phi_axis: int
    disc: Callable
    natural: Tuple[float, float]
    frame: np.ndarray = np.eye(3)
    origin: np.ndarray = np.zeros(3)
    periodic: bool = False

    dim = 2

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[1]

    def points(self, u: np.ndarray) -> np.ndarray:
        """The points (B, n) at the parameter points u (B, 2)."""
        w, _, _, z, _, _ = self.profile(u[:, 1 - self.phi_axis])
        phi = u[:, self.phi_axis]
        local = np.empty((len(u), 3))  # a e1 + b e2 + c e3 at each node
        local[:, 0], local[:, 1], local[:, 2] = w * np.cos(phi), w * np.sin(phi), z
        return self.origin + local @ self.frame

    def node_scalars(self, t: np.ndarray, center: np.ndarray, gauss: bool):
        """det G at each node of t, whether some node's frame is degenerate
        (``gram_degenerate``), the Gauss curvature K (None unless ``gauss``
        and no frame is degenerate) and the rows (3, B) A, B, C of
        |p(t, phi) - center|^2 = A + B cos phi + C sin phi, from one profile
        call (do Carmo, Differential Geometry of Curves and Surfaces, 3-3).

        g12 = 0, so det G = g11 g22 = (w'^2 + z'^2) w^2 is its own Hadamard
        bound.  The forms of N = (-z' w, 0, w' w) in (e1, e2, e3) at phi = 0,
        which has |N|^2 = det G, are b11 = <p_tt, N>, b22 = <p_phiphi, N> and
        b12 = 0, so K = b11 b22 / det G^2, in the operation order of the 2-D
        jet that the tests keep as the reference; K is intrinsic (the Gauss
        equation), so it serves every codimension.
        A, B and C come from the phi = 0 point a + u, with a = origin + z e3
        and u = w e1, and its phi-derivatives v = w e2 and -u, one row per
        coordinate; the rows are summed in order, as onto a start of 0 (0.0 -
        and 0.0 + clear a -0.0), so a node's bits do not depend on the other
        nodes of its grid.
        """
        w, dw, ddw, z, dz, ddz = self.profile(t)  # constants may come as scalars
        det = np.broadcast_to((dw * dw + dz * dz) * (w * w), t.shape)
        degenerate = gram_degenerate(det, det)
        curvature = None
        if gauss and not degenerate:
            b11 = ddw * (0.0 - dz * w) + ddz * (dw * w)
            b22 = w * (dz * w)
            curvature = b11 * b22 / det / det
        e1, e2, e3 = self.frame[:, :, None]
        bend = -(w * e1)
        middle = self.origin[:, None] + (w * e1 + z * e3) - center[:, None] + bend
        terms = np.add.reduce([middle * middle + bend * bend, 0.0 - 2.0 * middle * bend,
                               0.0 + 2.0 * middle * (w * e2)], axis=1)
        return det, degenerate, curvature, terms

    def ball_pieces(self, radii, center: np.ndarray, t_range) -> List[list]:
        """Per radius the spans of t in ``t_range`` whose profile circle meets
        the ball about ``center``, split where the circle enters it wholly."""
        lo, hi = t_range
        rel = center - self.origin
        along = self.frame @ rel
        s, h = math.hypot(along[0], along[1]), float(along[2])
        n2 = float(np.sum((rel - along @ self.frame) ** 2))
        qs = [radius * radius - n2 for radius in radii]
        live = [q for q in qs if q > 0.0]
        # the circle at t meets the ball where min(|w - s|, |w + s|) is small
        # enough, and lies inside it wholly where max(...) is
        near = self.disc(s, h, live, lo, hi)
        found = iter(zip(near, near if s == 0.0 else self.disc(-s, h, live, lo, hi)))
        pieces = []
        for q in qs:
            near, far = next(found) if q > 0.0 else ([], [])
            cuts = [end for piece in _intersection(near, far) for end in piece]
            pieces.append(_split(_union(near, far), cuts))
        return pieces


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of the rows of ``coeffs`` (lowest degree first) at each
    t, as (B, rows)."""
    out = np.zeros((t.shape[0], coeffs.shape[0]))
    for j in range(coeffs.shape[0]):
        out[:, j] = np.polynomial.polynomial.polyval(t, coeffs[j])
    return out


class PolyCurve(NamedTuple):
    """t -> p(t), whose coordinates are the polynomials of the rows of
    ``coefficients`` (n, deg + 1), lowest degree first, on the whole line."""
    coefficients: np.ndarray

    dim = 1
    phi_axis = None
    natural = (-math.inf, math.inf)
    periodic = False

    @property
    def ambient_dim(self) -> int:
        return self.coefficients.shape[0]

    def points(self, u: np.ndarray) -> np.ndarray:
        """The points (B, n) at the parameter points u (B, 1)."""
        return _horner(self.coefficients, u[:, 0])

    def node_scalars(self, t: np.ndarray, center: np.ndarray, gauss: bool):
        """det G = |p'|^2 at each node of t and whether some node's velocity
        vanishes (``gram_degenerate``); a curve has no Gauss curvature, and
        no ball terms, since its nodes all lie inside the ball."""
        coeffs = self.coefficients
        velocity = _horner(coeffs[:, 1:] * np.arange(1, coeffs.shape[1]), t)
        det = np.einsum("bi,bi->b", velocity, velocity)
        return det, gram_degenerate(det, det), None, None

    def ball_pieces(self, radii, center: np.ndarray, t_range) -> List[list]:
        """Per radius the spans of t in ``t_range`` where the curve lies in the
        ball about ``center``: the sublevel set of |p(t) - c|^2 - R^2."""
        lo, hi = t_range
        offset = self.coefficients.copy()
        offset[:, 0] -= center
        # |p(t) - c|^2 - R^2, highest degree first, one row per radius
        square = sum(np.convolve(row, row) for row in offset)[::-1]
        gaps = np.tile(square, (len(radii), 1))
        gaps[:, -1] -= np.square(radii)
        sizes = np.array(radii)

        def gap(t, i):
            return np.sum((_horner(offset, t) / sizes[i, None]) ** 2, axis=1) - 1.0

        pieces = _sublevel(gaps, gap, lo, hi)
        for radius, spans in zip(radii, pieces):
            if spans and max(abs(spans[0][0]), abs(spans[-1][1])) > _CURVE_REACH:
                raise SetValidationError(
                    "charts.params.coefficients",
                    f"the curve is still inside the radius-{radius:g} ball at "
                    f"|t| = {_CURVE_REACH:g}")
        return pieces


@dataclass(eq=False)
class Chart:
    label: str  # the map's name
    shape: Union[Revolution, PolyCurve]
    # a set file's (dim, 2) parameter box, which bounds the set, or None for the
    # map's natural domain
    domain: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def ambient_dim(self) -> int:
        return self.shape.ambient_dim

    @property
    def rotation_axis(self) -> Optional[int]:
        """The index of phi on a surface of revolution, else None."""
        return self.shape.phi_axis

    @property
    def profile_axis(self) -> int:
        """The index of t: the curve parameter, or the profile's on a surface."""
        return 0 if self.rotation_axis is None else 1 - self.rotation_axis

    @property
    def paneled(self) -> bool:
        """Whether the range of t can grow with the ball radius, where the
        map's own range of t is unbounded: cubature then panels it
        dyadically toward the chart's unit-scale feature region."""
        return not all(map(math.isfinite, self.shape.natural))

    @property
    def t_range(self) -> Tuple[float, float]:
        """The range of t: the set file's, or else the map's own."""
        if self.domain is None:
            return self.shape.natural
        lo, hi = self.domain[self.profile_axis]
        return float(lo), float(hi)

    def phi_range(self) -> Optional[Tuple[float, float]]:
        """The set file's range of phi, or None for the whole circle."""
        if self.rotation_axis is None or self.domain is None:
            return None
        lo, hi = self.domain[self.rotation_axis]
        return float(lo), float(hi)

    def ball_intervals(self, radii, center) -> List[np.ndarray]:
        """For each radius, the pieces (m, 2) of the curve or profile parameter
        t where the chart's trace meets the ball about ``center``, in
        increasing order; m = 0 where it misses the ball.

        Adjacent pieces of a surface share an end where its profile circle
        enters or leaves the ball wholly.  The pieces lie in the set file's
        range of t where one is given.
        """
        center = np.asarray(center, dtype=float)
        radii = [float(r) for r in radii]
        for radius in radii:
            if not math.isfinite(radius * radius):
                # the gap polynomials hold R^2, which would be inf
                raise ValueError(f"radius {radius:g} is too large: R^2 is not finite")
        pieces = []
        for radius, spans in zip(radii, self.shape.ball_pieces(radii, center, self.t_range)):
            if not all(map(math.isfinite, np.ravel(spans).tolist())):
                raise ValueError(
                    f"radius {radius:g}: chart {self.label!r} has no finite parameter interval")
            pieces.append(np.array(spans, dtype=float).reshape(-1, 2))
        return pieces


def gram_degenerate(det: np.ndarray, hadamard: np.ndarray) -> bool:
    """The one tangent-frame rule of the package: whether some node's frame
    has det G <= GRAM_DET_TOL g11 g22, a fraction of Hadamard's bound
    det G <= g11 g22 (``hadamard``), so dilating a set changes no verdict.  A
    node where g11 g22 overflows is too large to judge, not degenerate."""
    return bool(np.any((det <= GRAM_DET_TOL * hadamard) & (hadamard < np.inf)))


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


def dyadic_panels(pieces, paneled: bool):
    """The panels of the (m, 2) pieces of one axis: the distinct panels
    (D, 2) in the order they first occur, the index (P,) in them of each
    piece's panels, piece by piece, and the offsets (m + 1,) of each piece's
    first panel.  A piece is one panel, or on a ``paneled`` axis is cut at 0
    and every +-2^j (j >= 0) inside it."""
    spans = np.reshape(np.asarray(pieces, dtype=float), (-1, 2)).tolist()
    if paneled:
        powers, magnitude = [], 1.0
        top = max((abs(end) for span in spans for end in span), default=0.0)
        while magnitude < top:
            powers.append(magnitude)
            magnitude *= 2.0
        cuts = [-p for p in reversed(powers)] + [0.0] + powers
        edges = [[lo, *cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)], hi]
                 for lo, hi in spans]
        bounds = [pair for row in edges for pair in zip(row, row[1:])]
        sizes = [len(row) - 1 for row in edges]
    else:
        bounds, sizes = map(tuple, spans), [1] * len(spans)
    distinct: Dict[Tuple[float, float], int] = {}
    which = np.array([distinct.setdefault(pair, len(distinct)) for pair in bounds], dtype=int)
    return (np.array(list(distinct), dtype=float).reshape(-1, 2), which,
            np.array([0, *accumulate(sizes)]))


# the benchmark's tracing counts the nodes of this rule by name
def gauss_legendre_nodes(pieces, count: int, paneled: bool = False, panels=None):
    """Gauss-Legendre rules of ``count`` nodes on the (m, 2) pieces of one
    axis, sharing one set of nodes.

    Returns ``(points, index, weights, ends)``: ``points`` holds the nodes of
    every distinct panel, panel by panel in the order the panels first
    occur, and piece j's nodes, in its own order, are the ``points`` at
    ``index[ends[j]:ends[j + 1]]``, with weights ``weights[ends[j]:ends[j +
    1]]``.  Equal panels give equal nodes, so the pieces of a radius sweep
    share most of them.  A ``paneled`` axis uses composite rules of
    ``count / 8`` nodes (6 to 64) on dyadic panels, so unit-scale integrand
    features stay resolved no matter how large the range grows with the ball
    radius.  Every distinct panel is mapped from [-1, 1] once, all in one
    broadcast; ``panels``, the pieces' ``dyadic_panels``, lets two rules
    share them.
    """
    distinct, which, starts = dyadic_panels(pieces, paneled) if panels is None else panels
    x, w = _gl_rule(min(max(count // 8, 6), 64) if paneled else count)
    lo, hi = distinct[:, :1], distinct[:, 1:]
    half = 0.5 * (hi - lo)
    points = (half * x + 0.5 * (hi + lo)).ravel()
    index = (len(x) * which[:, None] + np.arange(len(x))).ravel()
    return points, index, (half * w).ravel()[index], starts * len(x)


# ---------------------------------------------------------------- ball geometry
#
# A list of spans is a sorted list of disjoint (lo, hi) pairs of floats.


def _clip(spans, lo: float, hi: float):
    """The parts of the spans inside [lo, hi] that have positive length."""
    return [(max(a, lo), min(b, hi)) for a, b in spans if max(a, lo) < min(b, hi)]


def _union(first, second):
    merged = []
    for lo, hi in sorted(first + second):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _intersection(first, second):
    return sorted((max(a, c), min(b, d)) for a, b in first for c, d in second
                  if max(a, c) < min(b, d))


def _split(spans, cuts):
    """Each span cut at the points strictly inside it."""
    pieces = []
    for lo, hi in spans:
        edges = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
        pieces += zip(edges, edges[1:])
    return pieces


def _arc_spans(a: float, b: float, c: float, lo: float, hi: float):
    """{t in [lo, hi] : a cos t + b sin t <= c}, one arc per turn."""
    rho = math.hypot(a, b)
    if c >= rho:
        return [(lo, hi)]
    if c < -rho:
        return []
    # with t0 = atan2(b, a), inside where t - t0 lies in [alpha, 2 pi - alpha] mod 2 pi
    t0, alpha = math.atan2(b, a), math.acos(c / rho)
    turns = range(math.floor((lo - t0) / _TWO_PI), math.floor((hi - t0) / _TWO_PI) + 1)
    return _clip([(t0 + _TWO_PI * k + alpha, t0 + _TWO_PI * (k + 1) - alpha) for k in turns],
                 lo, hi)


# the largest log S whose S is a double
_LOG_MAX = math.log(np.finfo(float).max)
# LAPACK's QR iteration takes entries below about tiny / eps (1e-292) for zero,
# so a monic row whose constant term is smaller would lose its smallest roots
_SMALLEST_ENTRY = 1e-290


def _monic_in_scaled_variable(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows (m, L) of coefficients, highest degree first and each with a
    nonzero leading one, as monic rows in t / S, and log S per row."""
    logs = np.full(coeffs.shape, -np.inf)
    logs[coeffs != 0.0] = np.log(np.abs(coeffs[coeffs != 0.0]))
    log_scale = np.max((logs[:, 1:] - logs[:, :1]) / np.arange(1, coeffs.shape[1]), axis=1)
    log_scale[~np.isfinite(log_scale)] = 0.0
    powers = np.arange(coeffs.shape[1]) * log_scale[:, None]
    return np.sign(coeffs) * np.exp(logs - logs[:, :1] - powers), log_scale


def _real_parts_of_roots(rows) -> List[np.ndarray]:
    """Real parts of the roots of each polynomial of ``rows`` (highest degree
    first, of any lengths), row by row as ``np.roots`` gives them: leading
    zeros are trimmed and trailing zeros are roots at 0.

    The roots of a row are those of the monic polynomial in t / S, with S the
    largest |c_j / c_0|^(1/j), whose coefficients all lie in [-1, 1]: they are
    computed from logarithms, so no power of S overflows.  The rows of one
    length are scaled together, and the companion matrices of one degree go
    to one ``eigvals`` call.  Where S itself overflows, or the monic row's
    constant term falls below what LAPACK resolves (its roots spread past
    about 1e290), the small roots would be lost in t / S: that row's roots
    are found as 1 / u from the roots u of its reversed row, scaled in turn,
    so its small roots keep full precision and those beyond the doubles
    come out inf or nan.  A row whose reversed scale alone overflows keeps
    its own.
    """
    trimmed = []
    for row in rows:
        row = np.asarray(row, dtype=float)
        nonzero = np.flatnonzero(row)
        trimmed.append(row[nonzero[0]:] if len(nonzero) else row[:0])
    found = [np.empty(0)] * len(rows)
    # degree -> [(row, top row of its companion, zeros, log S, whether reversed)]
    companions: Dict[int, list] = {}
    for length in {len(row) for row in trimmed if len(row) > 1}:
        members = [i for i, row in enumerate(trimmed) if len(row) == length]
        monic, log_scale = _monic_in_scaled_variable(np.array([trimmed[i] for i in members]))
        for i, row, scale in zip(members, monic, log_scale):
            size = int(np.flatnonzero(row)[-1]) + 1  # without the roots at 0
            reversed_ = False
            if scale > _LOG_MAX or abs(row[size - 1]) < _SMALLEST_ENTRY:
                (flipped,), (flipped_scale,) = _monic_in_scaled_variable(
                    trimmed[i][size - 1::-1][None])
                if flipped_scale <= _LOG_MAX or scale > _LOG_MAX:
                    reversed_, row, scale = True, flipped, flipped_scale
            companions.setdefault(size - 1, []).append(
                (i, -row[1:size] / row[0], length - size, scale, reversed_))
    for degree, group in companions.items():
        stack = np.zeros((len(group), degree, degree))
        stack[:, :1, :] = [[top] for _, top, _, _, _ in group]
        stack[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
        roots = np.linalg.eigvals(stack) if degree else np.empty((len(group), 0))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # a root beyond the largest double comes out inf or nan, in no interval
            for (i, _, zeros, scale, reversed_), values in zip(group, roots):
                if reversed_:
                    values, scale = 1.0 / values, -scale
                found[i] = np.concatenate([values.real, np.zeros(zeros)]) * np.exp(scale)
    return found


def _sublevel(rows, gap, lo: float, hi: float, scales=None) -> List[list]:
    """For each polynomial of ``rows`` (highest degree first) in t / scale,
    {t in [lo, hi] : gap(t) <= 0} as spans, for a gap that changes sign only
    at real roots of its row and that is positive far out along an infinite
    end.  ``gap(t, i)`` evaluates at each t the gap of the row of index i.

    The candidates are the real parts of every root: a near-double root that
    rounding makes complex still marks its crossing, and the sign of the gap
    halfway between neighbouring candidates decides which side is inside.
    """
    if not all(math.isfinite(c) for row in rows for c in row):
        raise ValueError("the ball's gap polynomial overflows")
    scales = [1.0] * len(rows) if scales is None else scales
    ends = {v for v in (lo, hi) if math.isfinite(v)}
    knots = [sorted(ends | {r for r in (scale * roots).tolist() if lo < r < hi})
             for scale, roots in zip(scales, _real_parts_of_roots(rows))]
    left = np.array([a for row in knots for a in row[:-1]])
    right = np.array([b for row in knots for b in row[1:]])
    which = np.repeat(np.arange(len(knots)), [max(len(row) - 1, 0) for row in knots])
    with np.errstate(over="ignore", invalid="ignore"):
        inside = iter(gap(0.5 * left + 0.5 * right, which) <= 0.0)
    pieces = []
    for row in knots:
        spans = []
        for a, b, keep in zip(row[:-1], row[1:], inside):  # takes len(row) - 1 of inside
            if keep and spans and spans[-1][1] == a:
                spans[-1] = (spans[-1][0], b)
            elif keep:
                spans.append((a, b))
        pieces.append(spans)
    return pieces


def _meridian_gap(profile, s: float, h: float, qs):
    """(t, i) -> ((w - s)^2 + (z - h)^2) / q_i - 1 at the profile point (w, z)
    of t, which is not positive inside the disc of squared radius q_i about
    (s, h)."""
    roots = np.sqrt(qs)

    def gap(t, i):
        w, _, _, z, _, _ = profile(t)
        return ((w - s) / roots[i]) ** 2 + ((z - h) / roots[i]) ** 2 - 1.0

    return gap


# ------------------------------------------------------------------- factories
#
# Every builder takes the map's parameters as keywords with their defaults
# (those keywords are the parameters a set file may give) and returns the
# chart's shape; ``build_chart`` names it and sets a given domain box.  The
# maps are vectorized over a batch axis.


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


def _orthonormal_rows(frame: np.ndarray) -> bool:
    return bool(np.max(np.abs(frame @ frame.T - np.eye(len(frame)))) <= 1e-12)


def _build_plane(frame=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), origin=None):
    # polar parameters (r, phi) in the plane spanned by the two frame rows,
    # on an orthonormal basis of that span, so every circle of r is round
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[0] != 2:
        raise SetValidationError("charts.params.frame", "needs two rows")
    n = frame.shape[1]
    if n < 3:
        # its row length fixes the plane's space: R^2 would make it the whole space
        raise SetValidationError("charts.params.frame", f"rows of length {n}: a plane needs "
                                 "rows of length 3 or more")
    origin = np.zeros(n) if origin is None else _vector(origin, "origin", n)
    if not _orthonormal_rows(frame):
        basis, upper = np.linalg.qr(frame.T)
        if abs(upper[1, 1]) <= 1e-12 * abs(upper[0, 0]):
            raise SetValidationError("charts.params.frame", "rows do not span a plane")
        # signs fixed by the first row, then the second: an orthonormal frame stays as given
        frame = (basis * np.sign(np.diag(upper))).T

    def profile(r):
        return r, 1.0, 0.0, 0.0, 0.0, 0.0

    def disc(s, h, qs, lo, hi):  # h = 0: e3 is 0
        return [_clip([(s - half, s + half)], lo, hi) for half in map(math.sqrt, qs)]

    return Revolution(profile, 1, disc, (0.0, math.inf), np.vstack([frame, np.zeros(n)]), origin)


def _build_sphere(radius=1.0, center=(0.0, 0.0, 0.0)):
    # polar angle theta from e3, then phi
    r0 = _scalar(radius, "radius")
    c0 = _vector(center, "center", 3)

    def profile(th):
        s, c = np.sin(th), np.cos(th)
        return r0 * s, r0 * c, -r0 * s, r0 * c, -r0 * s, -r0 * c

    def disc(s, h, qs, lo, hi):
        # |(r0 sin t, r0 cos t) - (s, h)|^2 <= q is linear in cos t and sin t
        return [_arc_spans(-2.0 * r0 * h, -2.0 * r0 * s, q - r0 * r0 - s * s - h * h, lo, hi)
                for q in qs]

    return Revolution(profile, 1, disc, (0.0, math.pi), origin=c0)


def _build_cylinder(radius=1.0):
    # parameters (phi, z) around the e3 axis
    r0 = _scalar(radius, "radius")

    def profile(z):
        return r0, 0.0, 0.0, z, 1.0, 0.0

    def disc(s, h, qs, lo, hi):
        halves = [math.sqrt(max(q - (r0 - s) ** 2, 0.0)) for q in qs]
        return [_clip([(h - half, h + half)], lo, hi) if half > 0.0 else [] for half in halves]

    return Revolution(profile, 0, disc, (-math.inf, math.inf))


def _build_paraboloid(coefficient=1.0):
    # z = a (x^2 + y^2), polar parameters (r, phi)
    a = _scalar(coefficient, "coefficient")

    def profile(r):
        return r, 1.0, 0.0, a * r * r, 2.0 * a * r, 2.0 * a

    def disc(s, h, qs, lo, hi):
        # (r - s)^2 + (a r^2 - h)^2 - q, a quartic in r
        quartics = [[a * a, 0.0, 1.0 - 2.0 * a * h, -2.0 * s, s * s + h * h - q] for q in qs]
        return _sublevel(quartics, _meridian_gap(profile, s, h, qs), lo, hi)

    return Revolution(profile, 1, disc, (0.0, math.inf))


def _build_hyperboloid():
    # x^2 + y^2 - z^2 = 1, parameters (phi, z), radius w(z) = sqrt(1 + z^2)

    def profile(z):
        w = np.sqrt(1.0 + z * z)
        # w^3 overflows past |z| ~ 5.6e102, where 1 / w^3 is below the
        # smallest normal double: it rounds to 0 there
        with np.errstate(over="ignore"):
            return w, z / w, 1.0 / (w * w * w), z, 1.0, 0.0

    def disc(s, h, qs, lo, hi):
        # with w^2 = 1 + z^2 the gap is L(z) - 2 s w, L = 2 z^2 - 2 h z + k, so
        # every crossing is a root of L^2 - 4 s^2 (1 + z^2), a perfect square
        # on the axis (s = 0), where L alone is used; solved in z / scale
        polynomials, scales = [], []
        for q in qs:
            k = 1.0 + s * s + h * h - q
            scale = math.sqrt(max(1.0, abs(k)))
            quadratic = np.array([2.0, -2.0 * h / scale, k / scale / scale])
            polynomials.append(quadratic if s == 0.0 else np.polysub(
                np.polymul(quadratic, quadratic),
                4.0 * (s / scale) ** 2 * np.array([1.0, 0.0, 1.0 / scale / scale])))
            scales.append(scale)
        return _sublevel(polynomials, _meridian_gap(profile, s, h, qs), lo, hi, scales)

    return Revolution(profile, 0, disc, (-math.inf, math.inf))


def _build_torus(major_radius=2.0, minor_radius=0.5):
    # parameters (phi, psi): phi around the e3 axis, psi around the tube
    R0 = _scalar(major_radius, "major_radius")
    r0 = _scalar(minor_radius, "minor_radius")

    def profile(ps):
        s, c = np.sin(ps), np.cos(ps)
        return R0 + r0 * c, -r0 * s, -r0 * c, r0 * s, r0 * c, -r0 * s

    def disc(s, h, qs, lo, hi):
        # |(R0 + r0 cos t, r0 sin t) - (s, h)|^2 <= q is linear in cos t and sin t
        return [_arc_spans(2.0 * r0 * (R0 - s), -2.0 * r0 * h,
                           q - (R0 - s) ** 2 - r0 * r0 - h * h, lo, hi) for q in qs]

    return Revolution(profile, 0, disc, (0.0, _TWO_PI), periodic=True)


def _build_poly_curve(coefficients=()):
    where = "charts.params.coefficients"
    coeffs = np.asarray(coefficients, dtype=float)  # (n, deg+1)
    if coeffs.ndim != 2 or coeffs.size == 0:
        raise SetValidationError(where, "needs one row of coefficients per coordinate")
    if coeffs.shape[0] < 2:
        # its rows fix the curve's space: one row would make it a 1-fold in R^1
        raise SetValidationError(where, "a curve needs two or more coordinate rows, "
                                 f"got {coeffs.shape[0]}")
    if not np.any(coeffs[:, 1:]):
        raise SetValidationError(where, "every coordinate is constant, so the map is a point")
    return PolyCurve(coeffs)


CHART_BUILDERS: Dict[str, Callable] = {
    "plane": _build_plane,
    "sphere": _build_sphere,
    "cylinder": _build_cylinder,
    "paraboloid": _build_paraboloid,
    "hyperboloid_one_sheet": _build_hyperboloid,
    "torus": _build_torus,
    "poly_curve": _build_poly_curve,
}


def _domain_box(chart: Chart, domain) -> np.ndarray:
    """A set file's parameter box for the chart.  Each row is [lo, hi] with
    lo < hi; the box may not cover the set more than once, so phi spans at
    most one turn, and t at most one turn where it is an angle and the map's
    own range of t elsewhere."""
    box = np.asarray(domain, dtype=float)
    if box.shape != (chart.dim, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise SetValidationError("charts.domain", f"needs {chart.dim} rows [lo, hi] with lo < hi")
    if chart.label == "plane" and not _orthonormal_rows(np.asarray(
            chart.params.get("frame", np.eye(2, 3)), dtype=float)):
        raise SetValidationError("charts.domain", "a polar domain on a frame whose rows are "
                                 "not orthonormal would be a sector of an ellipse")
    (lo, hi), (start, end) = box[chart.profile_axis], chart.shape.natural
    if chart.rotation_axis is not None and np.ptp(box[chart.rotation_axis]) > _TWO_PI:
        raise SetValidationError("charts.domain", "the range of phi is longer than 2 pi, so "
                                 "the chart covers the surface more than once")
    if chart.shape.periodic and hi - lo > end - start:
        raise SetValidationError("charts.domain", f"the range of t is longer than its period "
                                 f"{end - start:g}, so the chart covers the surface more than once")
    if not chart.shape.periodic and (lo < start or hi > end):
        raise SetValidationError("charts.domain", f"the range [{lo:g}, {hi:g}] of t leaves "
                                 f"the map's own range [{start:g}, {end:g}]")
    return box


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
    chart = Chart(name, builder(**params), params=dict(params))
    if domain is not None:
        chart.domain = _domain_box(chart, domain)
    return chart
