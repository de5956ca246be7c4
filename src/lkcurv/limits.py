"""Curvature measures of every set kind and their large-radius growth limits.

The one module that knows how each set kind's left side is computed and what
its route is called.  ``curvature_measures(X, ks, R)`` gives the order-k
measures of X in the radius-R ball with error bounds: cubature for smooth
sets, the sphere trace for cones, b_k (R^2 - dist^2)^(k/2) at k = dim (else 0)
for linear subspaces; the normalized measures divide them by b_k R^k.
``curvature_sweep(X, ks, radii)`` gives them at every radius of a schedule,
and ``curvature_measures`` is a sweep of one radius.

``estimate_limits`` extrapolates the normalized values of several orders over
a geometric radius schedule with an a + c/R model fitted to the last three
radii, every order in one multi-column least-squares fit per window
(``fit_limit_sequence`` is its one-column call).  On a smooth set one
cubature sweep serves every radius and order: the chart evaluates its jet
once for the whole schedule and both rules, and each (radius, order) gets
the bits of a cubature of that radius alone.  Order 0
(smooth sets only) is the total order-0 curvature.  Exact bypasses: flats
give [k == dim], cones are radius-independent by homogeneity, and a compact
set's limit is 0 for k >= 1.  On a smooth set an order that vanishes
identically, k > dim or dim - k odd, is 0 with no sweep, normalization or
fit, under the route ``cubature_limit`` that its all-zero sweep would have
given; so a growth identity, which asks one order per call, runs one sweep
and one pair of fits for the one live order.  Each
``LimitEstimate.route`` is ``linear_exact``, ``conic_homogeneity``,
``compact_exact_zero`` or ``cubature_limit``, plus ``,not_converged``.

The reported uncertainty is the largest of the in-window fit residual, the
shift of the fitted value between the last two three-radius windows, and the
per-radius evaluation error.  The window shift matters: sets whose normalized
values converge faster than 1/R leave a tiny in-window residual while the
extrapolant still carries a visible model bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .catalog.sets import ConicGraph, LinearSubspace, SetDescriptor, SmoothSet
from .curvature import (
    CubatureSpec, lk_measures_sweep, require_cubature_chart, vanishes_identically,
)
from .geomconst import ball_volume
from .spherical import conic_lk_measure_detailed

DEFAULT_RADII = (8.0, 16.0, 32.0, 64.0)
# the smallest normal double: a ball scale below it has lost precision
SMALLEST_NORMAL = 2.0 ** -1022


@dataclass
class LimitEstimate:
    k: int
    value: float
    uncertainty: float
    radii: Sequence[float]
    converged: bool
    route: str


def _check_order(x: SetDescriptor, k: int) -> None:
    """Orders run from 1 to n, and from 0 for smooth sets."""
    lowest = 0 if isinstance(x, SmoothSet) else 1
    if not lowest <= k <= x.ambient_dim:
        raise ValueError(f"k must lie in [{lowest}, {x.ambient_dim}]")


def curvature_sweep(
    x: SetDescriptor,
    ks,
    radii,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> List[List[Tuple[float, float]]]:
    """Curvature measures of the orders ks of X inside the ball of each radius,
    each with an error bound: one list per radius."""
    if isinstance(x, SmoothSet):
        return lk_measures_sweep(x, ks, radii, spec=spec, center=center)
    if isinstance(x, ConicGraph):
        return [[conic_lk_measure_detailed(x, k, radius, center=center) for k in ks]
                for radius in radii]
    if not isinstance(x, LinearSubspace):
        raise TypeError(f"not a set descriptor: {x!r}")
    c = np.zeros(x.ambient_dim) if center is None else np.asarray(center, dtype=float)
    dist2 = float(np.sum((c - x.frame.T @ (x.frame @ c)) ** 2))
    # the slice is a dim-ball of radius sqrt(R^2 - dist^2) inside the subspace;
    # b_k R^k (1 - dist^2/R^2)^(k/2) divides back to exactly 1 when centered
    return [[
        (ball_volume(k) * radius**k * (1.0 - dist2 / (radius * radius)) ** (k / 2.0), 0.0)
        if k == x.dim and dist2 < radius * radius else (0.0, 0.0)
        for k in ks
    ] for radius in radii]


def curvature_measures(
    x: SetDescriptor,
    ks,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> List[Tuple[float, float]]:
    """Curvature measures of the orders ks of X inside one ball, each with an
    error bound: a sweep of one radius."""
    return curvature_sweep(x, ks, (radius,), spec, center)[0]


def radius_scale(radius: float, k: int) -> float:
    """b_k R^k, which normalizes an order-k measure in the radius-R ball.

    A ValueError where it is not a normal float, or where 1/R, which the
    limit fit takes, overflows.
    """
    try:
        scale = ball_volume(k) * radius**k
    except OverflowError:
        scale = np.inf
    if not scale < np.inf:
        raise ValueError(f"radius {radius:g} is too large: b_k R^k overflows at k={k}")
    if not (scale >= SMALLEST_NORMAL and 1.0 / radius < np.inf):
        raise ValueError(f"radius {radius:g} is too small: b_k R^k or 1/R leaves the "
                         f"normal floats at k={k}")
    return scale


def _normalized_sweep(x: SetDescriptor, ks, radii, center) -> List[List[Tuple[float, float]]]:
    """Normalized measures of the orders ks at each radius, with their errors."""
    scales = [[radius_scale(radius, k) for k in ks] for radius in radii]
    sweep = curvature_sweep(x, ks, radii, center=center)
    return [[(value / scale, err / scale) for (value, err), scale in zip(pairs, row)]
            for pairs, row in zip(sweep, scales)]


def _fit_inverse_radius(radii, values) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares a + c/R fit of each column of ``values`` (radii, orders)
    in one multi-column solve; returns a and the max abs residual per column."""
    radii = np.asarray(radii, dtype=float)
    design = np.stack([np.ones_like(radii), 1.0 / radii], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coeffs[0], np.max(np.abs(design @ coeffs - values), axis=0)


def _fit_limits(radii, values, errors) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extrapolate each column of a radius sweep (radii, orders): a + c/R over
    the last three radii, all orders in one fit per window.

    Returns (value, uncertainty, converged) per column, where the uncertainty
    also covers the shift of the extrapolant between the last two fit windows
    and the largest per-radius evaluation error.
    """
    if len(values) < 3:
        raise ValueError("need at least three radii to extrapolate")
    value, residual = _fit_inverse_radius(radii[-3:], values[-3:])
    drift = np.zeros_like(value)
    if len(values) >= 4:
        prev_value, _ = _fit_inverse_radius(radii[-4:-1], values[-4:-1])
        drift = np.abs(value - prev_value)
    uncertainty = np.maximum(np.maximum(residual, drift), np.max(errors, axis=0))
    converged = np.abs(values[-1] - values[-2]) <= uncertainty
    return value, uncertainty, converged


# the benchmark's tracing wraps this by name
def fit_limit_sequence(radii, values, errors) -> Tuple[float, float, bool]:
    """Extrapolate one radius sweep: the one-column call of ``_fit_limits``."""
    fit = _fit_limits(radii, np.reshape(values, (-1, 1)), np.reshape(errors, (-1, 1)))
    value, uncertainty, converged = (column[0] for column in fit)
    return float(value), float(uncertainty), bool(converged)


def validate_radii(radii) -> List[float]:
    radii = [float(r) for r in radii]
    if not all(np.isfinite(radii)):
        raise ValueError("radius schedule must be finite")
    if not all(r > 0.0 for r in radii):
        raise ValueError("radius schedule must be positive")
    if len(radii) < 3:
        raise ValueError("radius schedule needs at least three radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius schedule must be strictly increasing")
    for a, b in zip(radii, radii[1:]):
        if abs(b / a - 2.0) > 1e-9:
            raise ValueError("radius schedule must be geometric with ratio 2")
    return radii


# the benchmark's tracing wraps this by name
def estimate_limit(x: SetDescriptor, k: int, radii=DEFAULT_RADII, center=None) -> LimitEstimate:
    """Limit of the normalized order-k curvature measure along the schedule."""
    return estimate_limits(x, (k,), radii, center=center)[0]


def estimate_limits(x: SetDescriptor, ks, radii=DEFAULT_RADII, center=None) -> List[LimitEstimate]:
    """Limits of the normalized curvature measures of the orders ks."""
    return schedule_limits(x, ks, validate_radii(radii), center)


def schedule_limits(x: SetDescriptor, ks, radii: Sequence[float],
                    center=None) -> List[LimitEstimate]:
    """``estimate_limits`` on radii that ``validate_radii`` has already
    passed, so that a run validates its schedule once."""
    # refused before the exact bypasses, whichever orders they would answer
    require_cubature_chart(x)
    ks = list(ks)
    for k in ks:
        _check_order(x, k)
    shifted = center is not None and bool(np.any(np.asarray(center)))
    # a shifted flat or cone sweeps its closed-form measures under its own name
    route = ("linear_exact" if isinstance(x, LinearSubspace)
             else "conic_homogeneity" if isinstance(x, ConicGraph) else "cubature_limit")

    estimates = {}
    for k in ks:
        if isinstance(x, SmoothSet) and x.compact and k >= 1:
            # for a bounded set the measure is eventually constant in R, so the
            # normalized values decay like 1/R^k and the limit vanishes exactly
            estimates[k] = LimitEstimate(k, 0.0, 0.0, radii, True, "compact_exact_zero")
        elif isinstance(x, SmoothSet) and vanishes_identically(x.dim, k):
            # the sweep would measure 0 at every radius, and the fit would give exactly this
            estimates[k] = LimitEstimate(k, 0.0, 0.0, radii, True, route)
        elif isinstance(x, (LinearSubspace, ConicGraph)) and not shifted:
            # homogeneity: the normalized measure of a cone is radius-independent
            value, err = _normalized_sweep(x, (k,), radii[:1], center)[0][0]
            estimates[k] = LimitEstimate(k, value, err, radii, True, route)

    swept = [k for k in ks if k not in estimates]
    if swept:
        sweep = np.array(_normalized_sweep(x, swept, radii, center))  # (radii, orders, 2)
        fit = _fit_limits(radii, sweep[:, :, 0], sweep[:, :, 1])
        for k, value, uncertainty, converged in zip(swept, *(column.tolist() for column in fit)):
            tag = "" if converged else ",not_converged"
            estimates[k] = LimitEstimate(k, value, uncertainty, radii, converged, route + tag)
    return [estimates[k] for k in ks]
