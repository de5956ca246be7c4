"""Normalized curvature growth and its large-radius limit.

``normalized_lk(X, k, R)`` is the order-k curvature measure of X inside the
radius-R ball divided by b_k R^k.  ``estimate_limit`` extrapolates the
normalized values over a geometric radius schedule with an a + c/R model
fitted to the last three radii.

Order 0 (smooth sets only, where b_0 R^0 = 1) runs the same sweep: the
limit is the total order-0 curvature of the set.

Exact bypasses: linear subspaces give the indicator [k == dim] in closed
form, cones are radius-independent by homogeneity, and the limit of a
compact set is exactly 0 for every k >= 1, with no cubature run.

The reported uncertainty is the largest of the in-window fit residual, the
shift of the fitted value between the last two three-radius windows, and the
per-radius evaluation error.  The window shift matters: sets whose normalized
values converge faster than 1/R leave a tiny in-window residual while the
extrapolant still carries a visible model bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .catalog.sets import ConicGraph, LinearSubspace, SetDescriptor, SmoothSet
from .curvature import CubatureSpec, lk_measure_detailed
from .geomconst import ball_volume
from .spherical import conic_lk_measure_detailed

DEFAULT_RADII = (8.0, 16.0, 32.0, 64.0)


@dataclass
class LimitEstimate:
    k: int
    value: float
    uncertainty: float
    radii: List[float]
    converged: bool


def _check_order(x: SetDescriptor, k: int) -> None:
    """Orders run from 1 to n, and from 0 for smooth sets."""
    lowest = 0 if isinstance(x, SmoothSet) else 1
    if not lowest <= k <= x.ambient_dim:
        raise ValueError(f"k must lie in [{lowest}, {x.ambient_dim}]")


def _normalized_detailed(
    x: SetDescriptor,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec],
    center,
) -> Tuple[float, float]:
    _check_order(x, k)
    n = x.ambient_dim
    scale = ball_volume(k) * radius**k
    if isinstance(x, LinearSubspace):
        if k != x.dim:
            return 0.0, 0.0
        c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        dist2 = float(np.sum((c - x.frame.T @ (x.frame @ c)) ** 2))
        if dist2 >= radius * radius:
            return 0.0, 0.0
        # the slice is a k-ball of radius sqrt(R^2 - dist^2) inside the subspace
        return (1.0 - dist2 / (radius * radius)) ** (k / 2.0), 0.0
    if isinstance(x, ConicGraph):
        value, err = conic_lk_measure_detailed(x, k, radius, center=center)
        return value / scale, err / scale
    if isinstance(x, SmoothSet):
        value, err = lk_measure_detailed(x, k, radius, spec=spec, center=center)
        return value / scale, err / scale
    raise TypeError(f"not a set descriptor: {x!r}")


def normalized_lk(
    x: SetDescriptor,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> float:
    value, _ = _normalized_detailed(x, k, radius, spec, center)
    return value


def _fit_inverse_radius(radii, values) -> Tuple[float, float]:
    """Least-squares a + c/R fit; returns (a, max abs residual)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.stack([np.ones_like(radii), 1.0 / radii], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - values)))
    return float(coeffs[0]), residual


def fit_limit_sequence(radii, values, errors) -> Tuple[float, float, bool]:
    """Extrapolate a radius sweep: a + c/R over the last three radii.

    Returns (value, uncertainty, converged) where the uncertainty also covers
    the shift of the extrapolant between the last two fit windows and the
    largest per-radius evaluation error.
    """
    if len(values) < 3:
        raise ValueError("need at least three radii to extrapolate")
    value, residual = _fit_inverse_radius(radii[-3:], values[-3:])
    drift = 0.0
    if len(values) >= 4:
        prev_value, _ = _fit_inverse_radius(radii[-4:-1], values[-4:-1])
        drift = abs(value - prev_value)
    uncertainty = max(residual, drift, max(errors))
    converged = abs(values[-1] - values[-2]) <= uncertainty
    return value, uncertainty, converged


def validate_radii(radii) -> List[float]:
    radii = [float(r) for r in radii]
    if not all(np.isfinite(radii)):
        raise ValueError("radius schedule must be finite")
    if len(radii) < 3:
        raise ValueError("radius schedule needs at least three radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius schedule must be strictly increasing")
    for a, b in zip(radii, radii[1:]):
        if abs(b / a - 2.0) > 1e-9:
            raise ValueError("radius schedule must be geometric with ratio 2")
    return radii


def estimate_limit(
    x: SetDescriptor,
    k: int,
    radii=DEFAULT_RADII,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> LimitEstimate:
    """Limit of the normalized order-k curvature measure along the schedule."""
    radii = validate_radii(radii)
    _check_order(x, k)
    shifted = center is not None and bool(np.any(np.asarray(center)))

    if isinstance(x, SmoothSet) and x.compact and k >= 1:
        # for a bounded set the measure is eventually constant in R, so the
        # normalized values decay like 1/R^k and the limit vanishes exactly
        return LimitEstimate(k, 0.0, 0.0, radii, True)

    if isinstance(x, (LinearSubspace, ConicGraph)) and not shifted:
        # homogeneity: the normalized measure of a cone is radius-independent
        value, err = _normalized_detailed(x, k, radii[0], spec, center)
        return LimitEstimate(k, value, err, radii, True)

    pairs = [_normalized_detailed(x, k, r, spec, center) for r in radii]
    values = [p[0] for p in pairs]
    errors = [p[1] for p in pairs]
    value, uncertainty, converged = fit_limit_sequence(radii, values, errors)
    return LimitEstimate(k, value, uncertainty, radii, converged)
