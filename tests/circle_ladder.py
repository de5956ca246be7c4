"""The sampled circle ladder: an independent oracle for implicit-section links.

A plane curve {g = 0} is sampled on a circle of radius R at ``CIRCLE_SAMPLES``
points, each sign change is bisected, and the crossing count is compared
across radii that double from r0 until two consecutive counts agree (at most
``MAX_DOUBLINGS`` doublings).  For quadratic sections the agreed count must
also match the end count read off the signature of the leading form, which
keeps premature agreement on large compact ovals from passing as a stable
link.  The library counts the same ends from the leading form alone; the
tests hold the two against each other.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from lkcurv import DegenerateSample
from lkcurv.catalog.links import (
    BASE_RADIUS_FACTOR,
    CIRCLE_SAMPLES,
    MAX_DOUBLINGS,
    LinkSection,
)
from lkcurv.catalog.polynomial import Poly
from lkcurv.catalog.sets import coefficient_scale

BISECTION_TOL = 1e-10
GRADIENT_DEGENERATE_TOL = 1e-6

_CIRCLE_STEP = 2.0 * np.pi / CIRCLE_SAMPLES  # < 1e-3 rad
_CIRCLE_PHIS = np.arange(CIRCLE_SAMPLES) * _CIRCLE_STEP
_CIRCLE_UNIT = np.stack([np.cos(_CIRCLE_PHIS), np.sin(_CIRCLE_PHIS)], axis=1)
_BISECTION_ITERS = int(np.ceil(np.log2(_CIRCLE_STEP / BISECTION_TOL)))


def expected_end_count(g: Poly) -> Optional[int]:
    """End count of the affine plane curve {g = 0}, when the degree decides it."""
    deg = g.degree()
    if deg <= 0:
        raise DegenerateSample("section polynomial is constant")
    if deg == 1:
        return 2
    if deg == 2:
        a = g.leading_form().quadratic_form_matrix()
        det = float(np.linalg.det(a))
        scale = float(np.sum(np.abs(a))) ** 2
        if abs(det) <= 1e-12 * max(scale, 1e-300):
            raise DegenerateSample("parabolic leading form in the section")
        return 4 if det < 0.0 else 0
    return None


def circle_zero_count(g: Poly, radius: float) -> int:
    vals = g.eval(radius * _CIRCLE_UNIT)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise DegenerateSample("section polynomial vanishes on the whole circle")
    if np.any(vals == 0.0):
        raise DegenerateSample("grid point exactly on the section")
    nxt = np.roll(vals, -1)
    crossing_idx = np.nonzero(vals * nxt < 0.0)[0]
    if crossing_idx.size == 0:
        return 0
    lo = _CIRCLE_PHIS[crossing_idx]
    hi = lo + _CIRCLE_STEP
    flo = vals[crossing_idx]
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        fmid = g.eval(radius * np.stack([np.cos(mid), np.sin(mid)], axis=1))
        same_side = (fmid > 0.0) == (flo > 0.0)
        lo = np.where(same_side, mid, lo)
        flo = np.where(same_side, fmid, flo)
        hi = np.where(same_side, hi, mid)
    zeros = 0.5 * (lo + hi)
    pts = radius * np.stack([np.cos(zeros), np.sin(zeros)], axis=1)
    grad_norms = np.linalg.norm(g.grad_eval(pts), axis=1)
    if np.any(grad_norms < GRADIENT_DEGENERATE_TOL):
        raise DegenerateSample("tangential link point (small section gradient)")
    return int(crossing_idx.size)


def circle_zero_ladder(g: Poly, r0: float) -> LinkSection:
    expected = expected_end_count(g)
    radius = r0
    prev = circle_zero_count(g, radius)
    for _ in range(MAX_DOUBLINGS):
        nxt = circle_zero_count(g, 2.0 * radius)
        if nxt == prev and (expected is None or nxt == expected):
            return LinkSection(nxt, 2.0 * radius, True)
        prev, radius = nxt, 2.0 * radius
    if expected == 0:
        # a definite quadratic leading form bounds the section, so the link at
        # infinity is empty even when the oval outgrows the radius ladder
        return LinkSection(0, radius, True)
    if expected is not None:
        # ends certified by the leading form but not yet visible at this reach
        return LinkSection(expected, radius, False)
    return LinkSection(prev, radius, False)


def ladder_link(x, frame: np.ndarray, center) -> LinkSection:
    """Link of the implicit section of a smooth set by center + span(frame)."""
    g = x.implicit.compose_affine(np.asarray(center, dtype=float), frame)
    return circle_zero_ladder(g, BASE_RADIUS_FACTOR * coefficient_scale(x))
