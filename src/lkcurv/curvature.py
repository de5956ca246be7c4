"""Differential geometry of smooth strata.

The curvature density of order k at a chart node integrates sigma_(d-k) of
the second fundamental form over the unit normal sphere.  The integral is
exact, with no sampling: for a unit normal v = sum_a w_a e_a the form is
sum_a w_a A_a, odd orders integrate to zero, and sigma_2 is a quadratic form
in w, so its integral over S^(c-1) is |S^(c-1)|/c * sum_a sigma_2(A_a).  By
the Gauss equation that sum is 1/2 (|H|^2 - |II|^2), which is intrinsic, so
the cubature needs no orthonormal frame: ``_chart_frames`` keeps the
Jacobian J, the second derivatives h_ij and det G of the metric G = J^T J,
and the density is read in coordinates, with G and G^-1 written out by hand
for surfaces and no QR or matrix inverse per node:

* codimension 1: B_ij = <h_ij, N> with N = J_1 x J_2, |N|^2 = det G, so
  sigma_2 = det B / det G^2, and a flat chart gives exactly zero;
* codimension 2 and more: the normal parts h_ij - J G^-1 J^T h_ij give
  sigma_2 = (<h11_perp, h22_perp> - |h12_perp|^2) / det G.

Charts of dimension 3 and more (none is builtin) use general contractions
with G^-1; even orders of 4 and above in codimension 1 are 2 sigma(G^-1 B),
and in codimension 2 or more they are not supported.  ``weyl_density`` (the
raw integral) and ``lk_density`` (the density) evaluate it at one chart
point, and ``lk_measures_detailed`` integrates the densities of several
orders over the part of the set inside a ball by per-chart Gauss-Legendre
cubature with partition-of-unity weights, building each chart's nodes and
frames once per rule for all of them.  ``second_fundamental_form`` returns
the form of one normal direction in an orthonormal tangent basis.

Sign convention: the form is <second derivative, v>; every quantity reported
here is even in v, so flipping the normal orientation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .catalog.charts import GRAM_DET_TOL, Chart, gauss_legendre_nodes
from .catalog.sets import SmoothSet
from .errors import CoverageGapError, DegenerateChartError, UnsupportedSection
from .geomconst import sphere_volume

NORMAL_ORTHO_TOL = 1e-8


@dataclass
class CubatureSpec:
    nodes_2d: int = 128       # per axis of a two-dimensional chart
    nodes_1d: int = 512       # 64 per dyadic panel; halved, 32 per panel

    def counts(self, dim: int) -> Tuple[int, ...]:
        if dim == 1:
            return (self.nodes_1d,)
        return (self.nodes_2d,) * dim

    def halved(self) -> "CubatureSpec":
        return CubatureSpec(
            nodes_2d=max(self.nodes_2d // 2, 8),
            nodes_1d=max(self.nodes_1d // 2, 32),
        )


@dataclass(frozen=True)
class SecondFundamentalForm:
    point: np.ndarray
    direction: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class CurvatureDensity:
    order: int
    value: float
    stderr: float = 0.0


@dataclass(eq=False)
class _FrameData:
    positions: np.ndarray   # (B, n)
    jac: np.ndarray         # (B, n, d) columns d map / du_i
    hess: np.ndarray        # (B, n, d, d)
    det_gram: np.ndarray    # (B,) det G, G = J^T J
    sqrt_gram: np.ndarray   # (B,)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two (B, n) stacks."""
    return np.einsum("bi,bi->b", a, b)


def _gram(jac: np.ndarray) -> np.ndarray:
    return np.einsum("bia,bic->bac", jac, jac)


def _det_gram(jac: np.ndarray) -> np.ndarray:
    d = jac.shape[2]
    if d == 1:
        return _dot(jac[:, :, 0], jac[:, :, 0])
    if d == 2:
        j1, j2 = jac[:, :, 0], jac[:, :, 1]
        g12 = _dot(j1, j2)
        return _dot(j1, j1) * _dot(j2, j2) - g12 * g12
    return np.linalg.det(_gram(jac))


def _chart_frames(chart: Chart, u: np.ndarray) -> _FrameData:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    positions, jac, hess = chart.jet(u)
    det_gram = _det_gram(jac)
    if np.min(det_gram) < GRAM_DET_TOL:
        raise DegenerateChartError(
            f"chart {chart.label!r}: tangent Gram determinant below {GRAM_DET_TOL}"
        )
    return _FrameData(
        positions=positions,
        jac=jac,
        hess=hess,
        det_gram=det_gram,
        sqrt_gram=np.sqrt(det_gram),
    )


def elementary_symmetric(matrices: np.ndarray, order: int) -> np.ndarray:
    """Order-th elementary symmetric function of the eigenvalues.

    Uses Newton's identities on traces of powers, so no eigendecomposition is
    performed; sigma_0 is identically one.
    """
    matrices = np.asarray(matrices, dtype=float)
    d = matrices.shape[-1]
    if not 0 <= order <= d:
        raise ValueError(f"order must lie in [0, {d}], got {order}")
    batch_shape = matrices.shape[:-2]
    if order == 0:
        return np.ones(batch_shape)
    power = matrices
    traces = []
    for _ in range(order):
        traces.append(np.einsum("...ii->...", power))
        power = power @ matrices
    elem = [np.ones(batch_shape)]
    for k in range(1, order + 1):
        acc = np.zeros(batch_shape)
        for j in range(1, k + 1):
            acc += ((-1) ** (j - 1)) * elem[k - j] * traces[j - 1]
        elem.append(acc / k)
    return elem[order]


def second_fundamental_form(x: SmoothSet, chart_index: int, u, v) -> SecondFundamentalForm:
    """Form <d^2 map, v> at a chart point, in an orthonormal tangent basis."""
    frames = _chart_frames(x.charts[chart_index], np.atleast_2d(u))
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    tangent, r = np.linalg.qr(frames.jac[0])
    if np.max(np.abs(tangent.T @ v)) > NORMAL_ORTHO_TOL:
        raise ValueError("direction is not orthogonal to the tangent space")
    r_inv = np.linalg.inv(r)
    matrix = r_inv.T @ np.einsum("nij,n->ij", frames.hess[0], v) @ r_inv
    return SecondFundamentalForm(point=frames.positions[0], direction=v, matrix=matrix)


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


def _general_sigma(frames: _FrameData, order: int, codim: int) -> np.ndarray:
    """Sum of sigma_order of the forms over an orthonormal normal basis by
    contractions with G^-1, for charts of dimension 3 and more (no builtin
    set has one)."""
    jac, hess = frames.jac, frames.hess
    g_inv = np.linalg.inv(_gram(jac))
    tangential = np.einsum("bna,bac,bmc->bnm", jac, g_inv, jac)
    if order == 2:
        # 1/2 (|H|^2 - |II|^2) with H = G^ij h_ij_perp
        perp = hess - np.einsum("bnm,bmij->bnij", tangential, hess)
        mean = np.einsum("bij,bnij->bn", g_inv, perp)
        square = np.einsum("bij,bkl,bnjk,bnli->b", g_inv, g_inv, perp, perp)
        return 0.5 * (_dot(mean, mean) - square)
    # codimension one: the normal projector I - J G^-1 J^T is nu nu^T, so its
    # longest column is a multiple of the unit normal nu
    projector = np.eye(jac.shape[1]) - tangential
    lengths = np.linalg.norm(projector, axis=1)
    longest = np.argmax(lengths, axis=1)
    rows = np.arange(jac.shape[0])
    nu = projector[rows, :, longest] / lengths[rows, longest][:, None]
    shape = np.einsum("bac,bncj,bn->baj", g_inv, hess, nu)
    return elementary_symmetric(shape, order)


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
    codim = n - d
    if codim >= 2 and order >= 4:
        raise UnsupportedSection(
            f"order-{order} curvature in codimension {codim} has no closed form here"
        )
    if d == 2:
        sigma = _surface_sigma(frames, codim)
    else:
        sigma = _general_sigma(frames, order, codim)
    return sphere_volume(codim - 1) / codim * sigma / sphere_volume(n - k - 1)


def _point_density(x: SmoothSet, chart_index: int, u, k: int) -> float:
    """Curvature density of order k <= dim at one chart point."""
    frames = _chart_frames(x.charts[chart_index], np.atleast_2d(u))
    return float(_lambda_batch(x, frames, k)[0])


def weyl_density(x: SmoothSet, chart_index: int, u, order: int) -> CurvatureDensity:
    """Integral of sigma_order of the second fundamental form over the unit
    normal sphere at a chart point."""
    n, d = x.ambient_dim, x.dim
    if not 0 <= order <= d:
        raise ValueError(f"order must lie in [0, {d}]")
    k = d - order
    value = _point_density(x, chart_index, u, k)
    return CurvatureDensity(order, value * sphere_volume(n - k - 1))


def lk_density(x: SmoothSet, chart_index: int, u, k: int) -> float:
    """Curvature density of order k at a chart point; identically zero for k > dim."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > x.dim:
        return 0.0
    return _point_density(x, chart_index, u, k)


def _chart_boxes(x: SmoothSet, radius: float, center: np.ndarray) -> List[Optional[np.ndarray]]:
    """Each chart's parameter box for the ball, None where the chart misses it."""
    boxes = [chart.domain_for_ball(radius, center) for chart in x.charts]
    for chart, box in zip(x.charts, boxes):
        if box is not None and not np.all(np.isfinite(box)):
            raise ValueError(
                f"radius {radius:g}: chart {chart.label!r} has no finite parameter box"
            )
    return boxes


def _measures_at_resolution(
    x: SmoothSet,
    ks,
    radius: float,
    boxes: List[Optional[np.ndarray]],
    spec: CubatureSpec,
    center: np.ndarray,
) -> List[float]:
    """Measures of the orders ks; each chart builds its nodes and frames once."""
    totals = [0.0] * len(ks)
    multi = len(x.charts) > 1
    for ci, (chart, box) in enumerate(zip(x.charts, boxes)):
        if box is None:
            continue
        nodes, weights = gauss_legendre_nodes(box, spec.counts(chart.dim), chart.panel_axes)
        frames = _chart_frames(chart, nodes)
        inside = np.sum((frames.positions - center[None, :]) ** 2, axis=1) <= radius * radius * (
            1.0 + 1e-12
        )
        pou = chart.weights(frames.positions)
        if multi:
            cover = np.zeros(nodes.shape[0])
            for other in x.charts:
                cover += other.weights(frames.positions)
            gap = float(np.max(np.abs(cover - 1.0)))
            if gap > 1e-3:
                raise CoverageGapError(
                    f"partition-of-unity mass deviates from 1 by {gap:.2e} on chart {ci}"
                )
        factor = weights * frames.sqrt_gram * pou * inside
        for i, k in enumerate(ks):
            totals[i] += float(np.sum(factor * _lambda_batch(x, frames, k)))
    return totals


def lk_measures_detailed(
    x: SmoothSet,
    ks,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> List[Tuple[float, float]]:
    """Curvature measures of the orders ks of X inside the ball, each with an
    error bound.

    The bound is the change under halving the cubature resolution.  Each
    chart's parameter box is fitted once and shared by both rules, and each
    rule builds the chart's nodes and frames once and evaluates every order on
    them, so each order gets the same bits as a call for that order alone.
    """
    if not isinstance(x, SmoothSet):
        raise TypeError("lk_measures_detailed expects a smooth set")
    n, d = x.ambient_dim, x.dim
    ks = list(ks)
    if not all(0 <= k <= n for k in ks):
        raise ValueError(f"k must lie in [0, {n}]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(radius * radius):
        raise ValueError(f"radius {radius:g} is too large: R^2 is not finite")
    # orders above the dimension vanish, and odd-order symmetric functions are
    # odd in the normal direction, so they integrate to zero over the normal sphere
    live = [k for k in ks if k <= d and (d - k) % 2 == 0]
    measures = {}
    if live:
        spec = spec or CubatureSpec()
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        boxes = _chart_boxes(x, radius, center)
        fine = _measures_at_resolution(x, live, radius, boxes, spec, center)
        coarse = _measures_at_resolution(x, live, radius, boxes, spec.halved(), center)
        for k, value, other in zip(live, fine, coarse):
            if not (np.isfinite(value) and np.isfinite(other)):
                raise ValueError(f"radius {radius:g}: the order-{k} measure is not finite")
            measures[k] = (value, abs(value - other))
    return [measures.get(k, (0.0, 0.0)) for k in ks]


# the benchmark's tracing wraps this by name
def lk_measure_detailed(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> Tuple[float, float]:
    """Curvature measure of order k of X inside the ball, with an error bound."""
    return lk_measures_detailed(x, (k,), radius, spec=spec, center=center)[0]
