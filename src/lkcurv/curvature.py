"""Differential geometry of smooth strata.

Second fundamental forms are read in an orthonormalized tangent basis so that
their elementary symmetric functions are genuine symmetric functions of the
principal curvatures.  ``_lambda_batch`` integrates sigma_i of the form over
the unit normal sphere at a stack of chart nodes and normalizes it into the
curvature density of order k.  The integral is exact, with no sampling: for a
unit normal v = sum_a w_a e_a the form is sum_a w_a A_a, odd orders integrate
to zero, and sigma_2 is a quadratic form in w, so its integral over S^(c-1)
is |S^(c-1)|/c * sum_a sigma_2(A_a) (the Gauss equation; in codimension one
this is the two-sided sum sigma(A) + sigma(-A)).  Even orders of 4 and above
in codimension 2 or more are not supported.  ``weyl_density`` (the raw
integral) and ``lk_density`` (the density) evaluate it at one chart point,
and ``lk_measure`` integrates the density over the part of the set inside a
ball by per-chart Gauss-Legendre cubature with partition-of-unity weights.

Sign convention: the form is <second derivative, v>; every quantity reported
here is even in v, so flipping the normal orientation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .catalog.charts import Chart, gauss_legendre_nodes
from .catalog.sets import SmoothSet
from .errors import CoverageGapError, DegenerateChartError, UnsupportedSection
from .geomconst import sphere_volume

GRAM_DET_TOL = 1e-12
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
    tangent: np.ndarray     # (B, n, d) orthonormal columns
    r_inv: np.ndarray       # (B, d, d)
    normal: np.ndarray      # (B, n, n-d) orthonormal columns
    sqrt_gram: np.ndarray   # (B,)
    hess: np.ndarray        # (B, n, d, d)


def _chart_frames(chart: Chart, u: np.ndarray) -> _FrameData:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    positions = chart.map_fn(u)
    jac = chart.jac_fn(u)
    hess = chart.hess_fn(u)
    d = chart.dim
    q, r = np.linalg.qr(jac, mode="complete")
    diag = np.abs(np.einsum("bii->bi", r[:, :d, :d]))
    sqrt_gram = np.prod(diag, axis=1)
    if np.min(sqrt_gram * sqrt_gram) < GRAM_DET_TOL:
        raise DegenerateChartError(
            f"chart {chart.label!r}: tangent Gram determinant below {GRAM_DET_TOL}"
        )
    r_inv = np.linalg.inv(r[:, :d, :d])
    return _FrameData(
        positions=positions,
        tangent=q[:, :, :d],
        r_inv=r_inv,
        normal=q[:, :, d:],
        sqrt_gram=sqrt_gram,
        hess=hess,
    )


def _form_matrices(frames: _FrameData, directions: np.ndarray) -> np.ndarray:
    """Second fundamental forms for per-node normal directions.

    ``directions`` has shape (B, m, n); the result has shape (B, m, d, d).
    """
    coord = np.einsum("bnij,bmn->bmij", frames.hess, directions)
    return np.einsum("bki,bmkl,blj->bmij", frames.r_inv, coord, frames.r_inv)


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
    chart = x.charts[chart_index]
    frames = _chart_frames(chart, np.atleast_2d(u))
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    tangential = frames.tangent[0].T @ v
    if np.max(np.abs(tangential)) > NORMAL_ORTHO_TOL:
        raise ValueError("direction is not orthogonal to the tangent space")
    matrix = _form_matrices(frames, v[None, None, :])[0, 0]
    return SecondFundamentalForm(point=frames.positions[0], direction=v, matrix=matrix)


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
    # one form per normal basis vector, shape (B, codim, d, d)
    forms = _form_matrices(frames, frames.normal.transpose(0, 2, 1))
    sigma = np.sum(elementary_symmetric(forms, order), axis=1)
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


def _lk_measure_at_resolution(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: CubatureSpec,
    center: np.ndarray,
) -> float:
    total = 0.0
    multi = len(x.charts) > 1
    for ci, chart in enumerate(x.charts):
        box = chart.domain_for_ball(radius, center)
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
        lam = _lambda_batch(x, frames, k)
        factor = weights * frames.sqrt_gram * pou * inside
        total += float(np.sum(factor * lam))
    return total


def lk_measure_detailed(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> Tuple[float, float]:
    """Curvature measure of order k of X inside the ball, with an error bound.

    The bound is the change under halving the cubature resolution.
    """
    if not isinstance(x, SmoothSet):
        raise TypeError("lk_measure expects a smooth set")
    n, d = x.ambient_dim, x.dim
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k > d:
        return 0.0, 0.0
    if (d - k) % 2 == 1:
        # odd-order symmetric functions are odd in the normal direction, so
        # they integrate to zero over the normal sphere
        return 0.0, 0.0
    spec = spec or CubatureSpec()
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    value = _lk_measure_at_resolution(x, k, radius, spec, center)
    coarse = _lk_measure_at_resolution(x, k, radius, spec.halved(), center)
    return value, abs(value - coarse)


def lk_measure(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
) -> float:
    value, _ = lk_measure_detailed(x, k, radius, spec=spec, center=center)
    return value
