"""Differential geometry of smooth strata.

Second fundamental forms are read in an orthonormalized tangent basis so that
their elementary symmetric functions are genuine symmetric functions of the
principal curvatures.  ``_lambda_batch`` integrates sigma_i of the form over
the unit normal sphere at a stack of chart nodes (exactly in codimension one,
by antithetic Monte Carlo otherwise) and normalizes it into the curvature
density of order k.  ``weyl_density`` (the raw integral) and ``lk_density``
(the density) evaluate it at one chart point, and ``lk_measure`` integrates
the density over the part of the set inside a ball by per-chart
Gauss-Legendre cubature with partition-of-unity weights.

Sign convention: the form is <second derivative, v>; every quantity reported
here is even in v (two-sided sums or antithetic pairs), so flipping the
normal orientation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional, Tuple

import numpy as np

from .catalog.charts import Chart, gauss_legendre_nodes
from .catalog.sets import SmoothSet
from .errors import CoverageGapError, DegenerateChartError
from .geomconst import sphere_volume
from .grassmann import STREAM_NORMAL_SPHERE, substream

GRAM_DET_TOL = 1e-12
NORMAL_ORTHO_TOL = 1e-8
DEFAULT_NORMAL_DIRS = 512  # 256 antithetic pairs
NODE_CHUNK = 4096


@dataclass
class CubatureSpec:
    nodes_2d: int = 128       # per axis of a two-dimensional chart
    nodes_1d: int = 4096
    normal_dirs: int = DEFAULT_NORMAL_DIRS

    def counts(self, dim: int) -> Tuple[int, ...]:
        if dim == 1:
            return (self.nodes_1d,)
        return (self.nodes_2d,) * dim

    def halved(self) -> "CubatureSpec":
        return CubatureSpec(
            nodes_2d=max(self.nodes_2d // 2, 8),
            nodes_1d=max(self.nodes_1d // 2, 32),
            normal_dirs=self.normal_dirs,
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

    ``directions`` has shape (B, n) or (B, m, n); the result matches with a
    trailing (d, d).
    """
    if directions.ndim == 2:
        coord = np.einsum("bnij,bn->bij", frames.hess, directions)
        return np.einsum("bki,bkl,blj->bij", frames.r_inv, coord, frames.r_inv)
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
    matrix = _form_matrices(frames, v[None, :])[0]
    return SecondFundamentalForm(point=frames.positions[0], direction=v, matrix=matrix)


def _normal_directions(codim: int, n_dirs: int, rng: np.random.Generator,
                       batch: int) -> np.ndarray:
    """One direction of each of n_dirs/2 antithetic pairs on S^(codim-1).

    Shape (batch, n_dirs/2, codim), with independent draws per batch entry so
    that per-node Monte Carlo errors average out across a cubature grid.  The
    partner -v of each direction is implied: the densities are even in v.
    """
    half = max(n_dirs // 2, 1)
    w = rng.standard_normal((batch, half, codim))
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    while np.any(norms < 1e-12):
        bad = (norms < 1e-12)[..., 0]
        w[bad] = rng.standard_normal((int(bad.sum()), codim))
        norms = np.linalg.norm(w, axis=-1, keepdims=True)
    return w / norms


def _lambda_batch(
    x: SmoothSet,
    frames: _FrameData,
    k: int,
    spec: CubatureSpec,
    rng: Optional[np.random.Generator],
) -> Tuple[np.ndarray, np.ndarray]:
    """Curvature density of order k and its per-node stderr at the frame nodes."""
    n, d = x.ambient_dim, x.dim
    batch = frames.positions.shape[0]
    if k > d:
        return np.zeros(batch), np.zeros(batch)
    order = d - k
    if order == 0:
        # sigma_0 integrates to the normal-sphere area, which the
        # normalization cancels exactly
        return np.ones(batch), np.zeros(batch)
    codim = n - d
    norm_const = sphere_volume(n - k - 1)
    if codim == 1:
        nu = frames.normal[:, :, 0]
        m_plus = _form_matrices(frames, nu)
        k_vals = elementary_symmetric(m_plus, order) + elementary_symmetric(-m_plus, order)
        return k_vals / norm_const, np.zeros(batch)
    if order % 2 == 1:
        # antithetic pairs cancel odd symmetric functions exactly
        return np.zeros(batch), np.zeros(batch)
    if rng is None:
        raise ValueError("codimension >= 2 curvature densities need a random stream")
    half = max(spec.normal_dirs // 2, 1)
    area = sphere_volume(codim - 1)
    values = np.empty(batch)
    errors = np.empty(batch)
    for start in range(0, batch, NODE_CHUNK):
        stop = min(start + NODE_CHUNK, batch)
        sub = _FrameData(
            positions=frames.positions[start:stop],
            tangent=frames.tangent[start:stop],
            r_inv=frames.r_inv[start:stop],
            normal=frames.normal[start:stop],
            sqrt_gram=frames.sqrt_gram[start:stop],
            hess=frames.hess[start:stop],
        )
        dirs = _normal_directions(codim, spec.normal_dirs, rng, batch=stop - start)
        ambient_dirs = np.einsum("bnc,bmc->bmn", sub.normal, dirs)
        mats = _form_matrices(sub, ambient_dirs)
        sig = elementary_symmetric(mats, order)
        # even order: sigma(v) == sigma(-v), each pair contributes its value once
        values[start:stop] = area * np.mean(sig, axis=1)
        if half > 1:  # a single antithetic pair has no spread to estimate
            errors[start:stop] = area * np.std(sig, axis=1, ddof=1) / sqrt(half)
        else:
            errors[start:stop] = 0.0
    return values / norm_const, errors / norm_const


def _point_density(
    x: SmoothSet,
    chart_index: int,
    u,
    k: int,
    n_dirs: int,
    rng: Optional[np.random.Generator],
) -> Tuple[float, float]:
    """Curvature density of order k <= dim and its stderr at one chart point."""
    if rng is None:
        rng = substream(0, STREAM_NORMAL_SPHERE, chart_index, x.dim - k)
    frames = _chart_frames(x.charts[chart_index], np.atleast_2d(u))
    lam, err = _lambda_batch(x, frames, k, CubatureSpec(normal_dirs=n_dirs), rng)
    return float(lam[0]), float(err[0])


def weyl_density(
    x: SmoothSet,
    chart_index: int,
    u,
    order: int,
    n_dirs: int = DEFAULT_NORMAL_DIRS,
    rng: Optional[np.random.Generator] = None,
) -> CurvatureDensity:
    """Integral of sigma_order of the second fundamental form over the unit
    normal sphere at a chart point."""
    n, d = x.ambient_dim, x.dim
    if not 0 <= order <= d:
        raise ValueError(f"order must lie in [0, {d}]")
    k = d - order
    value, stderr = _point_density(x, chart_index, u, k, n_dirs, rng)
    scale = sphere_volume(n - k - 1)
    return CurvatureDensity(order, value * scale, stderr * scale)


def lk_density(
    x: SmoothSet,
    chart_index: int,
    u,
    k: int,
    n_dirs: int = DEFAULT_NORMAL_DIRS,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Curvature density of order k at a chart point; identically zero for k > dim."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > x.dim:
        return 0.0
    return _point_density(x, chart_index, u, k, n_dirs, rng)[0]


def _lk_measure_at_resolution(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: CubatureSpec,
    center: np.ndarray,
    seed: int,
) -> Tuple[float, float]:
    total = 0.0
    mc_sq = 0.0
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
        rng = substream(seed, STREAM_NORMAL_SPHERE, ci, k)
        lam, lam_err = _lambda_batch(x, frames, k, spec, rng)
        factor = weights * frames.sqrt_gram * pou * inside
        total += float(np.sum(factor * lam))
        mc_sq += float(np.sum((factor * lam_err) ** 2))
    return total, sqrt(mc_sq)


def lk_measure_detailed(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
    seed: int = 0,
) -> Tuple[float, float]:
    """Curvature measure of order k of X inside the ball, with an error bound.

    The bound combines the change under halving the cubature resolution with
    three standard errors of the normal-sphere Monte Carlo.
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
        # odd-order symmetric functions integrate to zero exactly, both by the
        # two-sided sum in codimension one and by antithetic pairing otherwise
        return 0.0, 0.0
    spec = spec or CubatureSpec()
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    value, mc_err = _lk_measure_at_resolution(x, k, radius, spec, center, seed)
    coarse, _ = _lk_measure_at_resolution(x, k, radius, spec.halved(), center, seed)
    return value, abs(value - coarse) + 3.0 * mc_err


def lk_measure(
    x: SmoothSet,
    k: int,
    radius: float,
    spec: Optional[CubatureSpec] = None,
    center=None,
    seed: int = 0,
) -> float:
    value, _ = lk_measure_detailed(x, k, radius, spec=spec, center=center, seed=seed)
    return value
