"""Orthonormal chart frames by stacked QR: the reference oracle for the cubature.

The library evaluates curvature densities in coordinate form, from the metric
G = J^T J and the normal parts of the second derivatives.  This module keeps
the orthonormal route it replaced: a complete QR of the Jacobian at every
node gives an orthonormal tangent basis, the inverse of its triangular factor
and an orthonormal normal basis, and each form <d^2 map, e_a> is read in the
orthonormal tangent basis.  The tests hold the library's density and
``sqrt_gram`` against it node for node, and read unit normals and forms from
it.  ``point_density`` is the library's own density at one chart point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lkcurv import DegenerateChartError, UnsupportedSection
from lkcurv.curvature import GRAM_DET_TOL, _chart_frames, _lambda_batch
from lkcurv.geomconst import sphere_volume


@dataclass(eq=False)
class QRFrames:
    positions: np.ndarray   # (B, n)
    tangent: np.ndarray     # (B, n, d) orthonormal columns
    r_inv: np.ndarray       # (B, d, d)
    normal: np.ndarray      # (B, n, n-d) orthonormal columns
    sqrt_gram: np.ndarray   # (B,)
    hess: np.ndarray        # (B, n, d, d)


def qr_frames(chart, u) -> QRFrames:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    positions, jac, hess = chart.jet(u)
    d = chart.dim
    q, r = np.linalg.qr(jac, mode="complete")
    sqrt_gram = np.prod(np.abs(np.einsum("bii->bi", r[:, :d, :d])), axis=1)
    if np.min(sqrt_gram * sqrt_gram) < GRAM_DET_TOL:
        raise DegenerateChartError(f"chart {chart.label!r}: tangent Gram determinant too small")
    return QRFrames(
        positions=positions,
        tangent=q[:, :, :d],
        r_inv=np.linalg.inv(r[:, :d, :d]),
        normal=q[:, :, d:],
        sqrt_gram=sqrt_gram,
        hess=hess,
    )


def form_matrices(frames: QRFrames, directions: np.ndarray) -> np.ndarray:
    """Forms <d^2 map, v> in the orthonormal tangent basis; directions (B, m, n)."""
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


def qr_density(x, frames: QRFrames, k: int) -> np.ndarray:
    """Curvature density of order k at the frame nodes, from orthonormal forms."""
    n, d = x.ambient_dim, x.dim
    batch = frames.positions.shape[0]
    order = d - k
    if order < 0 or order % 2 == 1:
        return np.zeros(batch)
    if order == 0:
        return np.ones(batch)
    codim = n - d
    if codim >= 2 and order >= 4:
        raise UnsupportedSection(f"order-{order} curvature in codimension {codim}")
    forms = form_matrices(frames, frames.normal.transpose(0, 2, 1))
    sigma = np.sum(elementary_symmetric(forms, order), axis=1)
    return sphere_volume(codim - 1) / codim * sigma / sphere_volume(n - k - 1)


def outward_normal(x, u) -> np.ndarray:
    """First vector of the orthonormal normal basis at one chart point."""
    return qr_frames(x.chart, u).normal[0, :, 0]


def form_at(chart, u, v) -> np.ndarray:
    """Form <d^2 map, v> at one chart point, in an orthonormal tangent basis."""
    return form_matrices(qr_frames(chart, u), np.asarray(v, dtype=float)[None, None, :])[0, 0]


def point_density(x, u, k: int) -> float:
    """The library's curvature density of order k at one chart point."""
    return float(_lambda_batch(x, _chart_frames(x.chart, np.atleast_2d(u)), k)[0])
