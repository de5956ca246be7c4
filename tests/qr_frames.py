"""Orthonormal chart frames by stacked QR: the reference oracle for the cubature.

The library evaluates curvature densities in coordinate form, from the metric
G = J^T J and the normal parts of the second derivatives.  This module keeps
the orthonormal route it replaced: a complete QR of the Jacobian at every
node gives an orthonormal tangent basis, the inverse of its triangular factor
and an orthonormal normal basis, and each form <d^2 map, e_a> is read in the
orthonormal tangent basis.  The tests hold the library's density and
``sqrt_gram`` against it node for node, and read unit normals from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lkcurv import DegenerateChartError, UnsupportedSection
from lkcurv.curvature import GRAM_DET_TOL, elementary_symmetric
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


def outward_normal(x, chart_index: int, u) -> np.ndarray:
    """First vector of the orthonormal normal basis at one chart point."""
    return qr_frames(x.charts[chart_index], u).normal[0, :, 0]
