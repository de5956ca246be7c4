"""Reference routes for the cubature's node scalars.

The library reads sqrt det G, the curvature densities and the ball terms of
a surface of revolution off its profile.  This module keeps two routes from
the whole chart jet for the tests to hold it against:

* the coordinate route the profile route replaced (``chart_frames``,
  ``lambda_batch``, ``ball_terms``): the metric G = J^T J, sigma_2 from the
  normal parts of the second derivatives, and A, B, C from the jet at
  phi = 0.  On every builtin surface the profile route gives its bits;
* the orthonormal route before it: a complete QR of the Jacobian at every
  node gives an orthonormal tangent basis, the inverse of its triangular
  factor and an orthonormal normal basis, and each form <d^2 map, e_a> is
  read in the orthonormal tangent basis.  The tests hold the coordinate
  route against it node for node, and read unit normals and forms from it.

``point_density`` is the library's own density at one chart point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lkcurv import DegenerateChartError, UnsupportedSection
from lkcurv.catalog.charts import GRAM_DET_TOL, _dot, tangent_gram
from lkcurv.curvature import _node_scalars, vanishes_identically
from lkcurv.geomconst import sphere_volume


# ------------------------------------------------------------ coordinate route


@dataclass(eq=False)
class FrameData:
    positions: np.ndarray   # (B, n)
    jac: np.ndarray         # (B, n, d) columns d map / du_i
    hess: np.ndarray        # (B, n, d, d)
    det_gram: np.ndarray    # (B,) det G, G = J^T J
    sqrt_gram: np.ndarray   # (B,)


def chart_frames(chart, u) -> FrameData:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    positions, jac, hess = chart.jet(u)
    det_gram, degenerate = tangent_gram(jac)
    if degenerate:
        raise DegenerateChartError(
            f"chart {chart.label!r}: tangent Gram determinant at most "
            f"{GRAM_DET_TOL} g11 g22"
        )
    return FrameData(positions, jac, hess, det_gram, np.sqrt(det_gram))


def surface_sigma(frames: FrameData, codim: int) -> np.ndarray:
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


def lambda_batch(x, frames: FrameData, k: int) -> np.ndarray:
    """Curvature density of order k at the frame nodes, in coordinates."""
    n, d = x.ambient_dim, x.dim
    batch = frames.positions.shape[0]
    if vanishes_identically(d, k):
        return np.zeros(batch)
    if d == k:
        return np.ones(batch)
    codim = n - d
    sigma = surface_sigma(frames, codim)
    return sphere_volume(codim - 1) / codim * sigma / sphere_volume(n - k - 1)


def ball_terms(frames: FrameData, center: np.ndarray, axis: int) -> np.ndarray:
    """On a chart with rotation axis ``axis``, the rows A, B, C of
    |p(t, phi) - c|^2 = A + B cos phi + C sin phi at every profile node, from
    its jet at phi = 0."""
    offset = frames.positions - center[None, :]
    # the map is a + cos phi u + sin phi v with round circles (|u| = |v|,
    # u . v = 0): at phi = 0, p = a + u, dp/dphi = v and d2p/dphi2 = -u
    terms = np.zeros((3, offset.shape[0]))
    for i in range(offset.shape[1]):
        bend, turn = frames.hess[:, i, axis, axis], frames.jac[:, i, axis]
        middle = offset[:, i] + bend
        terms[0] += middle * middle + bend * bend
        terms[1] -= 2.0 * middle * bend
        terms[2] += 2.0 * middle * turn
    return terms


# ------------------------------------------------------------ orthonormal route


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
    if tangent_gram(jac)[1]:
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
    """The library's curvature density of order k at one chart point: 0 where
    the order vanishes identically, else its profile route's at the point's t."""
    if vanishes_identically(x.dim, k):
        return 0.0
    t = np.atleast_1d(np.asarray(u, dtype=float))[[x.chart.profile_axis]]
    return float(_node_scalars(x, t, [k], np.zeros(x.ambient_dim))[2][0, 0])
