"""Topological oracles: Euler characteristics and links at infinity.

``link_chi_batch(X, frames, center)`` returns, for a stack of planes H, the
Euler characteristic of (X intersect (center + H)) intersect S_R for stably
large R, spheres taken around the center; ``full_space_link(X, center)`` is
the same for H the whole space.  ``link_chi`` and ``link_infinity_chi`` run
the stacked count on one plane; no verify path calls them, and they stay
because the benchmark's probe and tracing look them up by name.

Routes.  Each set kind has one count for proper planes, made for a whole
stack of planes.  A one-dimensional implicit section {g = 0} of a smooth set
has two ends for each simple real root on P^1 of its leading form, the
restriction P_d(s @ frame) of the top-degree part of the implicit
polynomial: such a root is a smooth point of the projective closure that
crosses the line at infinity.  The center moves only lower-order terms, so
shifted flats use the same count, and no radius is involved.  Linear and
conic links are exact combinatorial counts: a linear section is a flat whose
dimension is the number of principal angles between the two subspaces that
vanish (one SVD for the stack, read by the angles' sines), and a conic section is the cone over the
vertices, arcs and arc crossings of its spherical graph in the plane (every
test runs over all planes and arcs at once).

Full-space links are closed forms too: a flat of dimension m has the link
S^(m-1), a cone has chi(graph) = V - E around the origin and each ray of an
edge-free cone leaves every large sphere exactly once around any center, a
smooth set of even dimension or a compact one has chi 0, and a nonconstant
polynomial curve has two ends on its natural unbounded domain and none on a
bounded one.  No link depends on a radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ChiUnknownError, DegenerateSample, UnsupportedSection
from ..grassmann import Subspace
from .polynomial import Poly
from .sets import (
    ConicGraph,
    LinearSubspace,
    SetDescriptor,
    SmoothSet,
    coefficient_scale,
    integer_field,
)

VERTEX_IN_TOL = 1e-9
VERTEX_GRAY_TOL = 1e-7
CROSSING_RESIDUAL_TOL = 1e-8
CROSSING_GRAY_TOL = 1e-5
ENDPOINT_MARGIN = 1e-9
# sines of the principal angles between a linear set and a plane: below the
# first the direction is shared, below the second it is in the gray band
SHARED_DIRECTION_TOL = 1e-10
SHARED_GRAY_TOL = 1e-8
# a leading-form determinant this small relative to the squared coefficient
# sum is parabolic
PARABOLIC_DET_TOL = 1e-12
# roots of the Cayley-transformed leading form: on the unit circle within the
# first tolerance are real, beyond the second complex, in between degenerate;
# real roots closer than the second tolerance are a multiple root
FORM_ROOT_TOL = 1e-9
FORM_ROOT_GRAY_TOL = 1e-5
# no link uses a radius; the benchmark's tracing reads this factor and
# ``coefficient_scale`` to count radius doublings of ``LinkSection.radius_used``
BASE_RADIUS_FACTOR = 8.0


@dataclass(frozen=True)
class LinkSection:
    """A link chi.  Every link is a closed form, so ``radius_used`` is only the
    seed radius (``BASE_RADIUS_FACTOR`` times the coefficient scale) and
    ``stable`` is always true; both fields stay because the benchmark's tracing
    reads them."""

    chi: int
    radius_used: float
    stable: bool


def euler_char(x: SetDescriptor) -> int:
    """Euler characteristic: subspaces and cones are contractible, smooth sets
    must declare theirs."""
    if isinstance(x, (LinearSubspace, ConicGraph)):
        return 1
    if isinstance(x, SmoothSet):
        if x.declared_chi is None:
            raise ChiUnknownError("declared_chi: smooth set has no declared Euler characteristic")
        return integer_field(x.declared_chi, "declared_chi")
    raise TypeError(f"not a set descriptor: {x!r}")


def _center_vector(n: int, center) -> np.ndarray:
    if center is None:
        return np.zeros(n)
    center = np.asarray(center, dtype=float)
    if center.shape != (n,):
        raise ValueError("center has the wrong dimension")
    return center


# ------------------------------------------------------------ planes in stacks

def _normal_bases(frames: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the orthogonal complements of a stack of planes.

    ``frames`` has shape (m, k, n); the result has shape (m, n-k, n).
    """
    k = frames.shape[1]
    q, _ = np.linalg.qr(frames.transpose(0, 2, 1), mode="complete")
    return q[:, :, k:].transpose(0, 2, 1)


# ---------------------------------------------------------------- linear case

def _flats_meet_subspace(frames: np.ndarray, center: np.ndarray, off: np.ndarray,
                         shared: np.ndarray) -> np.ndarray:
    """Whether each affine flat center + span(frames[i]) meets span(v).

    It does when the part of the center off plane i lies in the part of
    span(v) off it, which the rows of ``off`` (the principal directions'
    unit parts off the plane) that are not ``shared`` span; the gray band
    keeps their sines away from zero.
    """
    ht = frames.transpose(0, 2, 1)
    rest = center - np.matmul(ht, np.matmul(frames, center)[:, :, None])[:, :, 0]
    dirs = np.where(shared[:, :, None], 0.0, off)
    residual = rest - np.matmul(np.matmul(dirs, rest[:, :, None])[:, :, 0][:, None, :], dirs)[:, 0, :]
    return np.linalg.norm(residual, axis=1) <= 1e-9 * (1.0 + np.linalg.norm(center))


def _sphere_chi(m):
    """chi of S^(m-1), the link of an m-flat: 2 for odd m, 0 for even m (the
    empty sphere of m = 0 included)."""
    return 2 * (m % 2)


def _linear_section_links(x: LinearSubspace, frames: np.ndarray,
                          center: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Link chi of the flat section by each plane, and the degenerate planes.

    The part of span(x) off plane i has the sines of the principal angles as
    its singular values, and the principal directions' unit parts off the
    plane as its right singular vectors.  A direction whose sine is below
    ``SHARED_DIRECTION_TOL`` is shared, and a plane with a sine below
    ``SHARED_GRAY_TOL`` but not below the first is degenerate, since shared
    and non-shared directions cannot be told apart there.  Sines, unlike
    cosines near 1, resolve angles down to rounding, so both tolerances are
    angles in radians.
    """
    part = x.frame - np.matmul(np.matmul(x.frame, frames.transpose(0, 2, 1)), frames)
    shifted = bool(np.any(center != 0.0))
    if shifted:
        _, sines, off = np.linalg.svd(part)
    else:
        sines = np.linalg.svd(part, compute_uv=False)
    shared = sines < SHARED_DIRECTION_TOL
    degenerate = np.any(~shared & (sines < SHARED_GRAY_TOL), axis=1)
    values = _sphere_chi(np.count_nonzero(shared, axis=1)).astype(float)
    if shifted:
        meets = _flats_meet_subspace(frames, center, off[:, :x.frame.shape[0]], shared)
        values = np.where(meets, values, 0.0)
    return values, degenerate


# ------------------------------------------------------------------ conic case

def _graph_sections(graph, frames: np.ndarray):
    """graph ∩ E_H for a stack of proper planes H, frames of shape (m, k, n).

    Returns masks of the vertices (m, V) and the arcs (m, E) that lie in each
    plane, a mask of the arcs that cross it transversally (m, E), and a mask
    of the planes in a degenerate position: a
    vertex in the gray band, or an arc that lies in the plane numerically,
    grazes it, or meets it at an endpoint outside it.  Every test runs over
    all planes and arcs at once.
    """
    verts = graph.vertices
    normals = _normal_bases(frames)
    proj = np.matmul(verts, normals.transpose(0, 2, 1))  # (m, V, n-k)
    dist = np.linalg.norm(proj, axis=2)
    verts_in = dist < VERTEX_IN_TOL
    degenerate = np.any(~verts_in & (dist < VERTEX_GRAY_TOL), axis=1)
    ends = np.array(graph.edges, dtype=int).reshape(-1, 2)
    i, j = ends[:, 0], ends[:, 1]
    edges_in = verts_in[:, i] & verts_in[:, j]
    theta = np.array([graph.arc_angle(e) for e in range(graph.n_edges)])
    # the normal components of the arc at angle u from v_i are
    # a cos(u) + b sin(u); the crossing solves it for the largest component
    a = proj[:, i, :]
    b = (proj[:, j, :] - a * np.cos(theta)[:, None]) / np.sin(theta)[:, None]
    amp = np.hypot(a, b)
    pick = (np.arange(len(frames))[:, None], np.arange(len(ends)), np.argmax(amp, axis=2))
    # an arc whose amplitude vanishes would lie in the plane, but then both
    # endpoints would have been inside already
    flat = amp[pick] < 1e-12
    u0 = np.arctan2(-a[pick], b[pick]) % np.pi
    points = (np.sin(theta - u0)[:, :, None] * verts[i] + np.sin(u0)[:, :, None] * verts[j]) \
        / np.sin(theta)[:, None]
    residual = np.linalg.norm(np.matmul(points, normals.transpose(0, 2, 1)), axis=2)
    near = ~edges_in & ~flat & (0.0 < u0) & (u0 < theta) & (residual < CROSSING_GRAY_TOL)
    hit = near & (residual < CROSSING_RESIDUAL_TOL)
    at_end = (u0 < ENDPOINT_MARGIN * theta) | (u0 > theta * (1.0 - ENDPOINT_MARGIN))
    # a crossing at an endpoint inside the plane is that vertex, already
    # counted; at an endpoint outside it the count is not decided
    end_in = np.where(u0 < 0.5 * theta, verts_in[:, i], verts_in[:, j])
    grazing = near & ~hit
    degenerate |= np.any((~edges_in & flat) | grazing | (hit & at_end & ~end_in), axis=1)
    return verts_in, edges_in, hit & ~at_end, degenerate


def _conic_section_links(x: ConicGraph, frames: np.ndarray,
                         center: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    graph = x.graph
    if not np.any(center != 0.0):
        # conic sets have radius-independent links: chi(X ∩ H ∩ S_R) is the
        # combinatorial chi of graph ∩ E_H at any radius
        verts_in, edges_in, crossing, degenerate = _graph_sections(graph, frames)
        counts = (np.count_nonzero(verts_in, axis=1) - np.count_nonzero(edges_in, axis=1)
                  + np.count_nonzero(crossing, axis=1))
        return counts.astype(float), degenerate
    _require_rays(graph)
    normals = _normal_bases(frames)
    ray_in = np.linalg.norm(np.matmul(graph.vertices, normals.transpose(0, 2, 1)), axis=2) < 1e-12
    center_in = np.linalg.norm(normals @ center, axis=1) < 1e-12
    # rays meet an affine flat in at most finitely many points unless one lies
    # in it, so the section is bounded and its link at infinity is empty
    return np.zeros(frames.shape[0]), np.any(ray_in, axis=1) & center_in


def _require_rays(graph) -> None:
    if graph.n_edges:
        raise UnsupportedSection(
            "links of translated cones with two-dimensional sectors are not supported"
        )


# ------------------------------------------------------------------ smooth case

def _restricted_leading_form(p: Poly, frames: np.ndarray) -> np.ndarray:
    """Coefficients of the leading form of ``p`` restricted to planes.

    For frames of shape (m, 2, n) with rows u and v, row i of the result
    holds c_j, j = 0..d, with P_d(s1*u + s2*v) = sum_j c_j s1^(d-j) s2^j.
    """
    d = p.degree()
    m = frames.shape[0]
    u, v = frames[:, 0, :], frames[:, 1, :]
    out = np.zeros((m, d + 1))
    for exps, coeff in p.leading_form().terms.items():
        form = np.full((m, 1), coeff)
        for j, e in enumerate(exps):
            for _ in range(e):
                grown = np.zeros((m, form.shape[1] + 1))
                grown[:, :-1] = form * u[:, j, None]
                grown[:, 1:] += form * v[:, j, None]
                form = grown
        out += form
    return out


def _cayley_matrix(d: int) -> np.ndarray:
    """Row j: ascending coefficients of (w+1)^(d-j) (w-1)^j (-i)^j.

    With s1 = cos(phi), s2 = sin(phi) and w = exp(2i phi), the binary form
    sum_j c_j s1^(d-j) s2^j times (2 exp(i phi))^d is the polynomial c @ M in
    w, so the real roots of the form on P^1 are its roots on the unit circle.
    """
    rows = []
    for j in range(d + 1):
        poly = np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polypow([1.0, 1.0], d - j),
            np.polynomial.polynomial.polypow([-1.0, 1.0], j),
        )
        rows.append((-1j) ** j * poly)
    return np.array(rows)


def _real_root_counts(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Real roots on P^1 of binary forms of degree d >= 3, with a gray band."""
    m, d = coeffs.shape[0], coeffs.shape[1] - 1
    scale = np.max(np.abs(coeffs), axis=1)
    degenerate = scale == 0.0
    poly = (coeffs / np.where(degenerate, 1.0, scale)[:, None]) @ _cayley_matrix(d)
    lead = poly[:, d]
    # |lead| is the size of the form at s = (1, -i); a tiny one puts a root
    # of w near infinity, where the companion matrix is ill-posed
    degenerate |= np.abs(lead) <= FORM_ROOT_TOL * np.max(np.abs(poly), axis=1)
    companion = np.zeros((m, d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -poly[:, :d] / np.where(degenerate, 1.0, lead)[:, None]
    roots = np.linalg.eigvals(companion)
    off_circle = np.abs(np.abs(roots) - 1.0)
    real = off_circle <= FORM_ROOT_TOL
    degenerate |= np.any(~real & (off_circle < FORM_ROOT_GRAY_TOL), axis=1)
    gaps = np.abs(roots[:, :, None] - roots[:, None, :])
    close = real[:, :, None] & real[:, None, :] & (gaps < FORM_ROOT_GRAY_TOL)
    close[:, np.arange(d), np.arange(d)] = False
    degenerate |= np.any(close, axis=(1, 2))
    return np.count_nonzero(real, axis=1), degenerate


def _implicit_end_counts(p: Poly, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ends of the plane curves {p = 0} ∩ (center + plane) for frames (m, 2, n).

    Returns the end counts and a mask of the planes where the count is not
    decided: a parabolic quadratic leading form, a restricted leading form
    that vanishes, or a real root of it that is multiple or in the gray band.
    """
    m = frames.shape[0]
    d = p.degree()
    if d <= 0:
        return np.zeros(m), np.ones(m, dtype=bool)
    coeffs = _restricted_leading_form(p, frames)
    if d == 1:
        return np.full(m, 2.0), np.all(coeffs == 0.0, axis=1)
    if d == 2:
        det = coeffs[:, 0] * coeffs[:, 2] - 0.25 * coeffs[:, 1] ** 2
        scale = np.sum(np.abs(coeffs), axis=1) ** 2
        degenerate = np.abs(det) <= PARABOLIC_DET_TOL * np.maximum(scale, 1e-300)
        return np.where(det < 0.0, 4.0, 0.0), degenerate
    roots, degenerate = _real_root_counts(coeffs)
    return 2.0 * roots, degenerate


def _smooth_section_ends(x: SmoothSet, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Link chis of smooth sections by proper planes, batched over frames."""
    m, k, n = frames.shape
    section_dim = x.dim + k - n
    if x.compact or section_dim <= 0:
        # compact sections, and zero-dimensional semi-algebraic ones (finite
        # sets), are bounded: their links at infinity are empty
        return np.zeros(m), np.zeros(m, dtype=bool)
    if section_dim == 1 and x.implicit is not None and k == 2:
        return _implicit_end_counts(x.implicit, frames)
    raise UnsupportedSection(
        f"sections of dimension {section_dim} of smooth sets are not supported"
    )


def full_space_link(x: SetDescriptor, center=None) -> int:
    """Link chi at infinity of X itself, on spheres around the center (the
    origin when not given)."""
    center = _center_vector(x.ambient_dim, center)
    if isinstance(x, LinearSubspace):
        return _sphere_chi(x.dim)
    if isinstance(x, ConicGraph):
        if np.any(center != 0.0):
            # off the origin only edge-free cones are supported; each of
            # their rays leaves every large sphere around the center once
            _require_rays(x.graph)
        return x.graph.euler_characteristic()
    if isinstance(x, SmoothSet):
        if x.compact or x.dim % 2 == 0:
            # a compact set has an empty link; that of a smooth set of even
            # dimension is a compact odd-dimensional manifold, with chi 0
            return 0
        if x.dim == 1:
            # a nonconstant polynomial curve is proper, with two ends; on a
            # bounded parameter domain it stays inside every large sphere
            return 2 if x.chart.base_domain is None else 0
        raise UnsupportedSection("full-space links need even dimension or a curve")
    raise TypeError(f"not a set descriptor: {x!r}")


def _section_links(x: SetDescriptor, frames: np.ndarray,
                   center: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Link chis and degenerate mask of X ∩ (center + H) for proper planes H."""
    if isinstance(x, LinearSubspace):
        return _linear_section_links(x, frames, center)
    if isinstance(x, ConicGraph):
        return _conic_section_links(x, frames, center)
    if isinstance(x, SmoothSet):
        return _smooth_section_ends(x, frames)
    raise TypeError(f"not a set descriptor: {x!r}")


# ----------------------------------------------------------------------- public

# The benchmark's tracing wraps these two by name: it counts the calls of
# ``link_infinity_chi`` and reads ``.stable`` and ``.radius_used`` of its result,
# and its probe averages ``link_chi`` with ``grassmann_mean``.

def link_infinity_chi(x: SetDescriptor, subspace: Subspace, center=None) -> LinkSection:
    """Euler characteristic of the link at infinity of X ∩ (center + H).

    The link is taken on spheres around the center (the origin when not
    given); this is :func:`link_chi_batch` on a stack of one plane.  Raises
    :class:`DegenerateSample` on measure-zero configurations and
    :class:`UnsupportedSection` outside the supported representations.
    """
    n = x.ambient_dim
    if subspace.n != n:
        raise ValueError("subspace lives in a different ambient space")
    values, degenerate = link_chi_batch(x, subspace.frame[None], center)
    if degenerate[0]:
        raise DegenerateSample("the plane meets the set in a degenerate position")
    return LinkSection(int(values[0]), BASE_RADIUS_FACTOR * coefficient_scale(x), True)


def link_chi(x: SetDescriptor, subspace: Subspace, center=None) -> int:
    """Link Euler characteristic at infinity of X ∩ (center + H)."""
    return link_infinity_chi(x, subspace, center).chi


def link_chi_batch(x: SetDescriptor, frames, center=None) -> Tuple[np.ndarray, np.ndarray]:
    """Stable link chis of X ∩ (center + H) for a stack of planes H.

    ``frames`` has shape (m, k, n) with orthonormal rows.  Returns the values
    and a mask of the planes in a degenerate position, where the count is not
    decided.  Every set kind is counted for the whole stack at once.
    """
    frames = np.asarray(frames, dtype=float)
    m, k, n = frames.shape
    if n != x.ambient_dim:
        raise ValueError("frames live in a different ambient space")
    center = _center_vector(n, center)
    if k == n:
        # every frame spans the whole space, so one link serves the stack
        return np.full(m, float(full_space_link(x, center))), np.zeros(m, dtype=bool)
    return _section_links(x, frames, center)
