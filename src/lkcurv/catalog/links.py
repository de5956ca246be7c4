"""Topological oracles: Euler characteristics, sections, and links at infinity.

``link_infinity_chi(X, H)`` returns the Euler characteristic of
(X intersect H) intersect S_R for stably large R, optionally with the whole
construction translated to a base point (affine flats through ``center`` and
spheres around it).  ``link_chi_batch`` gives the same stable values for a
stack of planes at once.

Routes.  Each set kind has one count for proper planes, made for a whole
stack of planes; ``link_infinity_chi`` and ``section`` run it on a stack of
one.  A one-dimensional implicit section {g = 0} of a smooth set has two
ends for each simple real root on P^1 of its leading form, the restriction
P_d(s @ frame) of the top-degree part of the implicit polynomial: such a root
is a smooth point of the projective closure that crosses the line at
infinity.  The center moves only lower-order terms, so shifted flats use the
same count, and no radius is involved.  Linear and conic links are exact
combinatorial counts: a linear section is a flat whose dimension is the
number of principal angles between the two subspaces that vanish (one SVD
for the stack), and a conic section is the cone over the vertices, arcs and
arc crossings of its spherical graph in the plane (every test runs over all
planes and arcs at once).

Radius policy for the sampled routes (full-space links of curves and of
points of translated cones): start at 8 times the coefficient scale of the
set and double until two consecutive radii agree; give up after six
doublings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import (
    ChiUnknownError,
    DegenerateSample,
    UnstableLink,
    UnsupportedSection,
)
from ..grassmann import Subspace, _gram_schmidt
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
SHARED_DIRECTION_TOL = 1e-10
SHARED_GRAY_TOL = 1e-8
CIRCLE_SAMPLES = 8192
MAX_DOUBLINGS = 6
# a leading-form determinant this small relative to the squared coefficient
# sum is parabolic
PARABOLIC_DET_TOL = 1e-12
# roots of the Cayley-transformed leading form: on the unit circle within the
# first tolerance are real, beyond the second complex, in between degenerate;
# real roots closer than the second tolerance are a multiple root
FORM_ROOT_TOL = 1e-9
FORM_ROOT_GRAY_TOL = 1e-5
BASE_RADIUS_FACTOR = 8.0


@dataclass(frozen=True)
class LinkSection:
    chi: int
    radius_used: float
    stable: bool


def full_space(n: int) -> Subspace:
    return Subspace(n=n, k=n, frame=np.eye(n))


def euler_char(x: SetDescriptor) -> int:
    """Euler characteristic: subspaces and cones are contractible, smooth sets
    must declare theirs."""
    if isinstance(x, (LinearSubspace, ConicGraph)):
        return 1
    if isinstance(x, SmoothSet):
        if x.declared_chi is None:
            raise ChiUnknownError("chi_unknown: smooth set has no declared Euler characteristic")
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

def _shared_directions(frame: np.ndarray, frames: np.ndarray):
    """Principal directions of span(frame) against each plane of a stack.

    Returns ``u`` of shape (m, ka, ka), whose first ``shared[i]`` columns are
    the coordinates in ``frame`` of the directions plane i shares with it,
    the counts ``shared``, and a mask of the planes with a principal angle in
    the gray band where shared and non-shared directions cannot be told apart.
    """
    u, svals, _ = np.linalg.svd(frame @ frames.transpose(0, 2, 1))
    svals = np.clip(svals, 0.0, 1.0)
    shared = svals > 1.0 - SHARED_DIRECTION_TOL
    gray = (~shared) & (svals > 1.0 - SHARED_GRAY_TOL)
    return u, np.count_nonzero(shared, axis=1), np.any(gray, axis=1)


def subspace_intersection(frame_a: np.ndarray, frame_b: np.ndarray) -> Tuple[int, np.ndarray]:
    """Dimension and orthonormal basis of span(a) intersect span(b).

    Raises :class:`DegenerateSample` when a principal angle sits in the gray
    band where shared and non-shared directions cannot be told apart.
    """
    u, shared, degenerate = _shared_directions(frame_a, frame_b[None])
    if degenerate[0]:
        raise DegenerateSample("near-tangential pair of subspaces")
    m0 = int(shared[0])
    if not m0:
        return 0, np.zeros((0, frame_a.shape[1]))
    basis = _gram_schmidt(u[0, :, :m0].T @ frame_a)
    if basis is None:
        raise DegenerateSample("ill-conditioned intersection basis")
    return m0, basis


def _flats_meet_subspace(v_frame: np.ndarray, frames: np.ndarray, center: np.ndarray,
                         u: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Whether each affine flat center + span(frames[i]) meets span(v_frame).

    It does when the part of the center off plane i lies in the part of
    span(v_frame) off it.  With ``u`` and ``shared`` from
    :func:`_shared_directions`, the shared principal directions drop out there
    and the others leave mutually orthogonal vectors of length sin(angle),
    which the gray band keeps away from zero.
    """
    ht = frames.transpose(0, 2, 1)
    off = center - np.matmul(ht, np.matmul(frames, center)[:, :, None])[:, :, 0]
    dirs = np.matmul(u.transpose(0, 2, 1), v_frame)  # (m, ka, n)
    dirs = dirs - np.matmul(np.matmul(dirs, ht), frames)
    dirs /= np.maximum(np.linalg.norm(dirs, axis=2), 1e-300)[:, :, None]
    dirs[np.arange(dirs.shape[1]) < shared[:, None]] = 0.0
    residual = off - np.matmul(np.matmul(dirs, off[:, :, None])[:, :, 0][:, None, :], dirs)[:, 0, :]
    return np.linalg.norm(residual, axis=1) <= 1e-9 * (1.0 + np.linalg.norm(center))


def _sphere_chi(m):
    """chi of S^(m-1), the link of an m-flat: 2 for odd m, 0 for even m (the
    empty sphere of m = 0 included)."""
    return 2 * (m % 2)


def _linear_section_links(x: LinearSubspace, frames: np.ndarray,
                          center: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    u, shared, degenerate = _shared_directions(x.frame, frames)
    values = _sphere_chi(shared).astype(float)
    if np.any(center != 0.0):
        values = np.where(_flats_meet_subspace(x.frame, frames, center, u, shared), values, 0.0)
    return values, degenerate


# ------------------------------------------------------------------ conic case

def _graph_sections(graph, frames: np.ndarray):
    """graph ∩ E_H for a stack of proper planes H, frames of shape (m, k, n).

    Returns masks of the vertices (m, V) and the arcs (m, E) that lie in each
    plane, a mask of the arcs that cross it transversally (m, E), the crossing
    points (m, E, n), and a mask of the planes in a degenerate position: a
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
    return verts_in, edges_in, hit & ~at_end, points, degenerate


def _conic_section_links(x: ConicGraph, frames: np.ndarray,
                         center: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    graph = x.graph
    if not np.any(center != 0.0):
        # conic sets have radius-independent links: chi(X ∩ H ∩ S_R) is the
        # combinatorial chi of graph ∩ E_H at any radius
        verts_in, edges_in, crossing, _, degenerate = _graph_sections(graph, frames)
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


def _ray_sphere_count(dirs: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Points where the rays along ``dirs`` cross the sphere around ``center``."""
    dots = dirs @ center
    disc = dots * dots - float(center @ center) + radius * radius
    total = 0
    for ui, dsc in zip(dots, disc):
        if dsc <= 0.0:
            continue
        root = np.sqrt(dsc)
        total += int(ui + root > 1e-12) + int(ui - root > 1e-12)
    return total


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


def _curve_sphere_count(x: SmoothSet, center: np.ndarray, radius: float) -> int:
    if len(x.charts) != 1:
        raise UnsupportedSection("full-space links of multi-chart curves are not supported")
    chart = x.charts[0]
    box = chart.domain_for_ball(1.5 * radius, center)
    if box is None:
        return 0
    ts = np.linspace(box[0, 0], box[0, 1], CIRCLE_SAMPLES)[:, None]
    pts = chart.map_fn(ts)
    vals = np.sum((pts - center[None, :]) ** 2, axis=1) - radius * radius
    if np.any(vals == 0.0):
        raise DegenerateSample("grid point exactly on the sphere")
    return int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))


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


def _radius_ladder(count, r0: float) -> LinkSection:
    """Double the radius from r0 until two consecutive counts agree."""
    radius = r0
    prev = count(radius)
    for _ in range(MAX_DOUBLINGS):
        nxt = count(2.0 * radius)
        if nxt == prev:
            return LinkSection(prev, 2.0 * radius, True)
        prev, radius = nxt, 2.0 * radius
    return LinkSection(prev, radius, False)


def _full_space_link(x: SetDescriptor, center: np.ndarray, r0: float) -> LinkSection:
    """Link at infinity of X itself, on spheres around the center."""
    if isinstance(x, LinearSubspace):
        return LinkSection(_sphere_chi(x.dim), r0, True)
    if isinstance(x, ConicGraph):
        if not np.any(center != 0.0):
            return LinkSection(x.graph.euler_characteristic(), r0, True)
        _require_rays(x.graph)
        return _radius_ladder(lambda radius: _ray_sphere_count(x.graph.vertices, center, radius), r0)
    if isinstance(x, SmoothSet):
        if x.compact:
            return LinkSection(0, r0, True)
        if x.dim % 2 == 0:
            # the link of a smooth set of even dimension is generically a
            # compact odd-dimensional manifold, so its chi vanishes
            return LinkSection(0, r0, True)
        if x.dim == 1:
            return _radius_ladder(lambda radius: _curve_sphere_count(x, center, radius), r0)
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

def link_infinity_chi(x: SetDescriptor, subspace, center=None) -> LinkSection:
    """Euler characteristic of the link at infinity of X ∩ (center + H).

    ``subspace`` may be an :class:`AffineFlat` (as produced by
    ``shift_subspace``), in which case its base point is the center.  The link
    is taken on spheres around the center (the origin when not given).
    Raises :class:`DegenerateSample` on measure-zero configurations and
    :class:`UnsupportedSection` outside the supported representations.
    """
    from ..grassmann import AffineFlat

    if isinstance(subspace, AffineFlat):
        if center is not None:
            raise ValueError("pass either an affine flat or a center, not both")
        center = subspace.base
        subspace = subspace.subspace
    n = x.ambient_dim
    if subspace.n != n:
        raise ValueError("subspace lives in a different ambient space")
    center = _center_vector(n, center)
    r0 = BASE_RADIUS_FACTOR * coefficient_scale(x)
    if subspace.k == n:
        return _full_space_link(x, center, r0)
    values, degenerate = _section_links(x, subspace.frame[None], center)
    if degenerate[0]:
        raise DegenerateSample("the plane meets the set in a degenerate position")
    return LinkSection(int(values[0]), r0, True)


def link_chi(x: SetDescriptor, subspace: Subspace, center=None) -> int:
    """Stable link Euler characteristic; raises when stabilization fails."""
    result = link_infinity_chi(x, subspace, center)
    if not result.stable:
        raise UnstableLink(
            f"link count did not stabilize (last count {result.chi} at R={result.radius_used})"
        )
    return result.chi


def link_chi_batch(x: SetDescriptor, frames, center=None) -> Tuple[np.ndarray, np.ndarray]:
    """Stable link chis of X ∩ (center + H) for a stack of planes H.

    ``frames`` has shape (m, k, n) with orthonormal rows.  Returns the values
    and a mask of the planes on which :func:`link_chi` would raise
    :class:`DegenerateSample` or :class:`UnstableLink`.  Every set kind is
    counted for the whole stack at once; :func:`link_infinity_chi` is the same
    count for a stack of one plane.
    """
    frames = np.asarray(frames, dtype=float)
    m, k, n = frames.shape
    if n != x.ambient_dim:
        raise ValueError("frames live in a different ambient space")
    center = _center_vector(n, center)
    if k == n:
        # every frame spans the whole space, so one link serves the stack
        try:
            chi = link_chi(x, full_space(n), center)
        except (DegenerateSample, UnstableLink):
            return np.zeros(m), np.ones(m, dtype=bool)
        return np.full(m, float(chi)), np.zeros(m, dtype=bool)
    return _section_links(x, frames, center)


def section(x: SetDescriptor, subspace: Subspace) -> SetDescriptor:
    """The section X ∩ H expressed in the frame coordinates of H."""
    n = x.ambient_dim
    if subspace.n != n:
        raise ValueError("subspace lives in a different ambient space")
    k = subspace.k
    if k == n and isinstance(x, (LinearSubspace, ConicGraph, SmoothSet)):
        return x

    if isinstance(x, LinearSubspace):
        m0, basis = subspace_intersection(x.frame, subspace.frame)
        coords = basis @ subspace.frame.T
        coords = _gram_schmidt(coords) if m0 else np.zeros((0, k))
        if coords is None:
            raise DegenerateSample("ill-conditioned section frame")
        return LinearSubspace(k, coords)

    if isinstance(x, ConicGraph):
        verts_in, edges_in, crossing, points, degenerate = (
            part[0] for part in _graph_sections(x.graph, subspace.frame[None])
        )
        if degenerate:
            raise DegenerateSample("the plane meets the graph in a degenerate position")
        coords = np.vstack([x.graph.vertices[verts_in], points[crossing]]) @ subspace.frame.T
        if coords.shape[0]:
            coords /= np.linalg.norm(coords, axis=1)[:, None]
        index_of = np.cumsum(verts_in) - 1
        new_edges = tuple(
            (int(index_of[i]), int(index_of[j]))
            for (i, j), inside in zip(x.graph.edges, edges_in) if inside
        )
        if coords.shape[0] == 2 and not new_edges and np.linalg.norm(coords[0] + coords[1]) < 1e-9:
            # the cone over an antipodal pair is a line through the origin
            return LinearSubspace(k, coords[:1])
        from .graphs import SphericalGraph

        return ConicGraph(k, SphericalGraph(vertices=coords, edges=new_edges))

    if isinstance(x, SmoothSet):
        section_dim = x.dim + k - n
        if section_dim == 1 and x.implicit is not None and k == 2:
            g = x.implicit.compose_affine(np.zeros(n), subspace.frame)
            return SmoothSet(ambient_dim=k, dim=1, charts=(), implicit=g,
                             declared_chi=None, compact=x.compact)
        raise UnsupportedSection(
            "only one-dimensional implicit sections of smooth sets are supported"
        )

    raise TypeError(f"not a set descriptor: {x!r}")
