"""Topological oracles: Euler characteristics, sections, and links at infinity.

``link_infinity_chi(X, H)`` returns the Euler characteristic of
(X intersect H) intersect S_R for stably large R, optionally with the whole
construction translated to a base point (affine flats through ``center`` and
spheres around it).  ``link_chi_batch`` gives the same stable values for a
stack of planes at once.

Routes.  A one-dimensional implicit section {g = 0} of a smooth set has two
ends for each simple real root on P^1 of its leading form, the restriction
P_d(s @ frame) of the top-degree part of the implicit polynomial: such a root
is a smooth point of the projective closure that crosses the line at
infinity.  The center moves only lower-order terms, so shifted flats use the
same count, and no radius is involved.  Linear and conic links are exact
combinatorial counts.

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
from ..grassmann import Subspace, _gram_schmidt, per_plane
from .polynomial import Poly
from .sets import (
    ConicGraph,
    LinearSubspace,
    SetDescriptor,
    SmoothSet,
    coefficient_scale,
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
        return int(x.declared_chi)
    raise TypeError(f"not a set descriptor: {x!r}")


def _center_vector(n: int, center) -> np.ndarray:
    if center is None:
        return np.zeros(n)
    center = np.asarray(center, dtype=float)
    if center.shape != (n,):
        raise ValueError("center has the wrong dimension")
    return center


# -------------------------------------------------------- subspace intersection

def subspace_intersection(frame_a: np.ndarray, frame_b: np.ndarray) -> Tuple[int, np.ndarray]:
    """Dimension and orthonormal basis of span(a) intersect span(b).

    Raises :class:`DegenerateSample` when a principal angle sits in the gray
    band where shared and non-shared directions cannot be told apart.
    """
    ka, kb = frame_a.shape[0], frame_b.shape[0]
    n = frame_a.shape[1] if ka else frame_b.shape[1]
    if ka == 0 or kb == 0:
        return 0, np.zeros((0, n))
    m = frame_a @ frame_b.T
    u, svals, _ = np.linalg.svd(m)
    svals = np.clip(svals, 0.0, 1.0)
    shared = svals > 1.0 - SHARED_DIRECTION_TOL
    gray = (~shared) & (svals > 1.0 - SHARED_GRAY_TOL)
    if np.any(gray):
        raise DegenerateSample("near-tangential pair of subspaces")
    if not np.any(shared):
        return 0, np.zeros((0, frame_a.shape[1]))
    basis = (u[:, shared].T @ frame_a)
    basis = _gram_schmidt(basis)
    if basis is None:
        raise DegenerateSample("ill-conditioned intersection basis")
    return basis.shape[0], basis


def _flat_meets_subspace(v_frame: np.ndarray, h_frame: np.ndarray, center: np.ndarray) -> bool:
    """Whether the affine flat center + span(h) meets span(v)."""
    stacked = np.vstack([v_frame, h_frame]) if v_frame.size or h_frame.size else np.zeros((0, len(center)))
    if stacked.shape[0] == 0:
        return bool(np.linalg.norm(center) <= 1e-12)
    q, _ = np.linalg.qr(stacked.T)
    residual = center - q @ (q.T @ center)
    return float(np.linalg.norm(residual)) <= 1e-9 * (1.0 + np.linalg.norm(center))


def _sphere_chi(m: int) -> int:
    # chi of S^(m-1); the empty sphere (m = 0) contributes 0
    if m <= 0:
        return 0
    return 1 + (-1) ** (m - 1)


# ------------------------------------------------------------- conic graph case

def _graph_section_data(graph, subspace: Subspace):
    """Vertices, full arcs, and transversal crossing points of graph ∩ E_H."""
    n = graph.ambient_dim
    if subspace.k == n:
        verts_in = list(range(graph.n_vertices))
        edges_in = list(range(graph.n_edges))
        return verts_in, edges_in, []
    normals = subspace.normal_basis()
    proj = graph.vertices @ normals.T  # (V, m)
    dist = np.linalg.norm(proj, axis=1)
    verts_in = [i for i in range(graph.n_vertices) if dist[i] < VERTEX_IN_TOL]
    gray = [i for i in range(graph.n_vertices) if VERTEX_IN_TOL <= dist[i] < VERTEX_GRAY_TOL]
    if gray:
        raise DegenerateSample(f"vertex {gray[0]} sits in the tolerance band of the subspace")
    in_set = set(verts_in)
    edges_in = [e for e, (i, j) in enumerate(graph.edges) if i in in_set and j in in_set]
    crossings = []
    for e, (i, j) in enumerate(graph.edges):
        if i in in_set and j in in_set:
            continue
        theta = graph.arc_angle(e)
        vi, vj = graph.vertices[i], graph.vertices[j]
        a = normals @ vi
        b = normals @ vj
        big_a = a
        big_b = (b - a * np.cos(theta)) / np.sin(theta)
        amp = np.hypot(big_a, big_b)
        src = int(np.argmax(amp))
        if amp[src] < 1e-12:
            # the whole arc would lie in the subspace, but then both endpoints
            # would have been inside already
            raise DegenerateSample(f"arc {e} numerically contained in the subspace")
        u0 = float(np.arctan2(-big_a[src], big_b[src])) % np.pi
        if not (0.0 < u0 < theta):
            continue
        point = (np.sin(theta - u0) * vi + np.sin(u0) * vj) / np.sin(theta)
        residual = float(np.linalg.norm(normals @ point))
        if residual >= CROSSING_GRAY_TOL:
            continue
        if residual >= CROSSING_RESIDUAL_TOL:
            raise DegenerateSample(f"arc {e} grazes the subspace")
        if u0 < ENDPOINT_MARGIN * theta or u0 > theta * (1.0 - ENDPOINT_MARGIN):
            endpoint = i if u0 < 0.5 * theta else j
            if endpoint in in_set:
                continue  # already counted as a vertex of the section
            raise DegenerateSample(f"arc {e} meets the subspace at an endpoint")
        crossings.append(point)
    return verts_in, edges_in, crossings


def _conic_section_chi(graph, subspace: Subspace) -> int:
    verts_in, edges_in, crossings = _graph_section_data(graph, subspace)
    return len(verts_in) - len(edges_in) + len(crossings)


def _conic_link_shifted(x: ConicGraph, subspace: Subspace, center: np.ndarray,
                        r0: float) -> LinkSection:
    graph = x.graph
    if graph.n_edges:
        raise UnsupportedSection(
            "links of translated cones with two-dimensional sectors are not supported"
        )
    dirs = graph.vertices
    n = x.ambient_dim
    if subspace.k == n:
        def count(radius: float) -> int:
            dots = dirs @ center
            disc = dots * dots - float(center @ center) + radius * radius
            total = 0
            for ui, dsc in zip(dots, disc):
                if dsc <= 0.0:
                    continue
                root = np.sqrt(dsc)
                total += int(ui + root > 1e-12) + int(ui - root > 1e-12)
            return total

        radius = r0
        prev = count(radius)
        for _ in range(MAX_DOUBLINGS):
            nxt = count(2.0 * radius)
            if nxt == prev:
                return LinkSection(prev, 2.0 * radius, True)
            prev, radius = nxt, 2.0 * radius
        return LinkSection(prev, radius, False)
    normals = subspace.normal_basis()
    pu = dirs @ normals.T
    pc = normals @ center
    for row in pu:
        if np.linalg.norm(row) < 1e-12 and np.linalg.norm(pc) < 1e-12:
            raise DegenerateSample("ray contained in the affine flat")
    # rays meet an affine flat in at most finitely many points, so the
    # section is bounded and its link at infinity is empty
    return LinkSection(0, r0, True)


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


def _smooth_link(x: SmoothSet, subspace: Subspace, center: np.ndarray, r0: float) -> LinkSection:
    n, d = x.ambient_dim, x.dim
    if subspace.k == n:
        if x.compact:
            return LinkSection(0, r0, True)
        if d % 2 == 0:
            # the link of a smooth set of even dimension is generically a
            # compact odd-dimensional manifold, so its chi vanishes
            return LinkSection(0, r0, True)
        if d == 1:
            radius = r0
            prev = _curve_sphere_count(x, center, radius)
            for _ in range(MAX_DOUBLINGS):
                nxt = _curve_sphere_count(x, center, 2.0 * radius)
                if nxt == prev:
                    return LinkSection(prev, 2.0 * radius, True)
                prev, radius = nxt, 2.0 * radius
            return LinkSection(prev, radius, False)
        raise UnsupportedSection("full-space links need even dimension or a curve")
    values, degenerate = _smooth_section_ends(x, subspace.frame[None])
    if degenerate[0]:
        raise DegenerateSample("degenerate leading form at infinity")
    return LinkSection(int(values[0]), r0, True)


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
    shifted = bool(np.any(center != 0.0))

    if isinstance(x, LinearSubspace):
        m0, _ = subspace_intersection(x.frame, subspace.frame)
        if shifted:
            if not _flat_meets_subspace(x.frame, subspace.frame, center):
                return LinkSection(0, r0, True)
        return LinkSection(_sphere_chi(m0), r0, True)

    if isinstance(x, ConicGraph):
        if shifted:
            return _conic_link_shifted(x, subspace, center, r0)
        # conic sets have radius-independent links: chi(X ∩ H ∩ S_R) is the
        # combinatorial chi of graph ∩ E_H at any radius
        return LinkSection(_conic_section_chi(x.graph, subspace), r0, True)

    if isinstance(x, SmoothSet):
        return _smooth_link(x, subspace, center, r0)

    raise TypeError(f"not a set descriptor: {x!r}")


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
    :class:`DegenerateSample` or :class:`UnstableLink`.  Smooth sections are
    counted for the whole stack at once; other sets go plane by plane.
    """
    frames = np.asarray(frames, dtype=float)
    _, k, n = frames.shape
    if n != x.ambient_dim:
        raise ValueError("frames live in a different ambient space")
    center = _center_vector(n, center)
    if isinstance(x, SmoothSet) and k < n:
        return _smooth_section_ends(x, frames)
    return per_plane(lambda subspace: link_chi(x, subspace, center))(frames)


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
        verts_in, edges_in, crossings = _graph_section_data(x.graph, subspace)
        points = [x.graph.vertices[i] for i in verts_in] + list(crossings)
        coords = np.array([subspace.frame @ p for p in points]) if points else np.zeros((0, k))
        if coords.shape[0]:
            coords /= np.linalg.norm(coords, axis=1)[:, None]
        index_of = {v: pos for pos, v in enumerate(verts_in)}
        new_edges = tuple(
            (index_of[x.graph.edges[e][0]], index_of[x.graph.edges[e][1]]) for e in edges_in
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
