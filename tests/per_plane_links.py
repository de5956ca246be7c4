"""Per-plane conic and linear link counts: the reference oracle.

The same counts as the library's routes, made one plane at a time for planes
of any dimension: a graph section found arc by arc with early exits, a
principal-angle SVD per plane, and one least-squares solve per shifted flat.
A plane off the origin meets a cone in rays and in the sections of its flat
sectors; ``far_sphere_count`` counts where those leave a far sphere about
the plane's center, with no use of the asymptotic cone.  The tests hold
``link_chi_batch`` against it on hyperplanes of cones through the origin and
off it, value for value, and ``generic_link_chi`` on every plane of a flat
and every lower-dimensional plane of a cone, which the library answers in
closed form.  ``ray_sphere_count`` counts where the rays of a cone cross one
sphere off the origin, the reference for the library's closed-form
full-space link of a cone over points.  ``project`` and ``normal_basis`` are
the plane helpers these loops and the tests use.
"""

from __future__ import annotations

import numpy as np

from lkcurv import DegenerateSample, Subspace
from lkcurv.catalog import ConicGraph, LinearSubspace
from lkcurv.catalog.links import ENDPOINT_MARGIN, VERTEX_GRAY_TOL, VERTEX_IN_TOL

# a crossing of an arc with a plane of codimension 2 or more can graze it:
# its residual off the plane decides below the first tolerance and is in the
# gray band below the second
CROSSING_RESIDUAL_TOL = 1e-8
CROSSING_GRAY_TOL = 1e-5
# sines of the principal angles between a flat and a plane: below the first
# the direction is shared, below the second it is in the gray band
SHARED_DIRECTION_TOL = 1e-10
SHARED_GRAY_TOL = 1e-8
# the sphere on which a translated cone's section is counted
FAR_RADIUS = 1.0e8


def project(subspace: Subspace, x) -> np.ndarray:
    """Orthogonal projection of ambient points onto the subspace."""
    x = np.asarray(x, dtype=float)
    return (x @ subspace.frame.T) @ subspace.frame


def normal_basis(subspace: Subspace) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement, shape (n-k, n)."""
    if subspace.k == subspace.n:
        return np.zeros((0, subspace.n))
    q, _ = np.linalg.qr(subspace.frame.T, mode="complete")
    return q[:, subspace.k:].T


def graph_section_data(graph, subspace: Subspace):
    """Vertices, full arcs, and transversal crossing points of graph ∩ E_H."""
    n = graph.ambient_dim
    if subspace.k == n:
        return list(range(graph.n_vertices)), list(range(graph.n_edges)), []
    normals = normal_basis(subspace)
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


def shared_dimension(frame_a: np.ndarray, frame_b: np.ndarray) -> int:
    """Dimension of span(a) ∩ span(b) from the sines of the principal angles
    (one SVD of the part of span(a) off span(b)), with the gray band."""
    if frame_a.shape[0] == 0 or frame_b.shape[0] == 0:
        return 0
    sines = np.linalg.svd(frame_a - (frame_a @ frame_b.T) @ frame_b, compute_uv=False)
    shared = sines < SHARED_DIRECTION_TOL
    if np.any(~shared & (sines < SHARED_GRAY_TOL)):
        raise DegenerateSample("near-tangential pair of subspaces")
    return int(np.count_nonzero(shared))


def flat_meets_subspace(v_frame: np.ndarray, h_frame: np.ndarray, center: np.ndarray) -> bool:
    """Whether the affine flat center + span(h) meets span(v).

    A least-squares solve that drops the directions the two share: its
    residual is the distance from the center to span(v) + span(h).  Unit
    vectors v and h at angle theta leave the singular values sqrt(1 +- cos
    theta), the smaller about theta / sqrt(2): below 7.1e-11 for a shared
    direction (theta < SHARED_DIRECTION_TOL), above 7.1e-9 for any other one
    (theta > SHARED_GRAY_TOL), against a largest singular value between 1 and
    sqrt(2).  The cut lies between.
    """
    stacked = np.vstack([v_frame, h_frame]).T
    coeffs = np.linalg.lstsq(stacked, center, rcond=1e-9)[0]
    residual = center - stacked @ coeffs
    return float(np.linalg.norm(residual)) <= 1e-9 * (1.0 + np.linalg.norm(center))


def reference_link(x, frame: np.ndarray, center: np.ndarray) -> int:
    """Link chi of X ∩ (center + span(frame)) for a proper plane, one plane at a time."""
    k, n = frame.shape
    subspace = Subspace(n, k, frame)
    shifted = bool(np.any(center != 0.0))
    if isinstance(x, LinearSubspace):
        m0 = shared_dimension(x.frame, frame)
        if shifted and not flat_meets_subspace(x.frame, frame, center):
            return 0
        return 0 if m0 <= 0 else 1 + (-1) ** (m0 - 1)
    if isinstance(x, ConicGraph):
        if not shifted:
            verts_in, edges_in, crossings = graph_section_data(x.graph, subspace)
            return len(verts_in) - len(edges_in) + len(crossings)
        return far_sphere_count(x.graph, normal_basis(subspace), center, FAR_RADIUS)
    raise TypeError(f"no per-plane reference for {x!r}")


def far_sphere_count(graph, normals: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Points of cone(graph) ∩ (center + P) on the sphere |p - center| = radius,
    for the plane P with orthonormal normal rows ``normals``.

    A ray meets center + P in at most a point, unless it is parallel to P.
    The sector over the arc from v_i to v_j is {a v_i + b v_j : a, b >= 0};
    where P has codimension 2 or more it meets the sector in at most a point,
    and a hyperplane u^perp meets it where a (v_i . u) + b (v_j . u) = c . u:
    a line of the (a, b) plane, whose part in the quadrant is a segment, a ray
    or empty.  Its points on the sphere are the roots t of |p0 + t d - c|^2 =
    R^2 along the line, kept where a > 0 and b > 0.  Sectors meet only along
    rays, so each point is counted once.  Raises :class:`DegenerateSample`
    for a ray nearly parallel to P, a sector with a direction nearly in P, or
    a bounded part of the section that reaches out to the sphere.
    """
    verts = graph.vertices
    nv = verts @ normals.T
    if np.any(np.linalg.norm(nv, axis=1) < VERTEX_GRAY_TOL):
        raise DegenerateSample("a ray of the cone is nearly parallel to the plane")
    q = float((normals @ center)[0])
    total = 0
    for i, j in graph.edges:
        if normals.shape[0] > 1:
            sines = np.linalg.svd(nv[[i, j]].T, compute_uv=False)
            if sines[1] < SHARED_GRAY_TOL:
                raise DegenerateSample("a sector has a direction nearly in the plane")
            continue
        pi, pj = float(nv[i, 0]), float(nv[j, 0])
        if max(abs(q / pi), abs(q / pj)) > 1e-3 * radius:
            raise DegenerateSample("the section of a sector reaches out to the sphere")
        s = pi * pi + pj * pj
        a0, b0 = q * pi / s, q * pj / s
        p0 = a0 * verts[i] + b0 * verts[j] - center
        d = pj * verts[i] - pi * verts[j]
        qa, qb, qc = float(d @ d), 2.0 * float(p0 @ d), float(p0 @ p0) - radius * radius
        root = np.sqrt(qb * qb - 4.0 * qa * qc)
        for t in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)):
            total += int(a0 + t * pj > 0.0 and b0 - t * pi > 0.0)
    return total


def ray_sphere_count(dirs: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Points where the rays t * dirs[i], t > 0, cross the sphere |p - center| = radius.

    Each ray meets it at the positive roots of t^2 - 2 t <u, c> + |c|^2 - R^2.
    """
    dots = dirs @ center
    disc = dots * dots - float(center @ center) + radius * radius
    total = 0
    for ui, dsc in zip(dots, disc):
        if dsc <= 0.0:
            continue
        root = np.sqrt(dsc)
        total += int(ui + root > 1e-12) + int(ui - root > 1e-12)
    return total
