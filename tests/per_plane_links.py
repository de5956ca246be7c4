"""Per-plane conic and linear link counts: the reference oracle for the stack.

The same counts as the library's stacked route, made one plane at a time:
a graph section found arc by arc with early exits, a principal-angle SVD
per plane, and one least-squares solve per shifted flat.  The tests hold ``link_chi_batch``
against it, value for value and mask for mask.  ``ray_sphere_count`` counts
where the rays of a cone cross one sphere off the origin, the reference for
the library's closed-form full-space link of a translated edge-free cone.
``project`` and ``normal_basis`` are the plane helpers these loops and the
tests use.
"""

from __future__ import annotations

import numpy as np

from lkcurv import DegenerateSample, Subspace, UnsupportedSection
from lkcurv.catalog import ConicGraph, LinearSubspace
from lkcurv.catalog.links import (
    CROSSING_GRAY_TOL,
    CROSSING_RESIDUAL_TOL,
    ENDPOINT_MARGIN,
    SHARED_DIRECTION_TOL,
    SHARED_GRAY_TOL,
    VERTEX_GRAY_TOL,
    VERTEX_IN_TOL,
)


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
        if x.graph.n_edges:
            raise UnsupportedSection("translated cones with two-dimensional sectors")
        normals = normal_basis(subspace)
        pc = normals @ center
        for row in x.graph.vertices @ normals.T:
            if np.linalg.norm(row) < 1e-12 and np.linalg.norm(pc) < 1e-12:
                raise DegenerateSample("ray contained in the affine flat")
        return 0
    raise TypeError(f"no per-plane reference for {x!r}")


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
