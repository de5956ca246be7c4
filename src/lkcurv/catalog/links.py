"""Topological oracles: Euler characteristics and links at infinity.

A link at infinity depends only on asymptotic data, the asymptotic cone or
the leading form of a section, so no function here takes a center: for a
plane H transverse to the asymptotic cone C of X, (c + H) ∩ X has the
asymptotic cone H ∩ C at every c.

``generic_link_chi(X, k)`` is the one rule for links that do not vary: the
link of almost every k-plane section, where one link holds.
``full_space_link(X)`` is the link of X itself.  ``link_chi_batch(X,
normals)`` gives chi(X ∩ u^perp ∩ S_R) for stably large R over a stack of
unit normals u: the generic link on every plane where there is one, else a
count per plane.  ``hyperplane_breaks(X)`` says where that count can change
on the normals of a cone or an indefinite quadric of R^3, so that
``grassmann.sliced_mean`` integrates it with one oracle call per cell.
``link_chi`` and ``link_infinity_chi`` run the oracle on one hyperplane given
by a frame; no verify path calls them, and they stay because the
benchmark's probe and tracing look them up by name.

Routes.  A hyperplane section of a cone is the cone over the vertices, arcs
and arc crossings of its spherical graph in u^perp, read off the signs of
``vertices @ u`` for all planes and arcs at once.  A one-dimensional
implicit section {g = 0} of a smooth surface in R^3 has two ends for each
simple real root on P^1 of its leading form, the restriction of the
top-degree part of the implicit polynomial to the plane: such a root is a
smooth point of the projective closure that crosses the line at infinity.
A quadratic form with matrix A gives 4 or 0 by the sign of u^T adj(A) u, the
determinant of its restriction to u^perp; adj(A), its gray band and its
eigen data are derived once per set (``SmoothSet.quadric``), and every rule
here that needs them reads that one derivation.  Only forms of degree 3 or
more are restricted to a frame of u^perp (``hyperplane_frames``); a
restricted form that vanishes at s = (1, -i), as a factor x^2 + y^2 + z^2
makes it do, has a root at infinity of its Cayley polynomial, which is
dropped as not real.  No link depends on a radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt
from typing import Optional, Tuple

import numpy as np

from ..errors import ChiUnknownError, DegenerateSample, UnsupportedSection
from ..grassmann import Subspace, hyperplane_frames
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
ENDPOINT_MARGIN = 1e-9
# a quadratic leading form whose restricted determinant u^T adj(A) u is this
# small relative to the squared coefficient sum of A is parabolic
PARABOLIC_DET_TOL = 1e-12
# roots of the Cayley-transformed leading form: on the unit circle within the
# first tolerance are real, beyond the second complex, in between degenerate;
# real roots closer than the second tolerance are a multiple root
FORM_ROOT_TOL = 1e-9
FORM_ROOT_GRAY_TOL = 1e-5
# vertices this close to antipodal share a great circle, vertices this close
# to a pole put theirs on the equator, and adjugate eigenvalues this close
# (relative) are equal
BREAK_TOL = 1e-12
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


def _sphere_chi(m):
    """chi of S^(m-1), the link of an m-flat: 2 for odd m, 0 for even m (the
    empty sphere of m = 0 included)."""
    return 2 * (m % 2)


# ------------------------------------------------------------------ conic case

def _graph_sections(graph, normals: np.ndarray):
    """graph ∩ u^perp for a stack of unit normals u, shape (m, n).

    Returns masks of the vertices (m, V) and the arcs (m, E) that lie in each
    plane, a mask of the arcs that cross it (m, E), and a mask of the planes
    in a degenerate position: a vertex in the gray band, an arc that lies in
    the plane numerically, or an arc that meets it at an endpoint outside it.
    A great circle meets a plane through the origin transversally or lies in
    it, so a crossing needs no residual test.  Every test runs over all
    planes and arcs at once.
    """
    verts = graph.vertices
    proj = normals @ verts.T  # (m, V)
    dist = np.abs(proj)
    verts_in = dist < VERTEX_IN_TOL
    degenerate = np.any(~verts_in & (dist < VERTEX_GRAY_TOL), axis=1)
    ends = np.array(graph.edges, dtype=int).reshape(-1, 2)
    i, j = ends[:, 0], ends[:, 1]
    edges_in = verts_in[:, i] & verts_in[:, j]
    theta = graph.arc_angles
    # the normal component of the arc at angle t from v_i is a cos(t) + b sin(t)
    a = proj[:, i]
    b = (proj[:, j] - a * np.cos(theta)) / np.sin(theta)
    # an arc whose amplitude vanishes would lie in the plane, but then both
    # endpoints would have been inside already
    flat = np.hypot(a, b) < 1e-12
    t0 = np.arctan2(-a, b) % np.pi
    hit = ~edges_in & ~flat & (0.0 < t0) & (t0 < theta)
    at_end = (t0 < ENDPOINT_MARGIN * theta) | (t0 > theta * (1.0 - ENDPOINT_MARGIN))
    # a crossing at an endpoint inside the plane is that vertex, already
    # counted; at an endpoint outside it the count is not decided
    end_in = np.where(t0 < 0.5 * theta, verts_in[:, i], verts_in[:, j])
    degenerate |= np.any((~edges_in & flat) | (hit & at_end & ~end_in), axis=1)
    return verts_in, edges_in, hit & ~at_end, degenerate


def _conic_section_links(graph, normals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Link chis of hyperplane sections of the cone over ``graph`` through the
    origin: chi(X ∩ H ∩ S_R) is the combinatorial chi of graph ∩ u^perp at
    any radius."""
    verts_in, edges_in, crossing, degenerate = _graph_sections(graph, normals)
    counts = (np.count_nonzero(verts_in, axis=1) - np.count_nonzero(edges_in, axis=1)
              + np.count_nonzero(crossing, axis=1))
    return counts.astype(float), degenerate


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


def _form_roots(poly: np.ndarray) -> np.ndarray:
    """Roots in w of polynomials with ascending coefficients (m, d+1), shape (m, d).

    A top coefficient at or below ``FORM_ROOT_TOL`` of the row's largest is a
    root at w = inf, which is off the unit circle: the form vanishes at
    s = (1, -i), as it does with a factor s1^2 + s2^2.  Dropping it keeps the
    companion matrix of the rest well posed.
    """
    m, d = poly.shape[0], poly.shape[1] - 1
    roots = np.full((m, d), np.inf, dtype=complex)
    if d == 0:
        return roots
    top = np.abs(poly[:, d]) > FORM_ROOT_TOL * np.max(np.abs(poly), axis=1)
    companion = np.zeros((np.count_nonzero(top), d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -poly[top, :d] / poly[top, d, None]
    roots[top] = np.linalg.eigvals(companion)
    roots[~top, :-1] = _form_roots(poly[~top, :d])
    return roots


def _real_root_counts(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Real roots on P^1 of binary forms of degree d >= 3, with a gray band."""
    d = coeffs.shape[1] - 1
    scale = np.max(np.abs(coeffs), axis=1)
    degenerate = scale == 0.0
    poly = (coeffs / np.where(degenerate, 1.0, scale)[:, None]) @ _cayley_matrix(d)
    roots = _form_roots(poly)
    off_circle = np.abs(np.abs(roots) - 1.0)
    real = off_circle <= FORM_ROOT_TOL
    degenerate |= np.any(~real & (off_circle < FORM_ROOT_GRAY_TOL), axis=1)
    on_circle = np.where(real, roots, 0.0)
    gaps = np.abs(on_circle[:, :, None] - on_circle[:, None, :])
    close = real[:, :, None] & real[:, None, :] & (gaps < FORM_ROOT_GRAY_TOL)
    close[:, np.arange(d), np.arange(d)] = False
    degenerate |= np.any(close, axis=(1, 2))
    return np.count_nonzero(real, axis=1), degenerate


@dataclass(frozen=True, eq=False)
class QuadricForm:
    """The leading-form data of a quadric surface of R^3 that the link rules
    read: adj(A) for the matrix A of its quadratic leading form, the
    parabolic gray band (a plane u^perp whose restricted determinant
    u^T adj(A) u is at most the band in size is parabolic), and the
    eigenvalues of adj(A), ascending, with their eigenvectors as columns.
    ``SmoothSet.quadric`` derives it once per set."""

    adj: np.ndarray
    band: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def quadric_form(p: Poly) -> QuadricForm:
    """The ``QuadricForm`` of a polynomial of degree 2 in three variables."""
    a = p.leading_form().quadratic_form_matrix()
    adj = np.cross(a[[1, 2, 0]], a[[2, 0, 1]])  # row i: the cross of the other two rows
    values, vectors = np.linalg.eigh(adj)
    return QuadricForm(adj, PARABOLIC_DET_TOL * np.sum(np.abs(a)) ** 2, values, vectors)


def _implicit_end_counts(x: SmoothSet, normals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ends of the plane curves {p = 0} ∩ u^perp in R^3 for unit normals (m, 3),
    p the implicit form of the surface X.

    Returns the end counts and a mask of the planes where the count is not
    decided: a parabolic quadratic leading form, or a restricted leading form
    of degree 3 or more that vanishes or has a real root that is multiple or
    in the gray band.  Linear forms never get here: a plane is a flat, which
    ``generic_link_chi`` answers.
    """
    m = normals.shape[0]
    p = x.implicit
    d = p.degree()
    if d <= 0:
        return np.zeros(m), np.ones(m, dtype=bool)
    if d == 2:
        quadric = x.quadric
        det = np.sum((normals @ quadric.adj) * normals, axis=1)
        return np.where(det < 0.0, 4.0, 0.0), np.abs(det) <= quadric.band
    roots, degenerate = _real_root_counts(_restricted_leading_form(p, hyperplane_frames(normals)))
    return 2.0 * roots, degenerate


def _smooth_section_ends(x: SmoothSet, normals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Link chis of smooth sections by hyperplanes, batched over unit normals."""
    n = normals.shape[1]
    if x.dim == 2 and n == 3 and x.implicit is not None:
        return _implicit_end_counts(x, normals)
    raise UnsupportedSection(
        f"sections of dimension {x.dim - 1} of smooth sets in R^{n} are not supported"
    )


def _is_flat(x: SetDescriptor) -> bool:
    """Whether X is a flat: a linear subspace, or a smooth set with an
    implicit polynomial of degree 1 or a ``plane`` chart on its whole plane."""
    if isinstance(x, LinearSubspace):
        return True
    if not isinstance(x, SmoothSet):
        return False
    if x.implicit is not None and x.implicit.degree() == 1:
        return True
    return x.chart is not None and x.chart.label == "plane" and not x.compact


def full_space_link(x: SetDescriptor) -> int:
    """Link chi at infinity of X itself: S^(m-1) for an m-flat, chi(graph) =
    V - E for a cone, 0 for a compact or even-dimensional smooth set, and the
    ends of a polynomial curve."""
    if isinstance(x, LinearSubspace):
        return _sphere_chi(x.dim)
    if isinstance(x, ConicGraph):
        return x.graph.euler_characteristic()
    if isinstance(x, SmoothSet):
        if x.compact or x.dim % 2 == 0:
            # a compact set has an empty link; that of a smooth set of even
            # dimension is a compact odd-dimensional manifold, with chi 0
            return 0
        if x.dim == 1 and x.chart is not None:
            # a nonconstant polynomial curve on an unbounded range is proper, with two ends
            return 2
        raise UnsupportedSection("full-space links need even dimension or a curve")
    raise TypeError(f"not a set descriptor: {x!r}")


def generic_link_chi(x: SetDescriptor, k: int) -> Optional[int]:
    """Link chi at infinity of X ∩ H for almost every k-plane H, or None
    when it varies with H.

    A generic section has dimension d + k - n, with d = dim X.  It is
    bounded, with an empty link, when that is at most 0 or X is compact, and
    the section of a d-flat is a flat of that dimension.  A plane u^perp cuts
    a quadric surface of R^3 with 4 ends where u^T adj(A) u < 0 and none where
    it is > 0 (``_implicit_end_counts``), so one value holds almost surely
    when adj(A) is semidefinite beyond the parabolic gray band.  Where adj(A)
    is within the band every plane is parabolic, and there is no value.
    """
    n = x.ambient_dim
    if x.compact or x.dim + k <= n:
        return 0
    if _is_flat(x):
        return _sphere_chi(x.dim + k - n)
    quadric = x.quadric if isinstance(x, SmoothSet) and k == 2 else None
    if quadric is not None:
        low, high, band = quadric.eigenvalues[0], quadric.eigenvalues[-1], quadric.band
        if low >= -band and high > band:
            return 0
        if high <= band and low < -band:
            return 4
    return None


# ------------------------------------------------- where hyperplane links change

@dataclass(frozen=True, eq=False)
class HyperplaneBreaks:
    """Where the hyperplane link count of a set in R^3 can change.

    A hyperplane is read through its unit normal u = (r cos p, r sin p, z) @
    ``basis``, r = sqrt(1 - z^2), on the upper hemisphere 0 <= z <= 1, which
    meets every hyperplane once.  On the height z the count is constant
    between the break longitudes p with cos(m p - psi_j) = a_j + b_j (z/r)^m,
    m = ``order``: 2m of them for each family j whose right side lies in
    [-1, 1].  The families that have break points, and their cyclic order,
    change only at the heights ``cuts``.
    """

    basis: np.ndarray  # (3, 3), rows e1, e2 and the pole
    order: int
    psi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    cuts: np.ndarray

    def longitudes(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Break longitudes at heights z in (0, 1), shape (Z, 2m J), not
        reduced mod 2 pi, and whether each exists there."""
        m = self.order
        c = self.a + self.b * (z / np.sqrt(1.0 - z * z))[:, None] ** m  # (Z, J)
        alpha = np.arccos(np.clip(c, -1.0, 1.0))
        branches = np.stack([self.psi + alpha, self.psi - alpha], axis=-1)[..., None]
        phi = (branches + 2.0 * np.pi * np.arange(m)) / m  # (Z, J, 2, m)
        exists = np.broadcast_to((np.abs(c) <= 1.0)[..., None, None], phi.shape)
        return phi.reshape(len(z), -1), exists.reshape(len(z), -1)


def _cone_breaks(vertices: np.ndarray) -> HyperplaneBreaks:
    """The count of a cone changes where u crosses the great circle v^perp of
    a vertex v: at cos(p - psi) = -v_z z / (rho r), rho = |(v_x, v_y)|.  The
    circle reaches up to the height rho / |v|, and two circles cross at u
    parallel to v_i x v_j."""
    kept: list = []
    for v in vertices:  # v and -v share one circle
        if all(abs(float(v @ w)) < 1.0 - BREAK_TOL for w in kept):
            kept.append(v)
    v = np.array(kept)
    rho = np.hypot(v[:, 0], v[:, 1])
    # the circle of a vertex at the pole is the equator, the hemisphere's edge
    v, rho = v[rho > BREAK_TOL], rho[rho > BREAK_TOL]
    crossings = []
    for (x1, y1, z1), (x2, y2, z2) in combinations(v.tolist(), 2):
        wx, wy, wz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        crossings.append(abs(wz) / sqrt(wx * wx + wy * wy + wz * wz))
    cuts = np.concatenate([rho / np.linalg.norm(v, axis=1), crossings])
    return HyperplaneBreaks(np.eye(3), 1, np.arctan2(v[:, 1], v[:, 0]), np.zeros(len(v)),
                            -v[:, 2] / rho, cuts)


def _quadric_breaks(quadric: QuadricForm) -> Optional[HyperplaneBreaks]:
    """The count of a quadric changes where u^T adj(A) u = 0; None unless
    adj(A) is indefinite beyond the parabolic band.  An indefinite adj(A) =
    det(A) A^-1 has one positive eigenvalue l3 and two negative ones, l1 and
    l2.  In its eigenbasis, with l3 at the pole, the walls are at cos 2p =
    (-2 l3 (z/r)^2 - l1 - l2) / (l1 - l2), with break points between the cuts
    z^2 = l1 / (l1 - l3) and l2 / (l2 - l3)."""
    (l1, l2, l3), vecs, band = quadric.eigenvalues, quadric.eigenvectors, quadric.band
    if not l1 < -band < band < l3:
        return None
    cuts = np.sqrt(np.abs([l1, l2]) / (np.abs([l1, l2]) + abs(l3)))
    if abs(l1 - l2) <= BREAK_TOL * abs(l3):
        # a surface of revolution: the count changes on one height only
        family = np.zeros(0), np.zeros(0), np.zeros(0)
    else:
        family = np.zeros(1), np.array([-(l1 + l2) / (l1 - l2)]), np.array([-2.0 * l3 / (l1 - l2)])
    return HyperplaneBreaks(vecs.T, 2, *family, cuts)


def hyperplane_breaks(x: SetDescriptor) -> Optional[HyperplaneBreaks]:
    """Where the hyperplane link count of X can change, for a cone of R^3 and
    for a quadric surface of R^3 whose adj(A) is indefinite; None for every
    other set, whose varying hyperplane links are drawn."""
    if x.ambient_dim != 3:
        return None
    if isinstance(x, ConicGraph):
        return _cone_breaks(x.graph.vertices)
    if isinstance(x, SmoothSet) and x.quadric is not None:
        return _quadric_breaks(x.quadric)
    return None


# ----------------------------------------------------------------------- public

# The benchmark's tracing wraps these two by name: it counts the calls of
# ``link_infinity_chi`` and reads ``.stable`` and ``.radius_used`` of its result,
# and its probe averages ``link_chi`` with ``grassmann_mean``.

def link_infinity_chi(x: SetDescriptor, subspace: Subspace) -> LinkSection:
    """Euler characteristic of the link at infinity of X ∩ H for a hyperplane H.

    This is :func:`link_chi_batch` on the normal of H, so a link that is
    constant almost everywhere takes that value on every plane.  Raises
    :class:`DegenerateSample` where a varying count is not decided and
    :class:`UnsupportedSection` outside the supported representations.
    """
    n = x.ambient_dim
    if subspace.n != n:
        raise ValueError("subspace lives in a different ambient space")
    if subspace.k != n - 1:
        raise ValueError("link_infinity_chi takes a hyperplane; full_space_link and "
                         "generic_link_chi give the other planes")
    normal = np.linalg.qr(subspace.frame.T, mode="complete")[0][:, -1]
    values, degenerate = link_chi_batch(x, normal[None])
    if degenerate[0]:
        raise DegenerateSample("the plane meets the set in a degenerate position")
    return LinkSection(int(values[0]), BASE_RADIUS_FACTOR * coefficient_scale(x), True)


def link_chi(x: SetDescriptor, subspace: Subspace) -> int:
    """Link Euler characteristic at infinity of X ∩ H for a hyperplane H."""
    return link_infinity_chi(x, subspace).chi


def link_chi_batch(x: SetDescriptor, normals) -> Tuple[np.ndarray, np.ndarray]:
    """Stable link chis of X ∩ u^perp for a stack of unit normals u.

    ``normals`` has shape (m, n).  Returns the values and a mask of the planes
    in a degenerate position, where the count is not decided.  A cone is
    counted on every plane; any other set takes the value of
    :func:`generic_link_chi` on every plane where it has one, so only links
    that vary are counted plane by plane.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[1] != x.ambient_dim:
        raise ValueError("normals live in a different ambient space")
    if isinstance(x, ConicGraph):
        return _conic_section_links(x.graph, normals)
    chi = generic_link_chi(x, x.ambient_dim - 1)
    if chi is not None:
        m = normals.shape[0]
        return np.full(m, float(chi)), np.zeros(m, dtype=bool)
    if isinstance(x, SmoothSet):
        return _smooth_section_ends(x, normals)
    raise TypeError(f"not a set descriptor: {x!r}")
