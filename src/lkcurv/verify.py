"""Identity harness: assembles both sides of each curvature identity.

``CHECKS`` maps each theorem id (the CLI contract) to a ``check(x, ctx)``
that returns the report rows:

* ``prop3.1``          -- conic sets: normalized curvature measures of the unit
                          ball against signed half-means of section link chis.
* ``thm3.7``/``cor3.8`` -- growth limits of normalized curvature measures
                          against the same Grassmannian combinations.
* ``du_lambda0``       -- the order-0 curvature of the whole set: defect
                          formula route against the direct density route.
* ``thm3.9``           -- chi(X) = order-0 curvature + sum of growth limits.
* ``thm4.1``..``thm4.3``, ``odd_d_corollary`` -- smooth-set reformulations.
* ``base_point``       -- the thm3.9 assembly recentered at a base point.

``run_theorem`` validates the settings into one frozen ``RunContext``, times
the check and builds the report.  Every check reads its sample count, seed,
radius schedule from the context.  Radius balls are centered at the origin
in every run except inside the ``base_point`` check, which runs the thm3.9
check once at the origin and once recentered at the context's base point;
only the curvature side takes the center, since a link at infinity does not
depend on it, and no other theorem accepts a base point.

The growth identities (``prop3.1``, ``thm3.7``, ``cor3.8``, ``thm4.1``,
``thm4.2``) share one row loop, ``_growth_rows``; ``limits`` decides each left
side and its route label per set kind (``curvature_measures``,
``LimitEstimate.route``).  Every row labels how each side was computed, so the
non-circularity contract (curvature/cubature routes on the left, Grassmannian
means only on the right) is auditable from the report alone.  Every
Grassmannian mean of link chis goes through ``_link_mean``.  Where almost every plane
gives the same link (``generic_link_chi``: the set is compact, dim X + k <= n,
X is a flat, or X is a quadric surface whose hyperplane sections have one
shape almost surely) the term is that link, labelled
``exact(generic_section)``: the Grassmannian mean evaluated exactly from the
generic section, with no curvature in it.  Every other term is over
hyperplanes.  On a cone of R^3, or a quadric surface of R^3 whose hyperplane
links vary, it is ``sliced_quadrature(...)``: the Haar integral of the
oracle's link count over cells whose walls ``hyperplane_breaks`` gives,
with a quadrature error bound for its uncertainty and nothing drawn.  Only
the rest, hyperplanes of R^n for n >= 4 and of R^3 surfaces whose leading
form has degree 3 or more, are Haar means over drawn normals
(``grassmann_mc(...)``), the only terms that ``--samples`` and ``--seed``
move.  A drawn term takes all its normals, in order, from one Philox stream
keyed by the seed and the term's ``stream`` index, (k << 4) | position, so
no two terms of a run share a normal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import hypot, sqrt
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .catalog.links import (
    euler_char, full_space_link, generic_link_chi, hyperplane_breaks, link_chi_batch,
)
from .catalog.sets import ConicGraph, LinearSubspace, SetDescriptor, SmoothSet
from .errors import UnsupportedSection
from .geomconst import ball_volume
from .grassmann import grassmann_mean_batch, sliced_mean
from .limits import (
    DEFAULT_RADII, LimitEstimate, curvature_measures, schedule_limits, validate_radii,
)
from .report import TheoremReport, TheoremRow, make_row, skipped_row

DEFAULT_SAMPLES = 4000
DEFAULT_SEED = 42


@dataclass(frozen=True)
class RunContext:
    """Validated settings shared by every check of one run; ``base_point`` is
    the point the ``base_point`` check recenters at."""

    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    radii: Tuple[float, ...] = DEFAULT_RADII
    base_point: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError("n_samples must be at least 100")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        object.__setattr__(self, "radii", tuple(validate_radii(self.radii)))

    def limits(self, x: SetDescriptor, ks, center=None) -> List[LimitEstimate]:
        """Growth limits of the normalized curvature measures of x of the
        orders ks, on one cubature per radius of the validated schedule, with
        balls about ``center`` (None, or zero, for the origin)."""
        return schedule_limits(x, ks, self.radii, center=center)

    def limit(self, x: SetDescriptor, k: int) -> LimitEstimate:
        """Growth limit of the normalized order-k curvature measure of x."""
        return self.limits(x, (k,))[0]


Rows = List[TheoremRow]


def _link_mean(
    x: SetDescriptor, plane_dim: int, ctx: RunContext, stream: int
) -> Tuple[float, float, str]:
    """Haar mean of chi(link at infinity of X ∩ plane) over planes of a
    dimension, with its uncertainty and route label.

    The whole space has one link; where almost every plane gives the same
    link (``generic_link_chi``) that link is the mean, exactly.  Otherwise
    the planes are hyperplanes.  Where the links of R^3 change only on known
    walls (``hyperplane_breaks``: cones and indefinite quadrics) the mean is
    the sliced quadrature of ``grassmann.sliced_mean``, with its error bound
    and no draws; elsewhere it is estimated over Haar normals.
    """
    if plane_dim == x.ambient_dim:
        return float(full_space_link(x)), 0.0, "exact(full_space_link)"
    chi = generic_link_chi(x, plane_dim)
    if chi is not None:
        return float(chi), 0.0, "exact(generic_section)"
    if plane_dim != x.ambient_dim - 1:
        raise UnsupportedSection(f"links of {plane_dim}-plane sections vary and are not drawn")
    oracle = partial(link_chi_batch, x)
    breaks = hyperplane_breaks(x)
    if breaks is not None:
        sliced = sliced_mean(oracle, breaks)
        return sliced.mean, sliced.bound, (
            f"sliced_quadrature(planes={plane_dim},panels={sliced.panels},cells={sliced.cells})")
    est = grassmann_mean_batch(x.ambient_dim, oracle, n_samples=ctx.n_samples, seed=ctx.seed,
                               stream=stream)
    return est.mean, est.stderr, f"grassmann_mc(planes={plane_dim},n={est.n_samples})"


def _growth_rhs(
    x: SetDescriptor, k: int, ctx: RunContext, section_chi: bool = False
) -> Tuple[float, float, str]:
    """Grassmannian side of the order-k growth identity,
    0.5*E[chi|dim n-k+1] - 0.5*E[chi|dim n-k-1], dropping planes of dimension < 1.

    With ``section_chi`` the means are of chi(X ∩ H) (evaluated as half a link
    chi on proper planes and as the declared chi on the whole space), which is
    the smooth reformulation; otherwise they are half-means of link chis.
    """
    n = x.ambient_dim

    def term(plane_dim: int, stream: int) -> Tuple[float, float, str]:
        if section_chi and plane_dim == n:
            return float(euler_char(x)), 0.0, "exact(declared_chi)"
        mean, err, route = _link_mean(x, plane_dim, ctx, stream)
        return 0.5 * mean, 0.5 * err, route

    dims = [dim for dim in (n - k - 1, n - k + 1) if dim >= 1]
    terms = [term(dim, (k << 4) | (i + 1)) for i, dim in enumerate(dims)]
    values, errors, routes = zip(*terms)
    labels = " - ".join(f"0.5*E[chi|dim{dim}]" for dim in reversed(dims))
    return (
        values[-1] - sum(values[:-1]),
        hypot(*errors),
        f"{labels}:{';'.join(reversed(routes))}",
    )


def _assembly_row(chi: int, parts, ests: List[LimitEstimate], route_prefix: str) -> TheoremRow:
    """chi(X) against the sum of ``parts``, (value, uncertainty, label)
    triples, and of the growth limits ``ests``."""
    parts = parts + [(est.value, est.uncertainty, f"k{est.k}") for est in ests]
    values, errs, _ = zip(*parts)
    pieces = "+".join(f"{label}={value:.6g}" for value, _, label in parts)
    return make_row(
        0, float(chi), float(np.sum(values)), sqrt(float(np.sum(np.square(errs)))),
        "euler_char", route_prefix + pieces,
    )


def _require_smooth(x: SetDescriptor) -> None:
    if not isinstance(x, (SmoothSet, LinearSubspace)):
        raise UnsupportedSection("smooth theorems apply to smooth submanifolds")


# ------------------------------------------------------ growth identity rows

def _growth_rows(x: SetDescriptor, ctx: RunContext, ks, lhs, section_chi: bool = False) -> Rows:
    """One row per order k in ks: ``lhs(x, k, ctx)``, a (value, uncertainty,
    route) triple, against the Grassmannian side of the growth identity."""
    rows = []
    for k in ks:
        try:
            value, err, route = lhs(x, k, ctx)
        except UnsupportedSection as exc:
            rows.append(skipped_row(k, "limit", "grassmann", str(exc)))
            continue
        try:
            rhs, rhs_err, rhs_route = _growth_rhs(x, k, ctx, section_chi=section_chi)
        except UnsupportedSection as exc:
            rows.append(skipped_row(k, route, "grassmann", str(exc)))
            continue
        rows.append(make_row(k, value, rhs, hypot(err, rhs_err), route, rhs_route))
    return rows


def _limit_lhs(x: SetDescriptor, k: int, ctx: RunContext) -> Tuple[float, float, str]:
    est = ctx.limit(x, k)
    return est.value, est.uncertainty, est.route


def _check_prop_3_1(x: SetDescriptor, ctx: RunContext) -> Rows:
    """Conic sets: Lambda_k(X ∩ B_1)/b_k against Grassmannian half-means."""
    if not isinstance(x, (ConicGraph, LinearSubspace)):
        raise UnsupportedSection("prop3.1 applies to conic sets only")
    route = "linear_exact" if isinstance(x, LinearSubspace) else "conic_trace_curvature"

    def lhs(x, k, ctx):
        (value, err), = curvature_measures(x, (k,), 1.0)
        bk = ball_volume(k)
        return value / bk, err / bk, route

    return _growth_rows(x, ctx, range(1, x.ambient_dim + 1), lhs)


def _check_limits(x: SetDescriptor, ctx: RunContext) -> Rows:
    """thm3.7 and cor3.8: growth limits against half-means of link chis."""
    return _growth_rows(x, ctx, range(1, x.ambient_dim + 1), _limit_lhs)


# ------------------------------------------------------------- order-0 routes

@dataclass
class Lambda0Result:
    chi: int
    chi_link: float
    hyperplane_mean: float
    # route label of ``hyperplane_mean``, as ``_link_mean`` gives it
    hyperplane_route: str
    value: float
    stderr: float
    direct: Optional[Tuple[float, float]]


def lambda0(x: SetDescriptor, ctx: RunContext) -> Lambda0Result:
    """Order-0 curvature of the whole set by the link-defect formula,
    plus the direct density route when the set is smooth or flat."""
    n = x.ambient_dim
    chi = euler_char(x)
    chi_link = float(full_space_link(x))
    mean, err, route = _link_mean(x, n - 1, ctx, 1)
    value = chi - 0.5 * chi_link - 0.5 * mean
    stderr = 0.5 * err
    direct = None
    if isinstance(x, (SmoothSet, LinearSubspace)):
        direct = _curvature_terms(x, ctx)[0][:2]
    return Lambda0Result(chi, chi_link, mean, route, value, stderr, direct)


def _curvature_terms(
    x: SetDescriptor, ctx: RunContext, ks=(), center=None
) -> Tuple[Tuple[float, float, str], List[LimitEstimate]]:
    """Order-0 curvature for an assembly, (value, uncertainty, route), and the
    growth limits of the orders ks, with balls about ``center``.

    The order-0 term is the growth limit of order 0 for smooth sets, which
    then shares its cubature with the other orders, 0 for flats, and the
    link-defect formula otherwise.  A cone's limits come first, so that a
    center they refuse draws no planes.
    """
    if isinstance(x, SmoothSet):
        est, *ests = ctx.limits(x, (0, *ks), center)
        return (est.value, est.uncertainty, "lambda0=curvature_cubature"), ests
    ests = ctx.limits(x, ks, center)
    if isinstance(x, LinearSubspace):
        # every curvature density of order below the dimension of a flat vanishes
        return (0.0, 0.0, "lambda0=flat_defect_exact"), ests
    result = lambda0(x, ctx)
    return (result.value, result.stderr, "lambda0=link_defect_formula"), ests


def _check_du_lambda0(x: SetDescriptor, ctx: RunContext) -> Rows:
    """Defect-formula value of the order-0 curvature against the direct route."""
    try:
        result = lambda0(x, ctx)
    except UnsupportedSection as exc:
        return [skipped_row(0, "curvature_density_cubature", "link_defect_formula", str(exc))]
    formula_route = (
        f"chi({result.chi}) - 0.5*chi_link({result.chi_link:g}) - 0.5*hyperplane_mean"
        f":{result.hyperplane_route}"
    )
    if result.direct is None:
        return [
            make_row(0, result.value, result.value, result.stderr,
                     formula_route, "single_route(no direct density for this set)")
        ]
    direct, direct_err = result.direct
    return [
        make_row(0, direct, result.value, hypot(direct_err, result.stderr),
                 "curvature_density_cubature", formula_route)
    ]


# ---------------------------------------------------------------------- thm 3.9

def _check_thm_3_9(x: SetDescriptor, ctx: RunContext, center=None) -> Rows:
    """chi(X) = order-0 curvature + sum over k of growth limits, with balls
    about ``center``.

    For smooth and flat sets the order-0 term uses the direct curvature route
    and the limits use cubature, so the Grassmannian machinery never appears
    on either side (the non-circularity contract).
    """
    chi = euler_char(x)
    try:
        (lam0, lam0_err, lam0_route), ests = _curvature_terms(
            x, ctx, range(1, x.ambient_dim + 1), center)
        return [_assembly_row(chi, [(lam0, lam0_err, "L0")], ests, f"{lam0_route};")]
    except UnsupportedSection as exc:
        return [skipped_row(0, "chi", "assembly", str(exc))]


# ----------------------------------------------------------- smooth theorems

def _check_smooth_growth(x: SetDescriptor, ctx: RunContext, section_chi: bool) -> Rows:
    """Smooth growth limits against half-means of link chis (thm4.1) or means
    of section chis (thm4.2); k = d is the volume row, k = d - i the others.

    A closed set Y split at a large sphere has chi(Lk^inf Y) = chi(Y) -
    chi_c(Y), and chi_c = (-1)^e chi on a manifold of dimension e, so half a
    link chi is the section chi only where the section dimensions d - k +- 1
    are odd: thm4.2 keeps the rows with d - k even, as thm4.3 does.  Its other
    rows are 0 = 0 by odd-order vanishing, which thm4.1 checks."""
    _require_smooth(x)
    return _growth_rows(x, ctx, range(x.dim, 0, -2 if section_chi else -1), _limit_lhs,
                        section_chi)


def _check_thm_4_3(x: SetDescriptor, ctx: RunContext) -> Rows:
    """chi(X) from curvature alone: the top-order total curvature (even dim)
    plus the growth limits of the orders with the parity of dim."""
    _require_smooth(x)
    chi, d = euler_char(x), x.dim
    ks = range(2 - d % 2, d + 1, 2)
    try:
        if d % 2 == 0:
            (lam0, lam0_err, _), ests = _curvature_terms(x, ctx, ks)
            parts = [(lam0, lam0_err, "total_top_order_curvature")]
        else:
            parts, ests = [], ctx.limits(x, ks)
        return [_assembly_row(chi, parts, ests, "curvature_assembly;")]
    except UnsupportedSection as exc:
        return [skipped_row(0, "euler_char", "curvature_assembly", str(exc))]


def _check_odd_d_corollary(x: SetDescriptor, ctx: RunContext) -> Rows:
    """Odd-dimensional smooth sets: chi(X) = k1 limit + 0.5*E[chi|dim n-2]."""
    _require_smooth(x)
    if x.dim % 2 == 0:
        return [skipped_row(0, "euler_char", "assembly", "set dimension is even")]
    n = x.ambient_dim
    try:
        est = ctx.limit(x, 1)
        mean, err, route = _link_mean(x, n - 2, ctx, 0x31)
        return [
            make_row(0, float(euler_char(x)), est.value + 0.5 * mean,
                     hypot(est.uncertainty, 0.5 * err), "euler_char",
                     f"k1_limit={est.value:.6g}+0.5*E[chi|dim{n - 2}]:{route}")
        ]
    except UnsupportedSection as exc:
        return [skipped_row(0, "euler_char", "assembly", str(exc))]


# ------------------------------------------------------------------ base point

def _check_base_point(x: SetDescriptor, ctx: RunContext) -> Rows:
    """The thm3.9 assembly recentered at the base point must match the origin-based run.

    The shifted run goes first; where it is refused, the origin run is not
    made, so a refused base point draws no planes.
    """
    x0 = ctx.base_point
    srow = _check_thm_3_9(x, ctx, center=x0)[0]
    if srow.skipped:
        return [skipped_row(0, "shifted_assembly", "chi", srow.reason),
                skipped_row(1, "origin_assembly", "shifted_assembly", srow.reason)]
    brow = _check_thm_3_9(x, ctx)[0]
    rows = [make_row(0, srow.lhs, srow.rhs, srow.uncertainty,
                     "euler_char", f"shifted({x0.tolist()});{srow.route_rhs}")]
    if brow.skipped:
        rows.append(skipped_row(1, "origin_assembly", "shifted_assembly", brow.reason))
    else:
        rows.append(
            make_row(1, brow.rhs, srow.rhs, hypot(brow.uncertainty, srow.uncertainty),
                     "origin_assembly", "shifted_assembly")
        )
    return rows


# ------------------------------------------------------------------ dispatcher

CHECKS: Dict[str, Callable[[SetDescriptor, RunContext], Rows]] = {
    "prop3.1": _check_prop_3_1,
    "thm3.7": _check_limits,
    "cor3.8": _check_limits,
    "du_lambda0": _check_du_lambda0,
    "thm3.9": _check_thm_3_9,
    "thm4.1": partial(_check_smooth_growth, section_chi=False),
    "thm4.2": partial(_check_smooth_growth, section_chi=True),
    "thm4.3": _check_thm_4_3,
    "odd_d_corollary": _check_odd_d_corollary,
    "base_point": _check_base_point,
}

THEOREM_IDS = tuple(CHECKS)


# the CLI's entry to every check; the benchmark's tracing wraps it by name
def run_theorem(
    theorem_id: str,
    x: SetDescriptor,
    set_name: str = "set",
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    base_point=None,
) -> TheoremReport:
    """Run the check of ``theorem_id`` on x and report it."""
    check = CHECKS.get(theorem_id)
    if check is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if theorem_id == "base_point":
        if base_point is None:
            raise ValueError("base_point theorem needs a base point")
        base_point = np.asarray(base_point, dtype=float)
        if base_point.shape != (x.ambient_dim,):
            raise ValueError("base point has the wrong dimension")
        if not np.all(np.isfinite(base_point)) or float(np.linalg.norm(base_point)) > 10.0:
            raise ValueError("base point must be finite with norm at most 10")
    elif base_point is not None:
        raise ValueError(f"a base point applies only to base_point, not {theorem_id}")
    ctx = RunContext(n_samples, seed, radii, base_point=base_point)
    start = time.perf_counter()
    rows = check(x, ctx)
    # the unit-ball identity uses no radius schedule
    report_radii = [] if theorem_id == "prop3.1" else list(ctx.radii)
    report = TheoremReport(theorem_id, set_name, rows, seed, n_samples, report_radii)
    report.elapsed_seconds = time.perf_counter() - start
    return report
