"""Identity harness: assembles both sides of each curvature identity.

Supported checks (ids follow the CLI contract):

* ``prop3.1``          -- conic sets: normalized curvature measures of the unit
                          ball against signed half-means of section link chis.
* ``thm3.7``/``cor3.8`` -- growth limits of normalized curvature measures
                          against the same Grassmannian combinations.
* ``du_lambda0``       -- the order-0 curvature of the whole set: defect
                          formula route against the direct density route.
* ``thm3.9``           -- chi(X) = order-0 curvature + sum of growth limits.
* ``thm4.1``..``thm4.3``, ``odd_d_corollary`` -- smooth-set reformulations.
* ``base_point``       -- the thm3.9 assembly recentered at a base point.

Route bookkeeping: every row labels how each side was computed, so the
non-circularity contract (curvature/cubature routes on the left, Grassmannian
means only on the right) is auditable from the report alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import hypot, sqrt
from typing import Optional, Tuple

import numpy as np

from .catalog.links import euler_char, full_space, link_chi, link_chi_batch
from .catalog.sets import ConicGraph, LinearSubspace, SetDescriptor, SmoothSet
from .curvature import CubatureSpec, lk_measure_detailed
from .errors import UnsupportedSection
from .geomconst import ball_volume
from .grassmann import MonteCarloEstimate, grassmann_mean_batch
from .limits import DEFAULT_RADII, estimate_limit, fit_limit_sequence, validate_radii
from .report import TheoremReport, make_row, skipped_row

DEFAULT_SAMPLES = 4000
DEFAULT_SEED = 42

THEOREM_IDS = (
    "prop3.1",
    "thm3.7",
    "cor3.8",
    "du_lambda0",
    "thm3.9",
    "thm4.1",
    "thm4.2",
    "thm4.3",
    "odd_d_corollary",
    "base_point",
)


@dataclass
class RunSettings:
    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    radii: Tuple[float, ...] = DEFAULT_RADII
    workers: int = 1  # accepted for the CLI contract; sampling runs in one thread
    cubature: CubatureSpec = field(default_factory=CubatureSpec)

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError("n_samples must be at least 100")
        self.radii = tuple(validate_radii(self.radii))


def _as_center(center):
    if center is None:
        return None
    center = np.asarray(center, dtype=float)
    if not np.any(center):
        return None
    return center


def _link_mean(
    x: SetDescriptor,
    plane_dim: int,
    settings: RunSettings,
    stream: int,
    center,
) -> Tuple[float, float, str]:
    """Haar mean of chi(link at infinity of X ∩ plane) over planes of a dimension."""
    n = x.ambient_dim
    if plane_dim == 0:
        # a zero-dimensional section is at most a point; its link is empty
        return 0.0, 0.0, "exact(zero_dim_plane)"
    if plane_dim == n:
        value = link_chi(x, full_space(n), center)
        return float(value), 0.0, "exact(full_space_link)"
    est = _link_estimate(x, plane_dim, settings, stream, center)
    return est.mean, est.stderr, f"grassmann_mc(planes={plane_dim},n={est.n_samples})"


def _link_estimate(x: SetDescriptor, plane_dim: int, settings: RunSettings, stream: int,
                   center) -> MonteCarloEstimate:
    return grassmann_mean_batch(
        x.ambient_dim,
        plane_dim,
        lambda frames: link_chi_batch(x, frames, center),
        n_samples=settings.n_samples,
        seed=settings.seed,
        stream=stream,
    )


def _growth_rhs(
    x: SetDescriptor,
    k: int,
    settings: RunSettings,
    center,
    section_chi: bool = False,
) -> Tuple[float, float, str]:
    """Grassmannian side of the order-k growth identity.

    With ``section_chi`` the means are of chi(X ∩ H) (evaluated as half a link
    chi on proper planes and as the declared chi on the whole space), which is
    the smooth reformulation; otherwise they are half-means of link chis.
    """
    n = x.ambient_dim

    def term(plane_dim: int, stream: int) -> Tuple[float, float, str]:
        if section_chi and plane_dim == n:
            return float(euler_char(x)), 0.0, "exact(declared_chi)"
        mean, err, route = _link_mean(x, plane_dim, settings, stream, center)
        return 0.5 * mean, 0.5 * err, route

    if k == n:
        value, err, route = term(1, (k << 4) | 1)
        return value, err, f"0.5*E[chi|dim1]:{route}"
    if k == n - 1:
        value, err, route = term(2, (k << 4) | 1)
        return value, err, f"0.5*E[chi|dim2]:{route}"
    lo, lo_err, lo_route = term(n - k - 1, (k << 4) | 1)
    hi, hi_err, hi_route = term(n - k + 1, (k << 4) | 2)
    return (
        hi - lo,
        hypot(lo_err, hi_err),
        f"0.5*E[chi|dim{n - k + 1}] - 0.5*E[chi|dim{n - k - 1}]:{hi_route};{lo_route}",
    )


# ------------------------------------------------------------------- prop 3.1

def verify_prop_3_1(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    set_name: str = "set",
) -> TheoremReport:
    """Conic sets: Lambda_k(X, X ∩ B_1)/b_k against Grassmannian half-means."""
    if not isinstance(x, (ConicGraph, LinearSubspace)):
        raise UnsupportedSection("prop3.1 applies to conic sets only")
    settings = RunSettings(n_samples=n_samples, seed=seed, workers=workers)
    start = time.perf_counter()
    n = x.ambient_dim
    rows = []
    for k in range(1, n + 1):
        lhs, lhs_err, lhs_route = _conic_unit_ball_lhs(x, k)
        try:
            rhs, rhs_err, rhs_route = _growth_rhs(x, k, settings, None)
        except UnsupportedSection as exc:
            rows.append(skipped_row(k, lhs_route, "grassmann", str(exc)))
            continue
        rows.append(
            make_row(k, lhs, rhs, hypot(lhs_err, rhs_err), lhs_route, rhs_route)
        )
    report = TheoremReport("prop3.1", set_name, rows, seed, n_samples)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _conic_unit_ball_lhs(x, k) -> Tuple[float, float, str]:
    from .spherical import conic_lk_measure_detailed

    bk = ball_volume(k)
    if isinstance(x, LinearSubspace):
        return (1.0 if k == x.dim else 0.0), 0.0, "linear_exact"
    value, err = conic_lk_measure_detailed(x, k, 1.0)
    return value / bk, err / bk, "conic_trace_curvature"


# ------------------------------------------------------- thm 3.7 and cor 3.8

def verify_limit_theorems(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    set_name: str = "set",
    theorem_id: str = "thm3.7",
    center=None,
) -> TheoremReport:
    """Growth limits of normalized curvature measures against link-chi means."""
    settings = RunSettings(n_samples=n_samples, seed=seed, radii=radii, workers=workers)
    center = _as_center(center)
    start = time.perf_counter()
    n = x.ambient_dim
    rows = []
    for k in range(1, n + 1):
        try:
            est = estimate_limit(
                x, k, settings.radii, seed=seed,
                spec=settings.cubature, center=center,
            )
            lhs, lhs_err = est.value, est.uncertainty
            lhs_route = _limit_route(x, est.converged)
        except UnsupportedSection as exc:
            rows.append(skipped_row(k, "limit", "grassmann", str(exc)))
            continue
        try:
            rhs, rhs_err, rhs_route = _growth_rhs(x, k, settings, center)
        except UnsupportedSection as exc:
            rows.append(skipped_row(k, lhs_route, "grassmann", str(exc)))
            continue
        rows.append(make_row(k, lhs, rhs, hypot(lhs_err, rhs_err), lhs_route, rhs_route))
    report = TheoremReport(theorem_id, set_name, rows, seed, n_samples, list(settings.radii))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _limit_route(x, converged: bool) -> str:
    tag = "" if converged else ",not_converged"
    if isinstance(x, LinearSubspace):
        return "linear_exact" + tag
    if isinstance(x, ConicGraph):
        return "conic_homogeneity" + tag
    if x.compact:
        return "compact_exact_zero" + tag
    return "cubature_limit" + tag


# ------------------------------------------------------------- order-0 routes

@dataclass
class Lambda0Result:
    chi: int
    chi_link: float
    hyperplane_mean: MonteCarloEstimate
    value: float
    stderr: float
    direct: Optional[Tuple[float, float]]


def lambda0(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    center=None,
) -> Lambda0Result:
    """Order-0 curvature of the whole set by the link-defect formula,
    plus the direct density route when the set is smooth or flat."""
    settings = RunSettings(n_samples=n_samples, seed=seed, radii=radii, workers=workers)
    center = _as_center(center)
    n = x.ambient_dim
    chi = euler_char(x)
    chi_link = float(link_chi(x, full_space(n), center))
    est = _link_estimate(x, n - 1, settings, 1, center)
    value = chi - 0.5 * chi_link - 0.5 * est.mean
    stderr = 0.5 * est.stderr
    direct = None
    if isinstance(x, SmoothSet):
        direct = _lambda0_direct(x, settings, center)
    elif isinstance(x, LinearSubspace):
        direct = (0.0, 0.0)  # flat: every curvature density of order < dim vanishes
    return Lambda0Result(chi, chi_link, est, value, stderr, direct)


def _lambda0_direct(x: SmoothSet, settings: RunSettings, center) -> Tuple[float, float]:
    values, errors = [], []
    for radius in settings.radii:
        v, e = lk_measure_detailed(
            x, 0, radius, spec=settings.cubature, center=center, seed=settings.seed
        )
        values.append(v)
        errors.append(e)
    value, uncertainty, _ = fit_limit_sequence(list(settings.radii), values, errors)
    return value, uncertainty


def verify_du_lambda0(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    set_name: str = "set",
) -> TheoremReport:
    """Defect-formula value of the order-0 curvature against the direct route."""
    start = time.perf_counter()
    result = lambda0(x, n_samples=n_samples, seed=seed, radii=radii, workers=workers)
    formula_route = (
        f"chi({result.chi}) - 0.5*chi_link({result.chi_link:g}) - 0.5*hyperplane_mean"
    )
    if result.direct is None:
        rows = [
            make_row(0, result.value, result.value, result.stderr,
                     formula_route, "single_route(no direct density for this set)")
        ]
    else:
        direct, direct_err = result.direct
        rows = [
            make_row(0, direct, result.value, hypot(direct_err, result.stderr),
                     "curvature_density_cubature", formula_route)
        ]
    report = TheoremReport("du_lambda0", set_name, rows, seed, n_samples, list(radii))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------- thm 3.9

def verify_thm_3_9(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    set_name: str = "set",
    center=None,
    theorem_id: str = "thm3.9",
) -> TheoremReport:
    """chi(X) = order-0 curvature + sum over k of growth limits.

    For smooth and flat sets the order-0 term uses the direct curvature route
    and the limits use cubature, so the Grassmannian machinery never appears
    on either side (the non-circularity contract).
    """
    settings = RunSettings(n_samples=n_samples, seed=seed, radii=radii, workers=workers)
    center = _as_center(center)
    start = time.perf_counter()
    n = x.ambient_dim
    chi = euler_char(x)
    try:
        if isinstance(x, SmoothSet):
            lam0, lam0_err = _lambda0_direct(x, settings, center)
            lam0_route = "lambda0=curvature_cubature"
        elif isinstance(x, LinearSubspace):
            lam0, lam0_err = _flat_lambda0(x, settings, center)
            lam0_route = "lambda0=flat_defect_exact"
        else:
            result = lambda0(x, n_samples=n_samples, seed=seed, radii=radii,
                             workers=workers, center=center)
            lam0, lam0_err = result.value, result.stderr
            lam0_route = "lambda0=link_defect_formula"
        terms = [lam0]
        errs = [lam0_err]
        pieces = [f"L0={lam0:.6g}"]
        for k in range(1, n + 1):
            est = estimate_limit(
                x, k, settings.radii, seed=seed,
                spec=settings.cubature, center=center,
            )
            terms.append(est.value)
            errs.append(est.uncertainty)
            pieces.append(f"k{k}={est.value:.6g}")
    except UnsupportedSection as exc:
        report = TheoremReport(
            theorem_id, set_name, [skipped_row(0, "chi", "assembly", str(exc))],
            seed, n_samples, list(settings.radii),
        )
        report.elapsed_seconds = time.perf_counter() - start
        return report
    rhs = float(np.sum(terms))
    unc = sqrt(float(np.sum(np.square(errs))))
    rows = [
        make_row(0, float(chi), rhs, unc, "euler_char",
                 f"{lam0_route};{'+'.join(pieces)}")
    ]
    report = TheoremReport(theorem_id, set_name, rows, seed, n_samples, list(settings.radii))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _flat_lambda0(x: LinearSubspace, settings: RunSettings, center) -> Tuple[float, float]:
    """Order-0 curvature of a linear subspace via the link-defect identity.

    All section links are exact for flats, so this is a closed form:
    chi - chi_link/2 - mean/2 where the hyperplane sections are flats of
    dimension dim-1 (their link chi is chi(S^{dim-2}) whenever nonempty).
    """
    n = x.ambient_dim
    chi_link = float(link_chi(x, full_space(n), center))
    d = x.dim
    section_link = 0.0 if d - 1 <= 0 else float(1 + (-1) ** (d - 2))
    return 1.0 - 0.5 * chi_link - 0.5 * section_link, 0.0


# ----------------------------------------------------------- smooth theorems

def verify_smooth_theorems(
    x: SetDescriptor,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    set_name: str = "set",
    theorem_id: str = "thm4.3",
) -> TheoremReport:
    """Smooth-set reformulations of the growth and assembly identities."""
    if not isinstance(x, (SmoothSet, LinearSubspace)):
        raise UnsupportedSection("smooth theorems apply to smooth submanifolds")
    settings = RunSettings(n_samples=n_samples, seed=seed, radii=radii, workers=workers)
    start = time.perf_counter()
    n, d = x.ambient_dim, x.dim
    rows = []

    def limit_for(k: int):
        return estimate_limit(
            x, k, settings.radii, seed=seed,
            spec=settings.cubature, center=None,
        )

    if theorem_id in ("thm4.1", "thm4.2"):
        section_chi = theorem_id == "thm4.2"
        for k in range(d, 0, -1):  # k = d is the volume row, k = d - i the others
            try:
                est = limit_for(k)
                rhs, rhs_err, rhs_route = _growth_rhs(
                    x, k, settings, None, section_chi=section_chi
                )
            except UnsupportedSection as exc:
                rows.append(skipped_row(k, "limit", "grassmann", str(exc)))
                continue
            rows.append(
                make_row(k, est.value, rhs, hypot(est.uncertainty, rhs_err),
                         _limit_route(x, est.converged), rhs_route)
            )
    elif theorem_id == "thm4.3":
        try:
            terms, errs, pieces = [], [], []
            if d % 2 == 0:
                if isinstance(x, LinearSubspace):
                    lam0, lam0_err = _flat_lambda0(x, settings, None)
                else:
                    lam0, lam0_err = _lambda0_direct(x, settings, None)
                terms.append(lam0)
                errs.append(lam0_err)
                pieces.append(f"total_top_order_curvature={lam0:.6g}")
                k_values = range(2, d + 1, 2)
            else:
                k_values = range(1, d + 1, 2)
            for k in k_values:
                est = limit_for(k)
                terms.append(est.value)
                errs.append(est.uncertainty)
                pieces.append(f"k{k}={est.value:.6g}")
            rows.append(
                make_row(0, float(euler_char(x)), float(np.sum(terms)),
                         sqrt(float(np.sum(np.square(errs)))),
                         "euler_char", "curvature_assembly;" + "+".join(pieces))
            )
        except UnsupportedSection as exc:
            rows.append(skipped_row(0, "euler_char", "curvature_assembly", str(exc)))
    elif theorem_id == "odd_d_corollary":
        if d % 2 == 0:
            rows.append(
                skipped_row(0, "euler_char", "assembly", "set dimension is even")
            )
        else:
            try:
                est = limit_for(1)
                mean, err, route = _link_mean(x, n - 2, settings, 0x31, None)
                rhs = est.value + 0.5 * mean
                rows.append(
                    make_row(0, float(euler_char(x)), rhs,
                             hypot(est.uncertainty, 0.5 * err),
                             "euler_char",
                             f"k1_limit={est.value:.6g}+0.5*E[chi|dim{n - 2}]:{route}")
                )
            except UnsupportedSection as exc:
                rows.append(skipped_row(0, "euler_char", "assembly", str(exc)))
    else:
        raise ValueError(f"unknown smooth theorem id {theorem_id!r}")
    report = TheoremReport(theorem_id, set_name, rows, seed, n_samples, list(settings.radii))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ------------------------------------------------------------------ base point

def verify_base_point(
    x: SetDescriptor,
    x0,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    set_name: str = "set",
) -> TheoremReport:
    """The thm3.9 assembly recentered at x0 must match the origin-based run."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (x.ambient_dim,):
        raise ValueError("base point has the wrong dimension")
    if not np.all(np.isfinite(x0)) or float(np.linalg.norm(x0)) > 10.0:
        raise ValueError("base point must be finite with norm at most 10")
    start = time.perf_counter()
    base = verify_thm_3_9(x, n_samples, seed, radii, workers, set_name=set_name)
    shifted = verify_thm_3_9(
        x, n_samples, seed, radii, workers, set_name=set_name, center=x0
    )
    rows = []
    brow, srow = base.rows[0], shifted.rows[0]
    if srow.skipped:
        rows.append(skipped_row(0, "shifted_assembly", "chi", srow.reason))
    else:
        rows.append(
            make_row(0, srow.lhs, srow.rhs, srow.uncertainty,
                     "euler_char", f"shifted({x0.tolist()});{srow.route_rhs}")
        )
    if brow.skipped or srow.skipped:
        rows.append(
            skipped_row(1, "origin_assembly", "shifted_assembly",
                        brow.reason or srow.reason)
        )
    else:
        rows.append(
            make_row(1, brow.rhs, srow.rhs, hypot(brow.uncertainty, srow.uncertainty),
                     "origin_assembly", "shifted_assembly")
        )
    report = TheoremReport("base_point", set_name, rows, seed, n_samples, list(radii))
    report.elapsed_seconds = time.perf_counter() - start
    return report


# ------------------------------------------------------------------ dispatcher

def run_theorem(
    theorem_id: str,
    x: SetDescriptor,
    set_name: str = "set",
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    radii=DEFAULT_RADII,
    workers: int = 1,
    base_point=None,
) -> TheoremReport:
    if theorem_id == "prop3.1":
        return verify_prop_3_1(x, n_samples, seed, workers, set_name)
    if theorem_id in ("thm3.7", "cor3.8"):
        return verify_limit_theorems(
            x, n_samples, seed, radii, workers, set_name, theorem_id=theorem_id
        )
    if theorem_id == "du_lambda0":
        return verify_du_lambda0(x, n_samples, seed, radii, workers, set_name)
    if theorem_id == "thm3.9":
        return verify_thm_3_9(x, n_samples, seed, radii, workers, set_name)
    if theorem_id in ("thm4.1", "thm4.2", "thm4.3", "odd_d_corollary"):
        return verify_smooth_theorems(
            x, n_samples, seed, radii, workers, set_name, theorem_id=theorem_id
        )
    if theorem_id == "base_point":
        if base_point is None:
            raise ValueError("base_point theorem needs a base point")
        return verify_base_point(x, base_point, n_samples, seed, radii, workers, set_name)
    raise ValueError(f"unknown theorem id {theorem_id!r}")
