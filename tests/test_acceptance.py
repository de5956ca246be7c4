"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Defaults throughout: 4000 Grassmannian samples, seed 42,
radius schedule 8, 16, 32, 64.
"""

import io
import json
import math

import numpy as np

import lkcurv as lk
from lkcurv import cli
from lkcurv.catalog.sets import _trace_box
from lkcurv.geomconst import ball_volume, sphere_volume
from lkcurv.spherical import spherical_lk
from lkcurv.verify import RunContext, lambda0, run_theorem
from qr_frames import point_density
from vertex_index import vertex_index_mean

SAMPLES = 4000
SEED = 42
RADII = (8.0, 16.0, 32.0, 64.0)
SQRT2 = math.sqrt(2.0)


def report_line(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_constants():
    worst = 0.0
    for k in range(1, 13):
        s = sphere_volume(k - 1)
        worst = max(worst, abs(s - k * ball_volume(k)) / s)
    report_line(1, f"s_(k-1) = k b_k for k=1..12, worst rel err {worst:.2e}",
                worst <= 1e-12)


def test_criterion_2_spherical_morse_count(graphs):
    names = ["star3_s2", "circle_s2", "antipodal_s2", "cross_s1", "theta_s2",
             "tetra_s2"]
    assert len(names) >= 5
    failures = []
    for name in names:
        graph = graphs[name]
        # the sampled vertex index means, not the closed form V - E
        means = [vertex_index_mean(graph, v, 10000, SEED) for v in range(graph.n_vertices)]
        value = sum(m for m, _ in means)
        stderr = math.sqrt(sum(s * s for _, s in means))
        chi = graph.euler_characteristic()
        if abs(value - chi) > max(3.0 * stderr, 1e-12):
            failures.append(name)
        if spherical_lk(graph, 0) != chi:
            failures.append(name)
    report_line(2, f"chi = sum of vertex index means on {len(names)} graphs "
                   f"(3 sigma, 1e4 samples)", not failures)


def test_criterion_3_conic_identities(sets):
    checks = []
    cross = run_theorem("prop3.1", sets["cross_r2"], n_samples=SAMPLES, seed=SEED)
    row = {r.k: r for r in cross.rows}[1]
    checks.append(row.uncertainty == 0.0 and abs(row.lhs - 2.0) < 1e-9
                  and abs(row.rhs - 2.0) < 1e-9)
    line = run_theorem("prop3.1", sets["line_r3"], n_samples=SAMPLES, seed=SEED)
    row = {r.k: r for r in line.rows}[1]
    checks.append(row.uncertainty == 0.0 and abs(row.lhs - 1.0) < 1e-9
                  and abs(row.rhs - 1.0) < 1e-9)
    cone = run_theorem("prop3.1", sets["plane_cone_r3"], n_samples=SAMPLES, seed=SEED)
    row = {r.k: r for r in cone.rows}[2]
    checks.append(row.uncertainty == 0.0 and abs(row.lhs - 1.0) < 1e-9
                  and abs(row.rhs - 1.0) < 1e-9)
    checks.append(cross.overall_pass and line.overall_pass and cone.overall_pass)
    report_line(3, "exact conic rows: cross 2=2, line 1=1, plane-cone 1=1 "
                   "with zero stderr", all(checks))


def test_criterion_4_flagship_growth_identity(sets):
    hyp = sets["hyperboloid_r3"]
    report = run_theorem("thm3.7", hyp, n_samples=SAMPLES, seed=SEED, radii=RADII)
    row = {r.k: r for r in report.rows}[2]
    lhs_ok = abs(row.lhs - SQRT2) <= 0.02
    rhs_ok = abs(row.rhs - SQRT2) <= 0.02
    est = lk.grassmann_mean(3, 2, lambda h: lk.link_chi(hyp, h),
                            n_samples=SAMPLES, seed=SEED, collect=True)
    fraction = float(np.mean(est.values == 4.0))
    target = SQRT2 / 2.0
    binom_err = math.sqrt(target * (1.0 - target) / SAMPLES)
    frac_ok = abs(fraction - target) <= 3.0 * binom_err
    report_line(4, f"hyperboloid k=2: lhs {row.lhs:.5f}, rhs {row.rhs:.5f} "
                   f"within 0.02 of sqrt2; 4-point fraction {fraction:.5f} "
                   f"vs {target:.5f} (3 binomial sigma)",
                lhs_ok and rhs_ok and frac_ok and report.overall_pass)


def test_criterion_5_euler_assemblies(sets):
    cross = run_theorem("thm3.9", sets["cross_r2"], n_samples=SAMPLES, seed=SEED,
                        radii=RADII)
    cross_ok = (cross.overall_pass and cross.rows[0].uncertainty == 0.0
                and abs(cross.rows[0].rhs - 1.0) < 1e-9
                and "L0=-1" in cross.rows[0].route_rhs)
    sphere = run_theorem("thm3.9", sets["sphere_s2"], n_samples=SAMPLES, seed=SEED,
                         radii=RADII)
    sphere_ok = sphere.overall_pass and abs(sphere.rows[0].rhs - 2.0) < 1e-6
    hyp = run_theorem("thm3.9", sets["hyperboloid_r3"], n_samples=SAMPLES, seed=SEED,
                      radii=RADII)
    hyp_ok = hyp.overall_pass and abs(hyp.rows[0].rhs) <= 0.03
    # the order-0 term is independently the curvature cubature and must match
    # the Gauss-map oracle for the total curvature within 0.5%
    lam0 = lambda0(sets["hyperboloid_r3"], RunContext(400, SEED, RADII))
    direct = lam0.direct[0]
    gauss_total = direct * sphere_volume(2) / 2.0
    oracle = -2.0 * SQRT2 * math.pi
    gauss_ok = abs(gauss_total - oracle) <= 0.005 * abs(oracle)
    noncircular = ("curvature_cubature" in hyp.rows[0].route_rhs
                   and "grassmann" not in hyp.rows[0].route_rhs)
    report_line(5, f"assemblies: cross 1=-1+2+0 exact, sphere 2=2+0, "
                   f"hyperboloid 0={direct:.5f}+{hyp.rows[0].rhs - direct:.5f} "
                   f"(total curvature {gauss_total:.5f} vs {oracle:.5f})",
                cross_ok and sphere_ok and hyp_ok and gauss_ok and noncircular)


def test_criterion_6_compact_smooth_assemblies(sets):
    torus = run_theorem("thm4.3", sets["torus_r3"], n_samples=SAMPLES, seed=SEED,
                        radii=RADII)
    torus_ok = torus.overall_pass and abs(torus.rows[0].rhs) <= 1e-3
    sphere = run_theorem("thm4.3", sets["sphere_s2"], n_samples=SAMPLES, seed=SEED,
                         radii=RADII)
    sphere_ok = sphere.overall_pass and abs(sphere.rows[0].rhs - 2.0) <= 1e-6
    report_line(6, f"compact assemblies: torus residual {abs(torus.rows[0].rhs):.2e} "
                   f"(<=1e-3), sphere residual {abs(sphere.rows[0].rhs - 2.0):.2e} "
                   f"(<=1e-6)", torus_ok and sphere_ok)


def test_criterion_7_odd_dimension_assembly(sets):
    line = run_theorem("odd_d_corollary", sets["line_r3"], n_samples=SAMPLES, seed=SEED,
                       radii=RADII)
    line_ok = (line.overall_pass and line.rows[0].uncertainty == 0.0
               and abs(line.rows[0].rhs - 1.0) < 1e-9)
    cubic = run_theorem("odd_d_corollary", sets["twisted_cubic_r3"], n_samples=SAMPLES,
                        seed=SEED, radii=RADII)
    cubic_ok = cubic.overall_pass and abs(cubic.rows[0].rhs - 1.0) <= 0.02
    report_line(7, f"odd-dimension assemblies: line exact 1=1+0, cubic residual "
                   f"{abs(cubic.rows[0].rhs - 1.0):.4f} (<=0.02)",
                line_ok and cubic_ok)


def test_criterion_8_odd_order_vanishing(sets, rng):
    failures = 0
    # codimension one: the two-sided sum makes odd orders exactly zero
    for name in ("hyperboloid_r3", "paraboloid_r3", "sphere_s2"):
        x = sets[name]
        chart = x.chart
        box = _trace_box(chart, 8.0, np.zeros(3))
        span = box[:, 1] - box[:, 0]
        u = rng.uniform(box[:, 0] + 0.02 * span, box[:, 1] - 0.02 * span,
                        size=(50, chart.dim))
        for point in u:
            if point_density(x, point, 1) != 0.0:
                failures += 1
    # codimension two: exact zeros at 1000 random points on the cubic
    cubic = sets["twisted_cubic_r3"]
    box = _trace_box(cubic.chart, 8.0, np.zeros(3))
    points = rng.uniform(box[0, 0], box[0, 1], size=(1000, 1))
    for point in points:
        if point_density(cubic, point, 0) != 0.0:
            failures += 1
    report_line(8, "odd-order curvature integrals vanish exactly (codim 1, "
                   "and at 1000 curve points in codim 2)", failures == 0)


def test_criterion_9_top_density_is_one(sets, rng):
    worst = 0.0
    for name in ("sphere_s2", "torus_r3", "cylinder_r3", "plane_r2_in_r3",
                 "paraboloid_r3", "hyperboloid_r3", "twisted_cubic_r3"):
        x = sets[name]
        chart = x.chart
        box = _trace_box(chart, 8.0, np.zeros(3))
        span = box[:, 1] - box[:, 0]
        u = rng.uniform(box[:, 0] + 0.01 * span, box[:, 1] - 0.01 * span,
                        size=(1000, chart.dim))
        for point in u:
            value = point_density(x, point, x.dim)
            worst = max(worst, abs(value - 1.0))
    report_line(9, f"top-order density is 1 at 1000 random points per smooth "
                   f"set, worst dev {worst:.2e} (<=1e-6)", worst <= 1e-6)


def test_criterion_10_determinism_and_base_points(sets):
    reports = []
    for workers in ("1", "3"):
        out = io.StringIO()
        cli.main(["verify", "--set", "hyperboloid_r3", "--theorem", "thm3.7",
                  "--samples", str(SAMPLES), "--seed", str(SEED),
                  "--radii", ",".join(str(r) for r in RADII), "--workers", workers],
                 out=out)
        # the JSON report comes first; the summary lines after it start with '#'
        doc = json.loads(out.getvalue().split("\n#", 1)[0])
        doc.pop("elapsed_seconds")
        reports.append(doc)
    deterministic = reports[0] == reports[1]
    cross_bp = run_theorem("base_point", sets["cross_r2"], n_samples=SAMPLES, seed=SEED,
                           radii=RADII, base_point=[1.0, 2.0])
    hyp_bp = run_theorem("base_point", sets["hyperboloid_r3"], n_samples=SAMPLES,
                         seed=SEED, radii=RADII, base_point=[0.0, 0.0, 3.0])
    report_line(10, "bit-identical reports across worker counts; base-point "
                    "assemblies pass at (1,2) and (0,0,3)",
                deterministic and cross_bp.overall_pass and hyp_bp.overall_pass)
