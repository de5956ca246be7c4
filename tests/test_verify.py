import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lkcurv as lk
from lkcurv import SmoothSet, UnsupportedSection, cli, verify
from lkcurv.catalog.sets import set_from_dict, set_to_dict
from lkcurv.report import report_from_dict, report_to_dict, report_to_json
from lkcurv.verify import RunContext, lambda0, run_theorem

RADII = (8.0, 16.0, 32.0, 64.0)
SETS = Path(__file__).resolve().parent / "sets"


def rows_by_k(report):
    return {row.k: row for row in report.rows}


# -------------------------------------------------------------------- prop3.1


def test_prop31_cross_exact(sets):
    report = run_theorem("prop3.1", sets["cross_r2"], n_samples=500, seed=42)
    rows = rows_by_k(report)
    assert report.overall_pass
    assert rows[1].lhs == pytest.approx(2.0, rel=1e-12)
    assert rows[1].rhs == pytest.approx(2.0, rel=1e-12)
    assert rows[1].uncertainty == 0.0
    assert rows[2].lhs == 0.0 and rows[2].rhs == 0.0


def test_prop31_line_r3(sets):
    report = run_theorem("prop3.1", sets["line_r3"], n_samples=500, seed=42)
    rows = rows_by_k(report)
    assert report.overall_pass
    assert rows[1].lhs == 1.0
    assert rows[1].rhs == pytest.approx(1.0, rel=1e-12)
    assert rows[1].uncertainty == 0.0


def test_prop31_plane_cone(sets):
    report = run_theorem("prop3.1", sets["plane_cone_r3"], n_samples=500, seed=42)
    rows = rows_by_k(report)
    assert report.overall_pass
    assert rows[2].lhs == pytest.approx(1.0, rel=1e-12)
    assert rows[2].rhs == pytest.approx(1.0, rel=1e-12)
    assert rows[1].lhs == 0.0 and rows[3].lhs == 0.0


def test_prop31_star3_monte_carlo(sets):
    report = run_theorem("prop3.1", sets["star3_cone_r3"], n_samples=2000, seed=42)
    rows = rows_by_k(report)
    assert report.overall_pass
    assert rows[1].lhs == pytest.approx(0.5, abs=3.0 * rows[1].uncertainty + 1e-9)
    assert rows[2].rhs == pytest.approx(0.5, abs=3.0 * rows[2].uncertainty + 1e-9)


def test_prop31_rejects_smooth(sets):
    with pytest.raises(lk.UnsupportedSection):
        run_theorem("prop3.1", sets["sphere_s2"], n_samples=500, seed=1)


# ------------------------------------------------------------ thm3.7 / cor3.8


def test_thm37_hyperboloid_flagship(sets):
    report = run_theorem("thm3.7", sets["hyperboloid_r3"], n_samples=2000, seed=42,
                         radii=RADII)
    rows = rows_by_k(report)
    assert report.overall_pass
    target = math.sqrt(2.0)
    assert abs(rows[2].lhs - target) <= 0.02
    assert abs(rows[2].rhs - target) <= 0.03
    assert rows[1].lhs == 0.0 and rows[3].lhs == 0.0


def test_thm37_sphere_all_rows_vanish(sets):
    report = run_theorem("thm3.7", sets["sphere_s2"], n_samples=500, seed=42)
    assert report.overall_pass
    for row in report.rows:
        assert row.lhs == 0.0
        assert abs(row.rhs) <= 3.0 * row.uncertainty + 1e-9


def test_thm37_paraboloid(sets):
    report = run_theorem("thm3.7", sets["paraboloid_r3"], n_samples=1000, seed=42)
    assert report.overall_pass


def test_thm37_conic_sets_match_prop31(sets):
    # for cones the growth limits coincide with the unit-ball values, so the
    # thm3.7 rows must agree with the prop3.1 rows number for number
    for name in ("cross_r2", "plane_cone_r3", "star3_cone_r3"):
        growth = run_theorem("thm3.7", sets[name], n_samples=800, seed=13)
        ball = run_theorem("prop3.1", sets[name], n_samples=800, seed=13)
        assert growth.overall_pass, name
        for g_row, b_row in zip(growth.rows, ball.rows):
            assert g_row.lhs == pytest.approx(b_row.lhs, abs=1e-12)


@pytest.mark.parametrize("name", ["line_r3", "plane_cone_r3", "star3_cone_r3", "cross_r2"])
def test_left_sides_are_invariant_under_rotation(sets, name):
    # curvature measures and their growth limits do not see a rotation about
    # the origin; each rotated copy is reloaded through its set file
    doc = set_to_dict(name, sets[name])
    rows = "frame" if doc["kind"] == "linear" else "vertices"
    theorems = ("prop3.1", "thm3.7", "thm3.9")
    base = {tid: run_theorem(tid, sets[name], n_samples=200, seed=42) for tid in theorems}
    rng = np.random.Generator(np.random.Philox(key=np.array([31, 7], dtype=np.uint64)))
    for turn in range(3):
        q, r = np.linalg.qr(rng.standard_normal((doc["ambient_dim"],) * 2))
        q = q * np.sign(np.diag(r))
        q[:, 0] *= np.linalg.det(q)  # a rotation, not a reflection
        copy = set_from_dict({**doc, rows: (np.array(doc[rows]) @ q.T).tolist()})
        for tid in theorems:
            report = run_theorem(tid, copy, n_samples=200, seed=42)
            assert report.overall_pass and len(report.rows) == len(base[tid].rows), (tid, turn)
            for want, got in zip(base[tid].rows, report.rows):
                assert abs(got.lhs - want.lhs) <= max(got.uncertainty, 1e-12), (tid, turn, got.k)
                assert abs(got.rhs - want.rhs) <= got.uncertainty, (tid, turn, got.k)


def test_cor38_alias(sets):
    report = run_theorem("cor3.8", sets["line_r3"], n_samples=500, seed=7)
    assert report.theorem_id == "cor3.8" and report.overall_pass


def test_thm39_file_defined_theta_cone(tmp_path, graphs):
    # end to end on a set-definition file: the cone over the theta graph has
    # a sphere trace with chi = -1, so every term of the assembly is nontrivial
    import json

    theta = graphs["theta_s2"]
    doc = {
        "name": "theta_cone",
        "ambient_dim": 3,
        "kind": "conic_graph",
        "vertices": theta.vertices.tolist(),
        "edges": [list(e) for e in theta.edges],
    }
    path = tmp_path / "theta_cone.json"
    path.write_text(json.dumps(doc))
    name, descriptor = lk.resolve_set(str(path))
    report = run_theorem("thm3.9", descriptor, n_samples=1000, seed=42, set_name=name)
    row = report.rows[0]
    assert report.overall_pass
    assert row.lhs == 1.0
    assert abs(row.rhs - 1.0) <= 3.0 * row.uncertainty + 1e-9
    assert row.uncertainty > 0.0  # genuinely Monte Carlo, not a degenerate check


# -------------------------------------------------------------------- lambda0


def test_lambda0_cross_exact(sets):
    result = lambda0(sets["cross_r2"], RunContext(500, 42))
    assert result.value == -1.0
    assert result.stderr == 0.0
    assert result.chi == 1 and result.chi_link == 4.0
    # a generic line meets the cross's rays at most at the apex
    assert result.hyperplane_route == "exact(generic_section)"


def test_lambda0_sphere_both_routes(sets):
    result = lambda0(sets["sphere_s2"], RunContext(500, 42))
    assert result.value == pytest.approx(2.0, abs=1e-9)
    direct, direct_err = result.direct
    assert direct == pytest.approx(2.0, abs=1e-6)
    assert direct_err < 1e-6


def test_lambda0_plane_flat(sets):
    result = lambda0(sets["plane_r2_in_r3"], RunContext(500, 42))
    assert result.value == pytest.approx(0.0, abs=1e-9)
    assert result.direct[0] == pytest.approx(0.0, abs=1e-9)


def test_lambda0_hyperboloid_routes_agree(sets):
    result = lambda0(sets["hyperboloid_r3"], RunContext(2000, 42))
    target = -math.sqrt(2.0)
    direct, direct_err = result.direct
    assert abs(direct - target) <= 0.01
    assert abs(result.value - direct) <= 3.0 * math.hypot(result.stderr, direct_err)
    assert result.hyperplane_route.startswith("sliced_quadrature(planes=2,")
    report = run_theorem("du_lambda0", sets["hyperboloid_r3"], n_samples=2000, seed=42)
    assert report.overall_pass


def test_generically_constant_terms_draw_no_planes(sets, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a Grassmannian term drew planes")

    monkeypatch.setattr(verify, "grassmann_mean_batch", no_draws)
    # compact sets, flats, low-dimensional sections, and quadrics whose
    # leading form has a semidefinite adjugate
    for name, theorem in (("sphere_s2", "thm3.7"), ("torus_r3", "thm4.2"),
                          ("line_r2", "odd_d_corollary"), ("line_r3", "prop3.1"),
                          ("cross_r2", "du_lambda0"), ("plane_r2_in_r3", "thm3.7"),
                          ("cylinder_r3", "thm4.2"), ("paraboloid_r3", "du_lambda0")):
        report = run_theorem(theorem, sets[name], n_samples=500, seed=42)
        assert report.overall_pass, (name, theorem)
        assert all("grassmann" not in row.route_rhs for row in report.rows)
    # a flat plane in R^4 given by a chart: every hyperplane cuts a line
    code = cli.main(["verify", "--set", str(SETS / "plane_r2_in_r4.json"), "--theorem", "thm3.7",
                     "--samples", "500"], out=io.StringIO())
    name, plane = lk.resolve_set(str(SETS / "plane_r2_in_r4.json"))
    report = run_theorem("thm3.7", plane, name, n_samples=500, seed=42)
    assert code == 0 and report.status == "pass"
    assert rows_by_k(report)[2].lhs == pytest.approx(1.0) and rows_by_k(report)[2].rhs == 1.0
    # the curvature side refuses a translated cone with sectors before any
    # plane is drawn
    report = run_theorem("base_point", sets["plane_cone_r3"], n_samples=500, seed=42,
                         base_point=[0.5, 0.5, 0.5])
    assert report.status == "incomplete"
    # the hyperplane links of cones and of indefinite quadrics vary, but they
    # change only on known walls: sliced quadrature, no draws
    for name, theorem in (("plane_cone_r3", "prop3.1"), ("star3_cone_r3", "du_lambda0"),
                          ("hyperboloid_r3", "thm4.1")):
        report = run_theorem(theorem, sets[name], n_samples=500, seed=42)
        assert report.overall_pass, (name, theorem)
        assert any("sliced_quadrature(" in row.route_lhs + row.route_rhs for row in report.rows)
    # the hyperplanes of a surface whose leading form has degree 4 are drawn
    _, quartic = lk.resolve_set(str(SETS / "quartic_hyperboloid_r3.json"))
    with pytest.raises(AssertionError, match="drew planes"):
        run_theorem("thm3.7", quartic, n_samples=500, seed=42)
    # only hyperplanes are drawn: a varying link on planes of lower dimension
    # (a 3-fold in R^4 meets 2-planes in curves) is refused, not averaged
    # over hyperplanes
    threefold = SmoothSet(chart=None, declared_chi=1, implicit=lk.Poly(4, {
        (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): -1.0,
        (0, 0, 0, 0): -1.0}))
    with pytest.raises(UnsupportedSection, match="2-plane"):
        verify._link_mean(threefold, 2, RunContext(), 1)


def test_seeds_outside_64_bits_are_rejected(sets):
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            RunContext(100, seed)
        with pytest.raises(ValueError, match="seed"):
            run_theorem("thm3.9", sets["cross_r2"], n_samples=100, seed=seed)
    assert RunContext(100, 2**64 - 1).seed == 2**64 - 1


# --------------------------------------------------------------------- thm3.9


def test_thm39_cross_exact_decomposition(sets):
    report = run_theorem("thm3.9", sets["cross_r2"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert row.lhs == 1.0
    assert row.rhs == pytest.approx(1.0, abs=1e-9)
    assert row.uncertainty == 0.0
    assert "L0=-1" in row.route_rhs and "k1=2" in row.route_rhs


def test_thm39_sphere(sets):
    report = run_theorem("thm3.9", sets["sphere_s2"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert row.rhs == pytest.approx(2.0, abs=1e-6)


def test_thm39_hyperboloid_cancellation(sets):
    report = run_theorem("thm3.9", sets["hyperboloid_r3"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert abs(row.rhs) <= 0.03


@pytest.mark.parametrize("name, theorem, base_point", [
    ("hyperboloid_r3", "thm3.9", None),
    ("twisted_cubic_r3", "thm3.9", None),
    ("hyperboloid_r3", "base_point", (0.0, 0.0, 3.0)),
], ids=["hyperboloid_r3", "twisted_cubic_r3", "hyperboloid_r3-base_point"])
def test_sweep_builds_frames_once_for_both_rules(sets, monkeypatch, name, theorem, base_point):
    # each sweep asks for one rule of t per resolution (fine and halved), the
    # 4 radii's pieces sharing one union of nodes in each, and builds the node
    # scalars once, on both rules' nodes together: every node once, and each
    # grid smaller than its radii's rules; a surface calls its profile once
    from lkcurv import curvature

    x = sets[name]
    rules, sweeps, profiles = [], [], []  # the grids since the last scalars; nodes per sweep
    nodes_fn, scalars_fn = curvature.gauss_legendre_nodes, curvature._node_scalars

    def counted_nodes(*args, **kwargs):
        points, index, weights, ends = nodes_fn(*args, **kwargs)
        assert points.ndim == 1  # the profile parameter alone
        assert len(ends) == 5 and len(points) < len(index)
        rules.append(points)
        return points, index, weights, ends

    def counted_scalars(x, t, ks, center):
        assert len(rules) == 2 and np.array_equal(t, np.concatenate(rules))
        assert len(np.unique(t)) == len(t)
        sweeps.append(len(t))
        rules.clear()
        return scalars_fn(x, t, ks, center)

    shape = x.chart.shape
    surface = x.chart.rotation_axis is not None
    if surface:
        def counted_profile(t):
            profiles.append(len(t))
            return shape.profile(t)

        x = dataclasses.replace(x, chart=dataclasses.replace(
            x.chart, shape=shape._replace(profile=counted_profile)))
    monkeypatch.setattr(curvature, "gauss_legendre_nodes", counted_nodes)
    monkeypatch.setattr(curvature, "_node_scalars", counted_scalars)
    report = run_theorem(theorem, x, n_samples=500, seed=42, base_point=base_point)
    assert report.overall_pass
    # one sweep per assembly: base_point runs the shifted one and the origin one
    assert len(sweeps) == (1 if base_point is None else 2) and not rules
    assert profiles == (sweeps if surface else [])


def test_a_growth_identity_derives_each_quantity_once(monkeypatch):
    # thm3.7 on the hyperboloid asks k = 1, 2 and 3 one row at a time: only
    # k = 2 is live, so one sweep and one pair of limit fits, and the link
    # rules of its rows read one derivation of the quadric's adj(A); a second
    # call, on its own descriptor, derives its own
    from lkcurv import limits
    from lkcurv.catalog import links

    sweeps, fits, derivations = [], [], []
    sweep_fn, fit_fn, form_fn = (limits.measure_sweep, limits._fit_inverse_radius,
                                 links.quadric_form)

    def counted_sweep(x, ks, *args, **kwargs):
        sweeps.append(list(ks))
        return sweep_fn(x, ks, *args, **kwargs)

    def counted_fit(*args):
        fits.append(args)
        return fit_fn(*args)

    def counted_form(p):
        derivations.append(p)
        return form_fn(p)

    monkeypatch.setattr(limits, "measure_sweep", counted_sweep)
    monkeypatch.setattr(limits, "_fit_inverse_radius", counted_fit)
    monkeypatch.setattr(links, "quadric_form", counted_form)
    argv = ["verify", "--set", "hyperboloid_r3", "--theorem", "thm3.7", "--samples", "500"]
    assert cli.main(argv, out=io.StringIO()) == 0
    assert sweeps == [[2]] and len(fits) == 2 and len(derivations) == 1
    assert cli.main(argv, out=io.StringIO()) == 0
    assert len(sweeps) == 2 and len(fits) == 4 and len(derivations) == 2
    assert derivations[0] is not derivations[1]


@pytest.mark.parametrize("name", ["hyperboloid_r3", "plane_cone_r3", "twisted_cubic_r3"])
def test_a_run_validates_its_radius_schedule_once(sets, monkeypatch, name):
    # the run context validates the schedule, and every row's limit fit takes
    # it as it is; the public estimate_limit still validates its own radii
    from lkcurv import limits

    validate_fn, calls = limits.validate_radii, []

    def counted(radii):
        calls.append(radii)
        return validate_fn(radii)

    monkeypatch.setattr(limits, "validate_radii", counted)
    monkeypatch.setattr(verify, "validate_radii", counted)
    report = run_theorem("thm3.7", sets[name], n_samples=200, seed=42)
    assert report.overall_pass and len(report.rows) == 3
    assert len(calls) == 1
    limits.estimate_limit(sets[name], 1)
    assert len(calls) == 2


@pytest.mark.parametrize("theorem", verify.THEOREM_IDS)
def test_each_theorem_validates_its_radius_schedule_once(sets, monkeypatch, theorem):
    # base_point too: its shifted run takes its center as an argument, not a new context
    from lkcurv import limits

    validate_fn, calls = limits.validate_radii, []

    def counted(radii):
        calls.append(radii)
        return validate_fn(radii)

    monkeypatch.setattr(limits, "validate_radii", counted)
    monkeypatch.setattr(verify, "validate_radii", counted)
    name = "line_r3" if theorem == "prop3.1" else "twisted_cubic_r3"
    base_point = (0.5, 0.5, 0.5) if theorem == "base_point" else None
    report = run_theorem(theorem, sets[name], n_samples=200, seed=42, base_point=base_point)
    assert report.overall_pass
    assert len(calls) == 1


def test_vanishing_orders_never_reach_the_sweep(sets, monkeypatch):
    # an order above the dimension, or of odd codegree d - k, is 0 at every
    # node: its row is answered without a sweep, under the sweep's route
    from lkcurv import limits

    sweep_fn, swept = limits.measure_sweep, []

    def live_only(x, ks, *args, **kwargs):
        ks = list(ks)
        assert all(k <= x.dim and (x.dim - k) % 2 == 0 for k in ks), ks
        swept.append(ks)
        return sweep_fn(x, ks, *args, **kwargs)

    monkeypatch.setattr(limits, "measure_sweep", live_only)
    for name in ("hyperboloid_r3", "paraboloid_r3", "cylinder_r3", "twisted_cubic_r3",
                 "plane_r2_in_r3"):
        x = sets[name]
        for theorem in ("thm3.7", "thm3.9", "thm4.1", "thm4.2", "thm4.3", "odd_d_corollary"):
            run_theorem(theorem, x, n_samples=500, seed=42)
        vanishing = [k for k in range(4) if k > x.dim or (x.dim - k) % 2]
        for est in RunContext().limits(x, vanishing):
            assert (est.value, est.uncertainty, est.converged) == (0.0, 0.0, True)
            assert est.route == "cubature_limit", (name, est.k)
    assert swept


def test_thm39_non_circularity_routes(sets):
    report = run_theorem("thm3.9", sets["hyperboloid_r3"], n_samples=500, seed=42)
    row = report.rows[0]
    assert "curvature_cubature" in row.route_rhs
    assert "grassmann" not in row.route_rhs
    conic = run_theorem("thm3.9", sets["cross_r2"], n_samples=500, seed=42)
    assert "link_defect" in conic.rows[0].route_rhs


def test_thm39_line(sets):
    report = run_theorem("thm3.9", sets["line_r3"], n_samples=500, seed=42)
    assert report.overall_pass
    assert report.rows[0].rhs == pytest.approx(1.0, rel=1e-12)


def test_thm39_seed_stability(sets):
    a = run_theorem("thm3.9", sets["star3_cone_r3"], n_samples=500, seed=9)
    b = run_theorem("thm3.9", sets["star3_cone_r3"], n_samples=500, seed=9)
    assert report_strip(a) == report_strip(b)


def report_strip(report):
    doc = report_to_dict(report)
    doc.pop("elapsed_seconds")
    return doc


# ------------------------------------------------------------- smooth theorems


def test_thm43_sphere_exact(sets):
    report = run_theorem("thm4.3", sets["sphere_s2"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert row.lhs == 2.0
    assert row.rhs == pytest.approx(2.0, abs=1e-6)


def test_thm43_torus(sets):
    report = run_theorem("thm4.3", sets["torus_r3"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert abs(row.rhs) <= 1e-3


def test_thm43_hyperboloid_cancellation(sets):
    report = run_theorem("thm4.3", sets["hyperboloid_r3"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert "total_top_order_curvature" in row.route_rhs
    assert abs(row.rhs) <= 0.03


def test_odd_d_corollary_line_exact(sets):
    report = run_theorem("odd_d_corollary", sets["line_r3"], n_samples=500, seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert row.lhs == 1.0 and row.rhs == pytest.approx(1.0, rel=1e-12)
    assert row.uncertainty == 0.0


def test_odd_d_corollary_cubic(sets):
    report = run_theorem("odd_d_corollary", sets["twisted_cubic_r3"], n_samples=500,
                         seed=42)
    row = report.rows[0]
    assert report.overall_pass
    assert abs(row.rhs - 1.0) <= 0.02


def test_odd_d_corollary_skips_even_dimension(sets):
    report = run_theorem("odd_d_corollary", sets["sphere_s2"], n_samples=500, seed=42)
    assert report.status == "incomplete"
    assert not report.overall_pass


def test_thm41_thm42_hyperboloid(sets):
    rows = {}
    for tid in ("thm4.1", "thm4.2"):
        report = run_theorem(tid, sets["hyperboloid_r3"], n_samples=2000, seed=42)
        rows[tid] = rows_by_k(report)
        assert report.overall_pass, tid
        assert abs(rows[tid][2].lhs - math.sqrt(2.0)) <= 0.02
    # thm4.2 keeps the rows with d - k even; thm4.1 also has the 0 = 0 row k = 1
    assert sorted(rows["thm4.2"]) == [2]
    k1 = rows["thm4.1"][1]
    assert k1.lhs == 0.0 and abs(k1.rhs) <= 3.0 * k1.uncertainty + 1e-9


def test_thm42_uses_declared_chi_for_full_space(sets):
    report = run_theorem("thm4.2", sets["twisted_cubic_r3"], n_samples=500, seed=42)
    rows = rows_by_k(report)
    assert report.overall_pass
    assert "declared_chi" in rows[1].route_rhs


def test_skipped_growth_rows_keep_the_limit_route(sets):
    # a surface given by its chart alone: cubature reads the chart, but the
    # hyperplane links need an implicit form
    x = SmoothSet(chart=sets["hyperboloid_r3"].chart, declared_chi=0)
    routes = {}
    for tid in ("thm3.7", "thm4.1", "thm4.2"):
        row = rows_by_k(run_theorem(tid, x, "chart_only_hyperboloid", n_samples=200, seed=42))[2]
        assert row.skipped, tid
        routes[tid] = row.route_lhs
    assert routes == {tid: "cubature_limit" for tid in routes}


# ------------------------------------------------------------------ base point


def test_base_point_zero_shift_identical(sets):
    base = run_theorem("thm3.9", sets["cross_r2"], n_samples=500, seed=3)
    shifted = run_theorem("base_point", sets["cross_r2"], n_samples=500, seed=3,
                          base_point=[0.0, 0.0])
    assert shifted.rows[0].rhs == base.rows[0].rhs
    comparison = shifted.rows[1]
    assert comparison.lhs == comparison.rhs


def test_base_point_cross(sets):
    report = run_theorem("base_point", sets["cross_r2"], n_samples=500, seed=42,
                         base_point=[1.0, 2.0])
    assert report.overall_pass
    assert report.rows[0].lhs == 1.0
    assert abs(report.rows[0].rhs - 1.0) <= 3.0 * report.rows[0].uncertainty + 1e-9


def test_base_point_hyperboloid(sets):
    report = run_theorem("base_point", sets["hyperboloid_r3"], n_samples=500, seed=42,
                         base_point=[0.0, 0.0, 3.0])
    assert report.overall_pass


def test_base_point_validation(sets):
    with pytest.raises(ValueError):
        run_theorem("base_point", sets["cross_r2"], n_samples=500, seed=1,
                    base_point=[20.0, 0.0])
    with pytest.raises(ValueError):
        run_theorem("base_point", sets["cross_r2"], n_samples=500, seed=1,
                    base_point=[1.0, 2.0, 3.0])


def test_base_point_skips_coned_edges(sets):
    report = run_theorem("base_point", sets["plane_cone_r3"], n_samples=500, seed=1,
                         base_point=[1.0, 0.0, 0.0])
    assert report.status == "incomplete"
    assert not report.overall_pass


# ------------------------------------------------------------------ dispatcher


def test_run_theorem_dispatch(sets):
    report = run_theorem("thm3.9", sets["cross_r2"], set_name="cross_r2",
                         n_samples=500, seed=1)
    assert report.theorem_id == "thm3.9" and report.set_name == "cross_r2"
    with pytest.raises(ValueError):
        run_theorem("thm9.9", sets["cross_r2"])
    with pytest.raises(ValueError):
        run_theorem("base_point", sets["cross_r2"])
    with pytest.raises(ValueError):
        run_theorem("thm3.9", sets["cross_r2"], base_point=[1.0, 2.0])
    # radii whose b_k R^k underflows, or whose 1/R overflows, are refused
    # before any division by them
    for theorem, name, radius in (("thm3.7", "hyperboloid_r3", 1e-200),
                                  ("thm3.9", "sphere_s2", 1e-320)):
        with pytest.raises(ValueError, match="too small"):
            run_theorem(theorem, sets[name], radii=(radius, 2 * radius, 4 * radius))


def test_report_round_trip(sets):
    report = run_theorem("thm3.9", sets["cross_r2"], set_name="cross_r2", n_samples=500,
                         seed=5)
    doc = report_to_dict(report)
    back = report_from_dict(doc)
    assert report_to_dict(back) == doc


def test_skipped_row_report_is_strict_json(sets):
    report = run_theorem("odd_d_corollary", sets["sphere_s2"], set_name="sphere_s2",
                         n_samples=100, seed=1)
    assert report.rows[0].skipped

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = report_to_json(report)
    doc = json.loads(text, parse_constant=reject)
    assert doc["rows"][0]["lhs"] is None
    back = report_from_dict(doc)
    assert math.isnan(back.rows[0].lhs) and math.isnan(back.rows[0].uncertainty)
    assert report_to_json(back) == text


def test_settings_validation(sets):
    with pytest.raises(ValueError):
        run_theorem("thm3.9", sets["cross_r2"], n_samples=50, seed=1)
    with pytest.raises(ValueError):
        run_theorem("thm3.9", sets["cross_r2"], n_samples=500, seed=1,
                    radii=(8.0, 24.0, 48.0))
    with pytest.raises(ValueError):
        run_theorem("prop3.1", sets["cross_r2"], n_samples=500, seed=1,
                    radii=(float("nan"),) * 3)
