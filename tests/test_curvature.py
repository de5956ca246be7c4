import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import lkcurv as lk
from lkcurv import CoverageGapError, DegenerateChartError, UnsupportedSection
from lkcurv.catalog import SmoothSet
from lkcurv.catalog.charts import Chart, build_chart, gauss_legendre_nodes
from lkcurv.curvature import (
    CubatureSpec,
    _chart_frames,
    _lambda_batch,
    elementary_symmetric,
    lk_density,
    lk_measure_detailed,
    lk_measures_detailed,
    second_fundamental_form,
    weyl_density,
)
from lkcurv.geomconst import sphere_volume
from qr_frames import outward_normal, qr_density, qr_frames

PLANE_R2_IN_R4 = Path(__file__).resolve().parent / "sets" / "plane_r2_in_r4.json"


def jet_of(map_fn, jac_fn, hess_fn):
    """A chart jet from a hand-written map and its two derivatives."""
    return lambda u: (map_fn(u), jac_fn(u), hess_fn(u))


# --------------------------------------------------------- symmetric functions


def test_sigma_zero_is_one(rng):
    m = rng.standard_normal((5, 3, 3))
    m = m + np.swapaxes(m, -1, -2)
    assert np.all(elementary_symmetric(m, 0) == 1.0)


def test_sigma_identity_matrix():
    eye = np.eye(2)
    assert elementary_symmetric(eye, 1) == pytest.approx(2.0)
    assert elementary_symmetric(eye, 2) == pytest.approx(1.0)


def test_sigma_matches_eigenvalue_subset_sums(rng):
    # oracle: eigendecomposition plus explicit subset sums
    m = rng.standard_normal((4, 4))
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    for order in range(5):
        brute = sum(
            np.prod(combo) for combo in itertools.combinations(eigs, order)
        ) if order else 1.0
        got = float(elementary_symmetric(m, order))
        assert got == pytest.approx(brute, rel=1e-9, abs=1e-9)


# --------------------------------------------------- second fundamental forms


def test_sphere_form_eigenvalues(sets):
    for radius in (1.0, 2.0):
        x = SmoothSet(
            ambient_dim=3, dim=2,
            charts=(build_chart("sphere", params={"radius": radius}),),
            implicit=None, declared_chi=2, compact=True,
        )
        u = np.array([1.1, 0.4])
        nu = outward_normal(x, 0, u)
        form = second_fundamental_form(x, 0, u, nu)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(form.matrix)))
        assert np.allclose(eigs, [1.0 / radius, 1.0 / radius], atol=1e-10)


def test_plane_form_vanishes(sets):
    x = sets["plane_r2_in_r3"]
    form = second_fundamental_form(x, 0, np.array([2.0, 0.7]), np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(form.matrix)) < 1e-12


def test_cylinder_form_eigenvalues(sets):
    x = sets["cylinder_r3"]
    u = np.array([0.3, 1.7])
    nu = outward_normal(x, 0, u)
    form = second_fundamental_form(x, 0, u, nu)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(form.matrix)))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-10)


def test_form_symmetry_and_linearity(sets, rng):
    cubic = sets["twisted_cubic_r3"]
    u = np.array([0.8])
    frames = qr_frames(cubic.charts[0], u[None, :])
    n1 = frames.normal[0, :, 0]
    n2 = frames.normal[0, :, 1]
    f1 = second_fundamental_form(cubic, 0, u, n1).matrix
    f2 = second_fundamental_form(cubic, 0, u, n2).matrix
    combo = (n1 + n2) / np.linalg.norm(n1 + n2)
    f12 = second_fundamental_form(cubic, 0, u, combo).matrix
    assert np.allclose(f12 * np.linalg.norm(n1 + n2), f1 + f2, atol=1e-9)
    hyp = sets["hyperboloid_r3"]
    m = second_fundamental_form(hyp, 0, np.array([0.4, 1.3]),
                                outward_normal(hyp, 0, np.array([0.4, 1.3]))).matrix
    assert np.max(np.abs(m - m.T)) <= 1e-9 * max(np.max(np.abs(m)), 1e-300)


def test_non_normal_direction_rejected(sets):
    x = sets["plane_r2_in_r3"]
    with pytest.raises(ValueError):
        second_fundamental_form(x, 0, np.array([1.0, 0.2]), np.array([1.0, 0.0, 0.0]))


def test_degenerate_chart_detected():
    # a curve chart whose velocity vanishes at t = 0
    chart = build_chart(
        "poly_curve",
        params={"coefficients": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    x = SmoothSet(ambient_dim=3, dim=1, charts=(chart,), implicit=None,
                  declared_chi=1, compact=False)
    with pytest.raises(DegenerateChartError):
        second_fundamental_form(x, 0, np.array([0.0]), np.array([0.0, 1.0, 0.0]))


# ------------------------------------------------------------ weyl densities


def test_curve_order_zero_is_normal_sphere_area(sets):
    cubic = sets["twisted_cubic_r3"]
    dens = weyl_density(cubic, 0, np.array([0.5]), 0)
    assert dens.value == pytest.approx(sphere_volume(1), rel=1e-12)
    assert dens.stderr == 0.0


def test_sphere_order_two_density(sets):
    dens = weyl_density(sets["sphere_s2"], 0, np.array([0.9, 2.2]), 2)
    assert dens.value == pytest.approx(2.0, rel=1e-12)


def test_odd_orders_vanish_exactly(sets, rng):
    hyp = sets["hyperboloid_r3"]
    for _ in range(20):
        u = rng.uniform([0.0, -3.0], [2 * np.pi, 3.0])
        assert weyl_density(hyp, 0, u, 1).value == 0.0
    cubic = sets["twisted_cubic_r3"]
    for _ in range(20):
        u = rng.uniform([-2.0], [2.0], size=(1,))
        dens = weyl_density(cubic, 0, u, 1)
        assert dens.value == 0.0 and dens.stderr == 0.0


def test_codimension_two_density_is_exact():
    # the unit 2-sphere flatly embedded in R^4: the order-2 density integrates
    # cos^2 over the normal circle, which is half the circle length
    def lift(out):
        pad = np.zeros((out.shape[0], 1) + out.shape[2:])
        return np.concatenate([out, pad], axis=1)

    base = build_chart("sphere", params={"radius": 1.0})
    chart = build_chart("sphere", params={"radius": 1.0})
    chart.jet = lambda u: tuple(lift(out) for out in base.jet(u))
    chart.ambient_dim = 4
    chart.domain_fn = None
    chart.base_domain = np.array([[0.0, np.pi], [0.0, 2.0 * np.pi]])
    x = SmoothSet(ambient_dim=4, dim=2, charts=(chart,), implicit=None,
                  declared_chi=2, compact=True)
    dens = weyl_density(x, 0, np.array([1.2, 0.3]), 2)
    assert dens.stderr == 0.0
    assert dens.value == pytest.approx(math.pi, rel=1e-12)
    # order-0 curvature of the whole set is chi, independent of the embedding
    total, _ = lk_measure_detailed(x, 0, 2.0)
    assert total == pytest.approx(2.0, abs=1e-9)


def square_graph_r4():
    """Graph of z -> z^2 in R^4, (u, v, u^2 - v^2, 2uv): both normal forms
    are nonzero, so the normal-circle integral mixes them."""
    def map_fn(u):
        a, b = u[:, 0], u[:, 1]
        return np.stack([a, b, a * a - b * b, 2.0 * a * b], axis=1)

    def jac_fn(u):
        a, b = u[:, 0], u[:, 1]
        jac = np.zeros((u.shape[0], 4, 2))
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0
        jac[:, 2, 0], jac[:, 2, 1] = 2.0 * a, -2.0 * b
        jac[:, 3, 0], jac[:, 3, 1] = 2.0 * b, 2.0 * a
        return jac

    def hess_fn(u):
        hess = np.zeros((u.shape[0], 4, 2, 2))
        hess[:, 2, 0, 0], hess[:, 2, 1, 1] = 2.0, -2.0
        hess[:, 3, 0, 1] = hess[:, 3, 1, 0] = 2.0
        return hess

    chart = Chart("square_graph", 2, 4, jet_of(map_fn, jac_fn, hess_fn),
                  np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    return SmoothSet(ambient_dim=4, dim=2, charts=(chart,), implicit=None,
                     declared_chi=1, compact=False)


def test_codimension_two_density_matches_normal_circle_quadrature(rng):
    # oracle: sigma_2 of the form is a degree-2 trigonometric polynomial in the
    # normal angle, so the 64-point trapezoid rule on the circle is exact
    x = square_graph_r4()
    angles = 2.0 * math.pi * np.arange(64) / 64
    for u in rng.uniform(-2.0, 2.0, size=(20, 2)):
        jac = x.charts[0].jac_fn(u[None, :])[0]
        normals = np.linalg.svd(jac)[0][:, 2:]
        circle = 0.0
        for theta in angles:
            v = math.cos(theta) * normals[:, 0] + math.sin(theta) * normals[:, 1]
            form = second_fundamental_form(x, 0, u, v).matrix
            circle += np.linalg.det(form)  # sigma_2 of a 2x2 form
        circle *= 2.0 * math.pi / 64
        assert abs(circle) > 1e-3
        dens = weyl_density(x, 0, u, 2)
        assert dens.value == pytest.approx(circle, rel=1e-12, abs=1e-12)


def test_order_four_in_codimension_two_is_unsupported():
    # a flat 4-plane in R^6: the order-4 normal-sphere integral has no
    # closed form in the density layer
    def map_fn(u):
        return np.concatenate([u, np.zeros((u.shape[0], 2))], axis=1)

    def jac_fn(u):
        return np.broadcast_to(np.eye(6, 4), (u.shape[0], 6, 4)).copy()

    def hess_fn(u):
        return np.zeros((u.shape[0], 6, 4, 4))

    chart = Chart("flat4", 4, 6, jet_of(map_fn, jac_fn, hess_fn), np.array([[-1.0, 1.0]] * 4))
    x = SmoothSet(ambient_dim=6, dim=4, charts=(chart,), implicit=None,
                  declared_chi=1, compact=False)
    u = np.array([0.1, 0.2, 0.3, 0.4])
    assert weyl_density(x, 0, u, 2).value == 0.0
    with pytest.raises(UnsupportedSection):
        weyl_density(x, 0, u, 4)


# ------------------------------------------- coordinate form against QR frames


def quadric_graph(dim, ambient, seed):
    """Graph of u -> (u^T S_a u / 2)_a for random symmetric S_a."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    shapes = gen.standard_normal((ambient - dim, dim, dim))
    shapes = 0.5 * (shapes + np.swapaxes(shapes, 1, 2))

    def map_fn(u):
        return np.concatenate([u, 0.5 * np.einsum("bi,aij,bj->ba", u, shapes, u)], axis=1)

    def jac_fn(u):
        top = np.broadcast_to(np.eye(dim), (u.shape[0], dim, dim))
        return np.concatenate([top, np.einsum("aij,bj->bai", shapes, u)], axis=1)

    def hess_fn(u):
        hess = np.zeros((u.shape[0], ambient, dim, dim))
        hess[:, dim:] = shapes
        return hess

    chart = Chart(f"quadric{dim}", dim, ambient, jet_of(map_fn, jac_fn, hess_fn),
                  np.array([[-1.0, 1.0]] * dim))
    return SmoothSet(ambient_dim=ambient, dim=dim, charts=(chart,), implicit=None,
                     declared_chi=1, compact=False)


def oracle_cases(sets):
    cases = {name: x for name, x in sorted(sets.items()) if isinstance(x, SmoothSet)}
    cases["plane_r2_in_r4"] = lk.resolve_set(str(PLANE_R2_IN_R4))[1]
    cases["square_graph_r4"] = square_graph_r4()
    return cases


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_coordinate_density_matches_qr_oracle(sets):
    # every node of the R = 64 rule of each chart, every order
    for name, x in oracle_cases(sets).items():
        for chart in x.charts:
            box = chart.domain_for_ball(64.0, np.zeros(x.ambient_dim))
            if box is None:
                continue
            nodes, _ = gauss_legendre_nodes(box, CubatureSpec().counts(chart.dim),
                                            chart.panel_axes)
            frames = _chart_frames(chart, nodes)
            oracle = qr_frames(chart, nodes)
            assert_matches_oracle(frames.sqrt_gram, oracle.sqrt_gram)
            for k in range(x.dim + 1):
                assert_matches_oracle(_lambda_batch(x, frames, k), qr_density(x, oracle, k))


def test_quadric_graphs_match_qr_oracle(rng):
    # the builtin surfaces all have diagonal metrics; these graphs do not.
    # Surfaces in codimension 1 and 2 take the written-out path; dimension 3
    # in codimension 2 and dimension 4 in codimension 1 (orders 2 and 4) the
    # general contractions
    for dim, ambient in ((2, 3), (2, 4), (3, 5), (4, 5)):
        x = quadric_graph(dim, ambient, seed=dim)
        u = rng.uniform(-1.0, 1.0, size=(64, dim))
        frames = _chart_frames(x.charts[0], u)
        oracle = qr_frames(x.charts[0], u)
        assert_matches_oracle(frames.sqrt_gram, oracle.sqrt_gram)
        for k in range(dim + 1):
            assert_matches_oracle(_lambda_batch(x, frames, k), qr_density(x, oracle, k))
        assert np.max(np.abs(qr_density(x, oracle, dim - 2))) > 1e-3


def test_flat_plane_density_is_exactly_zero(sets):
    x = sets["plane_r2_in_r3"]
    chart = x.charts[0]
    nodes, _ = gauss_legendre_nodes(chart.domain_for_ball(64.0, np.zeros(3)),
                                    CubatureSpec().counts(2), chart.panel_axes)
    assert np.all(_lambda_batch(x, _chart_frames(chart, nodes), 0) == 0.0)
    assert lk_measure_detailed(x, 0, 64.0) == (0.0, 0.0)


def test_measures_of_several_orders_match_single_orders_bitwise(sets):
    for name in ("hyperboloid_r3", "torus_r3", "paraboloid_r3", "twisted_cubic_r3"):
        x = sets[name]
        for center in (None, np.array([0.5, 0.5, 0.5])):
            both = lk_measures_detailed(x, (0, 2), 16.0, center=center)
            single = [lk_measure_detailed(x, k, 16.0, center=center) for k in (0, 2)]
            assert both == single, name


def test_each_chart_box_is_fitted_once_per_radius(sets):
    for name in ("hyperboloid_r3", "torus_r3", "twisted_cubic_r3"):
        x = sets[name]
        calls = [0] * len(x.charts)

        def counted(i, domain_fn):
            def fit(radius, center):
                calls[i] += 1
                return domain_fn(radius, center)
            return fit

        charts = [dataclasses.replace(chart, domain_fn=counted(i, chart.domain_fn))
                  for i, chart in enumerate(x.charts)]
        counting = dataclasses.replace(x, charts=charts)
        for radius in (8.0, 16.0):
            assert (lk_measures_detailed(counting, (0, 1, 2), radius)
                    == lk_measures_detailed(x, (0, 1, 2), radius)), name
        assert calls == [2] * len(x.charts), name


# ------------------------------------------------------------------ densities


def test_top_order_density_is_one(sets, rng):
    for name in ("sphere_s2", "torus_r3", "cylinder_r3", "hyperboloid_r3",
                  "paraboloid_r3", "plane_r2_in_r3", "twisted_cubic_r3"):
        x = sets[name]
        chart = x.charts[0]
        box = chart.domain_for_ball(8.0, np.zeros(3))
        span = box[:, 1] - box[:, 0]
        u = rng.uniform(box[:, 0] + 0.05 * span, box[:, 1] - 0.05 * span,
                        size=(50, chart.dim))
        for point in u:
            assert lk_density(x, 0, point, x.dim) == pytest.approx(1.0, abs=1e-6), name


def test_plane_lower_densities_vanish(sets):
    x = sets["plane_r2_in_r3"]
    for k in (0, 1):
        assert lk_density(x, 0, np.array([1.5, 0.3]), k) == 0.0


def test_sphere_order_zero_density(sets):
    value = lk_density(sets["sphere_s2"], 0, np.array([0.4, 5.0]), 0)
    assert value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_density_above_dimension_is_zero(sets):
    assert lk_density(sets["sphere_s2"], 0, np.array([1.0, 1.0]), 3) == 0.0


# ------------------------------------------------------------------- measures


def test_sphere_measures(sets):
    sphere = sets["sphere_s2"]
    assert lk_measure_detailed(sphere, 2, 2.0)[0] == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert lk_measure_detailed(sphere, 0, 2.0)[0] == pytest.approx(2.0, abs=1e-6)


def test_plane_disk_measure(sets):
    plane = sets["plane_r2_in_r3"]
    for radius in (2.0, 4.0):
        assert lk_measure_detailed(plane, 2, radius)[0] == pytest.approx(
            math.pi * radius**2, rel=1e-10
        )


def test_hyperboloid_area_closed_form(sets):
    hyp = sets["hyperboloid_r3"]

    def exact_area(radius):
        z = math.sqrt((radius * radius - 1.0) / 2.0)
        return 2.0 * math.pi * (z * radius + math.asinh(math.sqrt(2.0) * z) / math.sqrt(2.0))

    for radius in (8.0, 32.0):
        assert lk_measure_detailed(hyp, 2, radius)[0] == pytest.approx(exact_area(radius), rel=1e-9)


def test_hyperboloid_total_curvature_oracle(sets):
    # Gauss-map oracle: the total curvature of the full surface is -2 sqrt(2) pi
    hyp = sets["hyperboloid_r3"]
    target = -2.0 * math.sqrt(2.0) * math.pi
    total = lk_measure_detailed(hyp, 0, 64.0)[0] * sphere_volume(2) / 2.0
    assert total == pytest.approx(target, rel=5e-3)


def test_torus_total_curvature_vanishes(sets):
    torus = sets["torus_r3"]
    assert abs(lk_measure_detailed(torus, 0, 8.0)[0]) < 1e-3
    area = lk_measure_detailed(torus, 2, 8.0)[0]
    assert area == pytest.approx(4.0 * math.pi**2 * 2.0 * 0.5, rel=1e-9)


def test_orientation_flip_leaves_measures_unchanged(sets):
    # reversing a chart parameter flips the normal frame orientation
    hyp = sets["hyperboloid_r3"]
    chart = hyp.charts[0]
    flipped = build_chart("hyperboloid_one_sheet")

    def flipped_jet(u):
        v = np.array(u, dtype=float)
        v[:, 0] = -v[:, 0]
        pts, jac, hess = (np.array(out) for out in chart.jet(v))
        jac[:, :, 0] = -jac[:, :, 0]  # first derivative in phi changes sign
        # mixed second derivatives flip once, phi-phi twice
        hess[:, :, 0, 1] = -hess[:, :, 0, 1]
        hess[:, :, 1, 0] = -hess[:, :, 1, 0]
        return pts, jac, hess

    flipped.jet = flipped_jet
    mirrored = SmoothSet(ambient_dim=3, dim=2, charts=(flipped,), implicit=None,
                         declared_chi=0, compact=False)
    for k in (0, 2):
        a = lk_measure_detailed(hyp, k, 8.0)[0]
        b = lk_measure_detailed(mirrored, k, 8.0)[0]
        assert a == pytest.approx(b, abs=1e-9 + 1e-9 * abs(a))


def test_cubature_doubling_convergence(sets):
    spec = CubatureSpec()
    doubled = CubatureSpec(nodes_2d=256, nodes_1d=8192)
    # a curve's panels hold at most 64 nodes, which the default rule already
    # uses, so the curve is compared with the halved rule (32 per panel)
    halved = spec.halved()
    for name, k, other in [("hyperboloid_r3", 2, doubled), ("hyperboloid_r3", 0, doubled),
                           ("paraboloid_r3", 2, doubled), ("twisted_cubic_r3", 1, halved)]:
        x = sets[name]
        a = lk_measure_detailed(x, k, 8.0, spec=spec)[0]
        b = lk_measure_detailed(x, k, 8.0, spec=other)[0]
        scale = max(abs(a), 1e-6)
        assert abs(a - b) / scale < 2e-3, name


def test_halved_curve_rule_has_fewer_nodes(sets):
    # a curve's error bound compares two rules; they must differ in size
    chart = sets["twisted_cubic_r3"].charts[0]
    box = chart.domain_for_ball(8.0, np.zeros(3))
    spec = CubatureSpec()
    fine, _ = gauss_legendre_nodes(box, spec.counts(1), chart.panel_axes)
    coarse, _ = gauss_legendre_nodes(box, spec.halved().counts(1), chart.panel_axes)
    assert len(coarse) < len(fine)


# --------------------------------------------------------- partition of unity


def smooth_ramp(t):
    # C^2 quintic step
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def make_two_chart_torus(break_weights=False):
    delta = 0.4
    low = build_chart("torus", params={"major_radius": 2.0, "minor_radius": 0.5})
    high = build_chart("torus", params={"major_radius": 2.0, "minor_radius": 0.5})
    low.base_domain = np.array([[-delta, math.pi + delta], [0.0, 2.0 * math.pi]])
    low.domain_fn = None
    high.base_domain = np.array([[math.pi - delta, 2.0 * math.pi + delta],
                                 [0.0, 2.0 * math.pi]])
    high.domain_fn = None
    scale = 0.9 if break_weights else 1.0

    def weight_low(pts):
        # periodic trapezoid supported on the low chart's angular arc
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        offset = np.mod(phi - math.pi / 2.0 + math.pi, 2.0 * math.pi) - math.pi
        outer = math.pi / 2.0 + delta
        return scale * smooth_ramp((outer - np.abs(offset)) / (2.0 * delta))

    low.weight_fn = weight_low
    high.weight_fn = lambda pts: scale - weight_low(pts)
    return SmoothSet(ambient_dim=3, dim=2, charts=(low, high), implicit=None,
                     declared_chi=0, compact=True)


def test_two_chart_partition_matches_single_chart(sets):
    two = make_two_chart_torus()
    single = sets["torus_r3"]
    a = lk_measure_detailed(two, 2, 8.0)[0]
    b = lk_measure_detailed(single, 2, 8.0)[0]
    assert a == pytest.approx(b, rel=1e-6)


def test_coverage_gap_detected():
    broken = make_two_chart_torus(break_weights=True)
    with pytest.raises(CoverageGapError):
        lk_measure_detailed(broken, 2, 8.0)[0]
