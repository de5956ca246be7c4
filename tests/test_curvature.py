import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lkcurv as lk
from lkcurv import DegenerateChartError, UnsupportedSection
from lkcurv.catalog import SmoothSet
from lkcurv import curvature
from lkcurv.catalog.charts import (
    Chart, build_chart, gauss_legendre_nodes, tangent_gram,
)
from lkcurv.catalog.sets import _trace_box
from lkcurv.curvature import (
    CubatureSpec,
    _chart_frames,
    _lambda_batch,
    arc_share,
    lk_measure_detailed,
    lk_measures_sweep,
)
from lkcurv.geomconst import sphere_volume
from axis_rule import axis_rule
from qr_frames import (
    elementary_symmetric,
    form_at,
    outward_normal,
    point_density,
    qr_density,
    qr_frames,
)

PLANE_R2_IN_R4 = Path(__file__).resolve().parent / "sets" / "plane_r2_in_r4.json"


def jet_of(map_fn, jac_fn, hess_fn):
    """A chart jet from a hand-written map and its two derivatives."""
    return lambda u: (map_fn(u), jac_fn(u), hess_fn(u))


def no_intervals(radii, center, t_range):
    """The ball intervals of a chart that is neither a curve nor a surface of
    revolution: the cubature refuses it before it asks for them."""
    raise AssertionError("ball intervals asked of a chart the cubature refuses")


def box_nodes(chart, box, count):
    """The tensor grid of a Gauss-Legendre rule of ``count`` nodes on each axis
    of the parameter box, paneled on t where the chart's is."""
    axes = [gauss_legendre_nodes(box[d], count, chart.paneled and d == chart.profile_axis)[0]
            for d in range(chart.dim)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


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
        x = SmoothSet(build_chart("sphere", params={"radius": radius}), declared_chi=2)
        u = np.array([1.1, 0.4])
        nu = outward_normal(x, u)
        form = form_at(x.chart, u, nu)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(form)))
        assert np.allclose(eigs, [1.0 / radius, 1.0 / radius], atol=1e-10)


def test_plane_form_vanishes(sets):
    x = sets["plane_r2_in_r3"]
    form = form_at(x.chart, np.array([2.0, 0.7]), np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(form)) < 1e-12


def test_cylinder_form_eigenvalues(sets):
    x = sets["cylinder_r3"]
    u = np.array([0.3, 1.7])
    nu = outward_normal(x, u)
    form = form_at(x.chart, u, nu)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(form)))
    assert np.allclose(eigs, [0.0, 1.0], atol=1e-10)


def test_form_symmetry_and_linearity(sets, rng):
    cubic = sets["twisted_cubic_r3"]
    u = np.array([0.8])
    frames = qr_frames(cubic.chart, u[None, :])
    n1 = frames.normal[0, :, 0]
    n2 = frames.normal[0, :, 1]
    f1 = form_at(cubic.chart, u, n1)
    f2 = form_at(cubic.chart, u, n2)
    combo = (n1 + n2) / np.linalg.norm(n1 + n2)
    f12 = form_at(cubic.chart, u, combo)
    assert np.allclose(f12 * np.linalg.norm(n1 + n2), f1 + f2, atol=1e-9)
    hyp = sets["hyperboloid_r3"]
    m = form_at(hyp.chart, np.array([0.4, 1.3]), outward_normal(hyp, np.array([0.4, 1.3])))
    assert np.max(np.abs(m - m.T)) <= 1e-9 * max(np.max(np.abs(m)), 1e-300)


def test_degenerate_chart_detected():
    # a curve chart whose velocity vanishes at t = 0
    chart = build_chart(
        "poly_curve",
        params={"coefficients": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    with pytest.raises(DegenerateChartError):
        _chart_frames(chart, np.array([[0.0]]))


def test_tangent_frame_rule_is_scale_free():
    # an orthonormal frame, and one whose columns are 1e-7 apart in angle
    sound = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]])
    flat = np.array([[[1.0, 1.0], [0.0, 1e-7], [0.0, 0.0]]])
    for scale in (1e-60, 1e-7, 1.0, 1e7, 1e60):
        assert not tangent_gram(scale * sound)[1], scale
        assert tangent_gram(scale * flat)[1], scale
        assert not tangent_gram(scale * sound[:, :, :1])[1], scale
    # a zero column is degenerate at every scale; a frame whose g11 g22
    # overflows is too large to judge
    assert tangent_gram(np.zeros((1, 3, 2)))[1] and tangent_gram(np.zeros((1, 3, 1)))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not tangent_gram(1e160 * flat)[1]


# ---------------------------------------------------- normal-sphere integrals


def test_curve_order_zero_is_normal_sphere_area(sets):
    # order 0 of a curve in R^3 is the density of k = 1 times |S^1|
    cubic = sets["twisted_cubic_r3"]
    value = point_density(cubic, np.array([0.5]), 1) * sphere_volume(1)
    assert value == pytest.approx(sphere_volume(1), rel=1e-12)


def test_sphere_order_two_density(sets):
    value = point_density(sets["sphere_s2"], np.array([0.9, 2.2]), 0) * sphere_volume(2)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_odd_orders_vanish_exactly(sets, rng):
    hyp = sets["hyperboloid_r3"]
    for _ in range(20):
        u = rng.uniform([0.0, -3.0], [2 * np.pi, 3.0])
        assert point_density(hyp, u, 1) == 0.0
    cubic = sets["twisted_cubic_r3"]
    for _ in range(20):
        u = rng.uniform([-2.0], [2.0], size=(1,))
        assert point_density(cubic, u, 0) == 0.0


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
    # the lifted circles stay round, so the sweep takes the profile route
    chart.interval_fn = lambda radii, center, t_range: base.interval_fn(
        radii, center[:3], t_range)
    x = SmoothSet(chart, declared_chi=2)
    value = point_density(x, np.array([1.2, 0.3]), 0) * sphere_volume(3)
    assert value == pytest.approx(math.pi, rel=1e-12)
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
                  np.array([[-3.0, 3.0], [-3.0, 3.0]]), no_intervals)
    return SmoothSet(chart, declared_chi=1)


def test_codimension_two_density_matches_normal_circle_quadrature(rng):
    # oracle: sigma_2 of the form is a degree-2 trigonometric polynomial in the
    # normal angle, so the 64-point trapezoid rule on the circle is exact
    x = square_graph_r4()
    angles = 2.0 * math.pi * np.arange(64) / 64
    for u in rng.uniform(-2.0, 2.0, size=(20, 2)):
        jac = x.chart.jet(u[None, :])[1][0]
        normals = np.linalg.svd(jac)[0][:, 2:]
        circle = 0.0
        for theta in angles:
            v = math.cos(theta) * normals[:, 0] + math.sin(theta) * normals[:, 1]
            form = form_at(x.chart, u, v)
            circle += np.linalg.det(form)  # sigma_2 of a 2x2 form
        circle *= 2.0 * math.pi / 64
        assert abs(circle) > 1e-3
        value = point_density(x, u, 0) * sphere_volume(3)
        assert value == pytest.approx(circle, rel=1e-12, abs=1e-12)


def test_three_dimensional_chart_is_unsupported(monkeypatch):
    # a flat 3-cube in R^4 and a surface with no rotation axis: the cubature
    # takes curves and surfaces of revolution only, and the refusal comes
    # before any grid is built, whichever orders are live
    def map_fn(u):
        return np.concatenate([u, np.zeros((u.shape[0], 1))], axis=1)

    def jac_fn(u):
        return np.broadcast_to(np.eye(4, 3), (u.shape[0], 4, 3)).copy()

    def hess_fn(u):
        return np.zeros((u.shape[0], 4, 3, 3))

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built for a chart the cubature refuses")

    monkeypatch.setattr(curvature, "gauss_legendre_nodes", no_grid)
    chart = Chart("flat3", 3, 4, jet_of(map_fn, jac_fn, hess_fn), np.array([[-1.0, 1.0]] * 3),
                  no_intervals)
    flat3 = SmoothSet(chart, declared_chi=1)
    for x in (flat3, square_graph_r4()):
        label = x.chart.label
        with pytest.raises(UnsupportedSection, match="curves and surfaces"):
            lk.curvature_measures(x, (1, 3), 2.0)
        with pytest.raises(UnsupportedSection):
            lk.curvature_measures(x, (0,), 2.0)  # no live order on the 3-cube
        # both boxed charts are compact, so their orders k >= 1 are answered
        # exactly and their odd orders vanish, and no cubature would run: the
        # refusal must not depend on that
        assert x.compact, label
        for theorem in ("thm3.9", "thm4.3", "du_lambda0"):
            report = lk.run_theorem(theorem, x, n_samples=100, seed=42)
            assert [row.skipped for row in report.rows] == [True], (label, theorem)
            assert "curves and surfaces" in report.rows[0].reason, (label, theorem)
        # the growth identities skip every order at the left side's refusal
        for theorem in ("thm3.7", "cor3.8", "thm4.1", "thm4.2"):
            report = lk.run_theorem(theorem, x, n_samples=100, seed=42)
            assert report.status == "incomplete" and report.rows, (label, theorem)
            for row in report.rows:
                assert row.skipped and "curves and surfaces" in row.reason, (label, theorem, row.k)


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
                  np.array([[-1.0, 1.0]] * dim), no_intervals)
    return SmoothSet(chart, declared_chi=1)


# a plane set file whose frame rows are neither unit nor orthogonal, off the origin
SKEWED_PLANE = {
    "name": "skewed_plane_r4", "ambient_dim": 4, "kind": "smooth", "dim": 2,
    "charts": [{"map": "plane", "params": {
        "frame": [[1.0, 0.3, -0.2, 0.1], [0.4, 1.1, 0.5, 0.0]],
        "origin": [0.3, -0.2, 0.1, 0.5]}}],
    "declared_chi": 1, "compact": False,
}


# a torus patch from a set file's domain: phi = 0 lies outside it
TORUS_PATCH = {
    "name": "torus_patch_r3", "ambient_dim": 3, "kind": "smooth", "dim": 2,
    "charts": [{"map": "torus", "domain": [[0.4, 5.5], [-1.0, 2.0]],
                "params": {"major_radius": 2.0, "minor_radius": 0.5}}],
    "declared_chi": 1, "compact": True,
}


def set_file(tmp_path, doc):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return lk.resolve_set(str(path))[1]


def oracle_cases(sets):
    cases = {name: x for name, x in sorted(sets.items()) if isinstance(x, SmoothSet)}
    cases["plane_r2_in_r4"] = lk.resolve_set(str(PLANE_R2_IN_R4))[1]
    return cases


def revolution_cases(sets, tmp_path):
    cases = {name: x for name, x in oracle_cases(sets).items()
             if x.chart.rotation_axis is not None}
    for doc in (SKEWED_PLANE, TORUS_PATCH):
        cases[doc["name"]] = set_file(tmp_path, doc)
    return cases


def test_builtin_surfaces_are_surfaces_of_revolution(sets):
    # every builtin surface takes the profile cubature; the rest are curves
    cases = oracle_cases(sets)
    rotating = {name for name, x in cases.items() if x.chart.rotation_axis is not None}
    assert rotating == {"cylinder_r3", "hyperboloid_r3", "paraboloid_r3", "plane_r2_in_r3",
                        "plane_r2_in_r4", "sphere_s2", "torus_r3"}
    assert all(cases[name].chart.dim == 1 for name in cases.keys() - rotating)


def test_revolution_densities_do_not_depend_on_phi(sets, tmp_path, rng):
    # the premise of the profile cubature: at every profile node, sqrt det G
    # and every order's density are those at phi = 0
    for name, x in revolution_cases(sets, tmp_path).items():
        chart, axis = x.chart, x.chart.rotation_axis
        box = _trace_box(chart, 8.0, np.zeros(x.ambient_dim))
        u = rng.uniform(box[:, 0], box[:, 1], size=(200, 2))
        u[:, axis] = rng.uniform(-math.pi, 3.0 * math.pi, size=200)
        profile = u.copy()
        profile[:, axis] = 0.0
        turned, fixed = _chart_frames(chart, u), _chart_frames(chart, profile)
        np.testing.assert_allclose(turned.sqrt_gram, fixed.sqrt_gram, rtol=1e-12, atol=1e-14)
        for k in range(x.dim + 1):
            np.testing.assert_allclose(_lambda_batch(x, turned, k), _lambda_batch(x, fixed, k),
                                       rtol=1e-12, atol=1e-14, err_msg=f"{name} k={k}")


def assert_matches_oracle(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_coordinate_density_matches_qr_oracle(sets):
    # every node of the R = 64 box's tensor rule of each chart, every order;
    # the graph of z -> z^2 has no ball intervals and takes its own box
    graph = square_graph_r4()
    cases = [(x, _trace_box(x.chart, 64.0, np.zeros(x.ambient_dim)))
             for x in oracle_cases(sets).values()]
    for x, box in cases + [(graph, graph.chart.base_domain)]:
        chart = x.chart
        nodes = box_nodes(chart, box, CubatureSpec().count(chart.dim))
        frames = _chart_frames(chart, nodes)
        oracle = qr_frames(chart, nodes)
        assert_matches_oracle(frames.sqrt_gram, oracle.sqrt_gram)
        for k in range(x.dim + 1):
            assert_matches_oracle(_lambda_batch(x, frames, k), qr_density(x, oracle, k))


def test_quadric_graphs_match_qr_oracle(rng):
    # the builtin surfaces all have diagonal metrics; these graphs do not.
    # Surfaces in codimension 1 and 2 take the two written-out formulas
    for dim, ambient in ((2, 3), (2, 4)):
        x = quadric_graph(dim, ambient, seed=dim)
        u = rng.uniform(-1.0, 1.0, size=(64, dim))
        frames = _chart_frames(x.chart, u)
        oracle = qr_frames(x.chart, u)
        assert_matches_oracle(frames.sqrt_gram, oracle.sqrt_gram)
        for k in range(dim + 1):
            assert_matches_oracle(_lambda_batch(x, frames, k), qr_density(x, oracle, k))
        assert np.max(np.abs(qr_density(x, oracle, dim - 2))) > 1e-3


def test_flat_plane_density_is_exactly_zero(sets):
    x = sets["plane_r2_in_r3"]
    chart = x.chart
    nodes = box_nodes(chart, _trace_box(chart, 64.0, np.zeros(3)), CubatureSpec().count(2))
    assert np.all(_lambda_batch(x, _chart_frames(chart, nodes), 0) == 0.0)
    assert lk_measure_detailed(x, 0, 64.0) == (0.0, 0.0)


def test_measures_of_several_orders_match_single_orders_bitwise(sets):
    for name in ("hyperboloid_r3", "torus_r3", "paraboloid_r3", "twisted_cubic_r3"):
        x = sets[name]
        for center in (None, np.array([0.5, 0.5, 0.5])):
            both = lk_measures_sweep(x, (0, 2), (16.0,), center=center)[0]
            single = [lk_measure_detailed(x, k, 16.0, center=center) for k in (0, 2)]
            assert both == single, name


def test_each_chart_box_is_fitted_once_per_radius(sets):
    # a sweep solves its radii's intervals in one call, shared by both rules
    for name in ("hyperboloid_r3", "torus_r3", "twisted_cubic_r3"):
        x = sets[name]
        calls = []

        def fit(radii, center, t_range, interval_fn=x.chart.interval_fn):
            calls.append(tuple(radii))
            return interval_fn(radii, center, t_range)

        counting = dataclasses.replace(
            x, chart=dataclasses.replace(x.chart, interval_fn=fit))
        for radius in (8.0, 16.0):
            assert (lk_measures_sweep(counting, (0, 1, 2), (radius,))
                    == lk_measures_sweep(x, (0, 1, 2), (radius,))), name
        assert calls == [(8.0,), (16.0,)], name
        lk_measures_sweep(counting, (0, 1, 2), (8.0, 16.0))
        assert calls == [(8.0,), (16.0,), (8.0, 16.0)], name


# --------------------------------------------------------------- radius sweeps

SWEEP = (8.0, 16.0, 32.0, 64.0)


def direct_measures(x, ks, radius, spec, center):
    """Measures from the whole tensor grid with its inside mask: the chart's
    pieces of t by a Gauss-Legendre rule on phi.  Where the ball is centered
    on a surface's axis this is the profile rule with the phi rule's weights
    summed."""
    totals = [0.0] * len(ks)
    chart = x.chart
    count = spec.count(chart.dim)
    t, axis = chart.profile_axis, chart.rotation_axis
    axes = [profile_rule(chart, radius, center, count)] * chart.dim
    if axes[t] is None:
        return totals
    if axis is not None:
        axes[axis] = axis_rule(*(chart.phi_range() or (0.0, 2.0 * np.pi)), count, False)
    grids = np.meshgrid(*(nodes for nodes, _ in axes), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for w in np.meshgrid(*(w for _, w in axes), indexing="ij"):
        weights = weights * w.ravel()
    frames = _chart_frames(chart, nodes)
    inside = np.sum((frames.positions - center) ** 2, axis=1) <= radius * radius * (1.0 + 1e-12)
    factor = weights * frames.sqrt_gram * inside
    for i, k in enumerate(ks):
        totals[i] += float(np.sum(factor * _lambda_batch(x, frames, k)))
    return totals


def reduced_measures(x, ks, radius, spec, center, terms=None):
    """Measures from the chart's own rule for this radius on a builtin chart:
    frames on its profile nodes at phi = 0 and, on a surface, per profile
    node the closed-form measure of the phi inside the ball, in the sweep's
    order of operations.  ``terms(chart, u, center)`` gives A, B, C in place
    of the sweep's reading of the jet."""
    totals = [0.0] * len(ks)
    chart = x.chart
    t = chart.profile_axis
    rule = profile_rule(chart, radius, center, spec.count(chart.dim))
    if rule is None:
        return totals
    t_nodes, t_weights = rule
    u = np.zeros((len(t_nodes), chart.dim))
    u[:, t] = t_nodes
    frames = _chart_frames(chart, u)
    # a curve's nodes all lie inside the ball; a surface's profile nodes
    # carry the measure of the phi of their circle inside it
    share = 1.0
    if chart.rotation_axis is not None:
        a, b, c = (curvature._ball_terms(frames, center, chart.rotation_axis)
                   if terms is None else terms(chart, u, center))
        share = arc_share(a - radius * radius, b, c, chart.phi_range())
    factor = t_weights * frames.sqrt_gram * share
    for i, k in enumerate(ks):
        totals[i] += float(np.sum(factor * _lambda_batch(x, frames, k)))
    return totals


def assert_sweep_is_bitwise(x, radii, center, name):
    ks = list(range(x.ambient_dim + 1))
    sweep = lk_measures_sweep(x, ks, radii, center=center)
    # a sweep of many radii is a sweep of each radius alone ...
    assert sweep == [lk_measures_sweep(x, ks, (r,), center=center)[0] for r in radii], name
    # ... and each radius gets the bits of its own rule on t
    c = np.zeros(x.ambient_dim) if center is None else center
    for radius, pairs in zip(radii, sweep):
        assert pairs == oracle_pairs(reduced_measures, x, ks, radius, c), (name, radius)


def oracle_pairs(oracle, x, ks, radius, center):
    """(value, bound) of each order from one radius's oracle at both rules."""
    live = [k for k in ks if k <= x.dim and (x.dim - k) % 2 == 0]
    spec = CubatureSpec()
    fine = oracle(x, live, radius, spec, center)
    coarse = oracle(x, live, radius, spec.halved(), center)
    want = dict(zip(live, zip(fine, (abs(a - b) for a, b in zip(fine, coarse)))))
    return [want.get(k, (0.0, 0.0)) for k in ks]


def profile_rule(chart, radius, center, count):
    """Nodes and weights of t for one radius: a Gauss-Legendre rule on each
    piece of ``Chart.ball_intervals``, concatenated."""
    rules = [axis_rule(lo, hi, count, chart.paneled)
             for lo, hi in chart.ball_intervals((radius,), center)[0]]
    if not rules:
        return None
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def test_sweep_matches_one_radius_calls_bitwise(sets, tmp_path):
    cases = {**oracle_cases(sets), **revolution_cases(sets, tmp_path)}
    for name, x in cases.items():
        for center in (None, np.full(x.ambient_dim, 0.5)):
            assert_sweep_is_bitwise(x, SWEEP, center, name)
    assert_sweep_is_bitwise(sets["hyperboloid_r3"], SWEEP, np.array([0.0, 0.0, 3.0]),
                            "hyperboloid_r3 at (0, 0, 3)")


def test_off_center_sphere_sweep_is_bitwise(sets):
    x = sets["sphere_s2"]
    # the balls cut the sphere differently: a cap, two pieces and the whole
    center = np.full(3, 0.5)
    pieces = x.chart.ball_intervals((0.5, 1.0, 2.0), center)
    assert [len(p) for p in pieces] == [1, 2, 1]
    assert pieces[2].tolist() == [[0.0, np.pi]]
    assert_sweep_is_bitwise(x, (0.5, 1.0, 2.0), center, "sphere_s2 at (0.5, 0.5, 0.5)")
    # the chart misses the smallest ball, which then measures nothing
    far = np.array([3.0, 0.0, 0.0])
    assert len(x.chart.ball_intervals((1.0,), far)[0]) == 0
    assert_sweep_is_bitwise(x, (1.0, 2.5, 4.0), far, "sphere_s2 at (3, 0, 0)")
    assert lk_measures_sweep(x, (0, 2), (1.0,), center=far) == [[(0.0, 0.0), (0.0, 0.0)]]


# centers of the whole-grid comparison: on and off every axis, inside and
# outside the sets, and far enough out that small balls miss some of them
ORACLE_CENTERS = ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.5, 0.7, 3.0), (0.4, 0.3, 1.0),
                  (0.0, 0.0, 3.0), (3.0, 0.0, 0.0), (-2.2, 1.9, 0.3))
ORACLE_RADII = (1.2, 2.5, 8.0, 16.0, 32.0, 64.0)


def point_terms(chart, u, center):
    """A, B, C from the points at phi = 0, pi / 2 and pi alone."""
    def dist2(phi):
        turned = u.copy()
        turned[:, chart.rotation_axis] = phi
        return np.sum((chart.jet(turned)[0] - center) ** 2, axis=1)

    at0, at_quarter, at_half = dist2(0.0), dist2(0.5 * np.pi), dist2(np.pi)
    middle = 0.5 * (at0 + at_half)
    return np.stack([middle, 0.5 * (at0 - at_half), at_quarter - middle])


def on_axis(chart, center):
    """Whether the ball's center lies on the surface's axis: then every
    profile circle keeps one distance from it."""
    u = np.full((3, 2), 0.7)
    u[:, chart.rotation_axis] = (0.5, 1.5, 2.5)
    dist2 = np.sum((chart.jet(u)[0] - center) ** 2, axis=1)
    return np.ptp(dist2) <= 1e-12 * np.max(dist2)


def test_profile_sweep_matches_whole_grid_rule(sets, tmp_path):
    # on the axis the profile cubature is the whole-grid rule summed in
    # another order; off it, each profile node carries the closed-form phi
    # measure, here from A, B and C read off three points of its circle
    checked = set()
    for name, x in revolution_cases(sets, tmp_path).items():
        ks = list(range(x.ambient_dim + 1))
        for center in ORACLE_CENTERS:
            c = np.zeros(x.ambient_dim)
            c[:3] = center
            centered = on_axis(x.chart, c)
            checked.add(centered)
            oracle = direct_measures if centered else functools.partial(
                reduced_measures, terms=point_terms)
            sweep = lk_measures_sweep(x, ks, ORACLE_RADII, center=c)
            for radius, pairs in zip(ORACLE_RADII, sweep):
                want = oracle_pairs(oracle, x, ks, radius, c)
                for k, got, (value, bound) in zip(ks, pairs, want):
                    tol = 1e-12 * max(abs(value), 1.0)
                    assert abs(got[0] - value) <= tol, (name, center, radius, k)
                    assert abs(got[1] - bound) <= tol, (name, center, radius, k)
    assert checked == {True, False}


def test_sweep_grid_is_the_union_of_each_radius_rule(sets):
    for name in ("hyperboloid_r3", "paraboloid_r3", "twisted_cubic_r3", "torus_r3"):
        chart = sets[name].chart
        # one piece of t per centered radius
        pieces = np.concatenate(chart.ball_intervals(SWEEP, np.zeros(3)))
        count = CubatureSpec().count(chart.dim)
        points, rules = gauss_legendre_nodes(pieces, count, chart.paneled)
        assert len(rules) == len(SWEEP)
        seen = np.zeros(len(points), dtype=bool)
        for piece, (index, weights) in zip(pieces, rules):
            own, ((_, own_weights),) = gauss_legendre_nodes(piece, count, chart.paneled)
            assert np.array_equal(points[index], own), name
            assert np.array_equal(weights, own_weights), name
            seen[index] = True
        # the radii's rules share the grid, and no grid node is wasted
        assert seen.all(), name


# ------------------------------------------------------------ arc shares


def sampled_share(gap, cos_coef, sin_coef, lo, hi, count=20000):
    """The share of phi in [lo, hi] where gap + cos_coef cos phi + sin_coef
    sin phi <= 0, from the midpoints of ``count`` equal cells."""
    phi = lo + (hi - lo) * (np.arange(count) + 0.5) / count
    inside = gap[:, None] + np.outer(cos_coef, np.cos(phi)) + np.outer(sin_coef, np.sin(phi)) <= 0
    return (hi - lo) * np.mean(inside, axis=1)


def test_arc_share_matches_sampled_fraction(rng):
    # random circles, some wholly inside or outside and some centered on the
    # axis (B = C = 0), over the whole circle, a clipped range and ranges of
    # more than one turn; each arc end costs the sampled share one cell
    gap = rng.uniform(-3.0, 3.0, 300)
    cos_coef, sin_coef = rng.standard_normal((2, 300))
    cos_coef[:30] = sin_coef[:30] = 0.0
    for phi_range in (None, (0.4, 5.5), (-1.0, 9.0), (-20.0, -19.5)):
        lo, hi = phi_range or (0.0, 2.0 * np.pi)
        got = arc_share(gap, cos_coef, sin_coef, phi_range)
        cells = np.ceil((hi - lo) / (2.0 * np.pi)) * 2.0 + 2.0
        np.testing.assert_allclose(got, sampled_share(gap, cos_coef, sin_coef, lo, hi),
                                   rtol=0, atol=cells * (hi - lo) / 20000, err_msg=str(phi_range))
    assert np.all(arc_share(gap[:30], cos_coef[:30], sin_coef[:30], None)
                  == np.where(gap[:30] <= 0.0, 2.0 * np.pi, 0.0))


def test_arc_share_of_chart_circles_matches_sampled_points(sets, tmp_path):
    # on the skewed plane set file, the torus patch and the hyperboloid, the
    # sweep's A, B and C give each profile node the share of its own circle's
    # points inside the ball (2,000 points per circle, each arc end costing one)
    cases = [set_file(tmp_path, SKEWED_PLANE), set_file(tmp_path, TORUS_PATCH),
             sets["hyperboloid_r3"]]
    for x in cases:
        chart, axis = x.chart, x.chart.rotation_axis
        center = np.zeros(x.ambient_dim)
        center[:3] = (0.4, 0.3, 1.0)
        for radius in (1.5, 2.5, 8.0):
            pieces = chart.ball_intervals((radius,), center)[0]
            t = np.linspace(pieces[0, 0], pieces[-1, 1], 21)[1:-1]
            u = np.zeros((len(t), 2))
            u[:, 1 - axis] = t
            terms = curvature._ball_terms(_chart_frames(chart, u), center, axis)
            got = arc_share(terms[0] - radius * radius, terms[1], terms[2], chart.phi_range())
            lo, hi = chart.phi_range() or (0.0, 2.0 * np.pi)
            phi = lo + (hi - lo) * (np.arange(2000) + 0.5) / 2000
            grid = np.repeat(u, len(phi), axis=0)
            grid[:, axis] = np.tile(phi, len(t))
            dist2 = np.sum((chart.jet(grid)[0] - center) ** 2, axis=1).reshape(len(t), -1)
            want = (hi - lo) * np.mean(dist2 <= radius * radius, axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=4.0 * (hi - lo) / 2000,
                                       err_msg=f"{chart.label} R = {radius}")


# ------------------------------------------------------------------ densities


def test_top_order_density_is_one(sets, rng):
    for name in ("sphere_s2", "torus_r3", "cylinder_r3", "hyperboloid_r3",
                  "paraboloid_r3", "plane_r2_in_r3", "twisted_cubic_r3"):
        x = sets[name]
        chart = x.chart
        box = _trace_box(chart, 8.0, np.zeros(3))
        span = box[:, 1] - box[:, 0]
        u = rng.uniform(box[:, 0] + 0.05 * span, box[:, 1] - 0.05 * span,
                        size=(50, chart.dim))
        for point in u:
            assert point_density(x, point, x.dim) == pytest.approx(1.0, abs=1e-6), name


def test_plane_lower_densities_vanish(sets):
    x = sets["plane_r2_in_r3"]
    for k in (0, 1):
        assert point_density(x, np.array([1.5, 0.3]), k) == 0.0


def test_sphere_order_zero_density(sets):
    value = point_density(sets["sphere_s2"], np.array([0.4, 5.0]), 0)
    assert value == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_density_above_dimension_is_zero(sets):
    assert point_density(sets["sphere_s2"], np.array([1.0, 1.0]), 3) == 0.0


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
    chart = hyp.chart
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
    mirrored = SmoothSet(flipped, declared_chi=0)
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
    chart = sets["twisted_cubic_r3"].chart
    box = chart.ball_intervals((8.0,), np.zeros(3))[0]
    spec = CubatureSpec()
    fine, _ = gauss_legendre_nodes(box, spec.count(1), chart.paneled)
    coarse, _ = gauss_legendre_nodes(box, spec.halved().count(1), chart.paneled)
    assert len(coarse) < len(fine)

