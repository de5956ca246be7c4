import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lkcurv as lk
from lkcurv import (
    ChiUnknownError,
    DegenerateSample,
    SetValidationError,
    Subspace,
    UnsupportedSection,
)
from lkcurv.catalog import LinearSubspace, Poly, SmoothSet, SphericalGraph
from lkcurv.catalog.charts import build_chart
from lkcurv.catalog.graphs import validate_graph
from lkcurv.catalog.links import _graph_sections, euler_char, link_infinity_chi
from lkcurv.catalog.sets import set_from_dict, set_to_dict, validate_set
from lkcurv.grassmann import STREAM_GRASSMANN, haar_sample, substream
from per_plane_links import normal_basis


def full_space(n):
    return Subspace(n, n, np.eye(n))


def plane_through_normal(nu):
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    q, _ = np.linalg.qr(nu[:, None], mode="complete")
    return Subspace(3, 2, q[:, 1:].T)


# ----------------------------------------------------------------- validation


def test_builtin_graphs_validate(graphs):
    for graph in graphs.values():
        validate_graph(graph)


def test_builtin_sets_validate(sets):
    for descriptor in sets.values():
        validate_set(descriptor)


def test_graph_rejects_non_unit_vertex():
    bad = SphericalGraph(vertices=np.array([[1.0, 0.5]]), edges=())
    with pytest.raises(SetValidationError):
        validate_graph(bad)


def test_graph_rejects_antipodal_edge():
    bad = SphericalGraph(
        vertices=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), edges=((0, 1),)
    )
    with pytest.raises(SetValidationError):
        validate_graph(bad)


def test_graph_rejects_crossing_arcs():
    # two quarter arcs through each other's interiors on the equator/meridian
    v = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [np.sqrt(0.5), np.sqrt(0.5), 0.4],
            [np.sqrt(0.5), np.sqrt(0.5), -0.4],
        ]
    )
    v[2] /= np.linalg.norm(v[2])
    v[3] /= np.linalg.norm(v[3])
    bad = SphericalGraph(vertices=v, edges=((0, 1), (2, 3)))
    with pytest.raises(SetValidationError):
        validate_graph(bad)


# ---------------------------------------------------------------- euler char


def test_euler_char_values(sets):
    assert euler_char(sets["line_r2"]) == 1
    assert euler_char(sets["cross_r2"]) == 1
    assert euler_char(sets["sphere_s2"]) == 2
    assert euler_char(sets["torus_r3"]) == 0
    undeclared = SmoothSet(
        ambient_dim=2, dim=1, charts=(), implicit=None, declared_chi=None
    )
    with pytest.raises(ChiUnknownError):
        euler_char(undeclared)


# --------------------------------------------------------------------- links


def test_line_full_space_link(sets):
    result = link_infinity_chi(sets["line_r2"], full_space(2))
    assert result.chi == 2 and result.stable


def test_cross_full_space_link(sets):
    result = link_infinity_chi(sets["cross_r2"], full_space(2))
    assert result.chi == 4 and result.stable


def test_paraboloid_generic_planes_have_empty_links(sets):
    par = sets["paraboloid_r3"]
    for i in range(40):
        sub = haar_sample(3, 2, substream(31, STREAM_GRASSMANN, i))
        result = link_infinity_chi(par, sub)
        assert result.stable and result.chi == 0


def test_hyperboloid_plane_links(sets):
    hyp = sets["hyperboloid_r3"]
    steep = plane_through_normal(
        [math.sin(math.radians(60)), 0.0, math.cos(math.radians(60))]
    )
    assert link_infinity_chi(hyp, steep).chi == 4
    shallow = plane_through_normal(
        [math.sin(math.radians(30)), 0.0, math.cos(math.radians(30))]
    )
    assert link_infinity_chi(hyp, shallow).chi == 0


def test_conic_link_radius_invariance(sets):
    # conic sets have radius-independent links; the combinatorial count is used
    cone = sets["plane_cone_r3"]
    sub = plane_through_normal([0.3, 0.5, 0.81])
    first = link_infinity_chi(cone, sub)
    second = link_infinity_chi(cone, sub)
    assert first.chi == second.chi == 2


def test_conic_crossing_count_matches_dense_sampling(sets, graphs):
    # oracle: sample each arc densely and count sign-change clusters of the
    # hyperplane equation
    for name in ("plane_cone_r3", "star3_cone_r3"):
        cone = sets[name]
        graph = cone.graph
        for i in range(25):
            sub = haar_sample(3, 2, substream(53, STREAM_GRASSMANN, i))
            nu = normal_basis(sub)[0]
            expected = 0
            for e in range(graph.n_edges):
                ts = np.linspace(0.0, 1.0, 20001)
                vals = graph.arc_points(e, ts) @ nu
                expected += int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))
            vdots = graph.vertices @ nu
            assert np.min(np.abs(vdots)) > 1e-9  # generic draw
            try:
                got = lk.link_chi(cone, sub)
            except DegenerateSample:
                continue
            assert got == expected


def test_link_gauge_invariance(sets):
    # re-orthonormalizing the frame of the same subspace changes nothing
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 9], dtype=np.uint64)))
    for name in ("hyperboloid_r3", "star3_cone_r3", "plane_cone_r3"):
        x = sets[name]
        for i in range(10):
            sub = haar_sample(3, 2, substream(67, STREAM_GRASSMANN, i))
            rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            assert lk.link_chi(x, sub) == lk.link_chi(
                x, Subspace(3, 2, rot @ sub.frame)
            ), name


def test_paraboloid_nonzero_links_have_probability_zero(sets):
    # over many draws: a handful of degenerate/unstable rejections at most, and
    # never a stable nonzero count
    par = sets["paraboloid_r3"]
    n_samples = 10000
    rejections = 0
    for i in range(n_samples):
        sub = haar_sample(3, 2, substream(97, STREAM_GRASSMANN, i))
        try:
            result = link_infinity_chi(par, sub)
        except DegenerateSample:
            rejections += 1
            continue
        if not result.stable:
            rejections += 1
            continue
        assert result.chi == 0
    assert rejections <= 50


def test_oversized_oval_resolved_by_compactness(sets):
    # the section oval of a near-vertical plane outgrows the radius ladder;
    # the definite leading form still certifies a compact section (empty link)
    par = sets["paraboloid_r3"]
    steep = plane_through_normal([1.0, 0.0, 0.03])
    result = link_infinity_chi(par, steep)
    assert result.stable and result.chi == 0


def test_unreachable_ends_flagged_unstable():
    from circle_ladder import circle_zero_ladder
    # a line far outside the ladder: two certified ends, never observed
    far_line = Poly(2, {(1, 0): 1.0, (0, 0): -1.0e5})
    result = circle_zero_ladder(far_line, 8.0)
    assert not result.stable and result.chi == 2
    # degree > 2 has no end certificate; plain agreement still counts a cubic
    cubic_curve = Poly(2, {(3, 0): 1.0, (0, 1): -1.0})  # t = s^3, two ends
    result = circle_zero_ladder(cubic_curve, 8.0)
    assert result.stable and result.chi == 2


def test_far_line_is_stable_on_the_exact_route():
    # the leading form of x - 1e5 on the plane z = 0 is s1: one simple root,
    # two ends, however far the line lies from the origin
    far_plane = SmoothSet(ambient_dim=3, dim=2, charts=(),
                          implicit=Poly(3, {(1, 0, 0): 1.0, (0, 0, 0): -1.0e5}),
                          declared_chi=1)
    horizontal = Subspace(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    result = link_infinity_chi(far_plane, horizontal)
    assert result.stable and result.chi == 2


def _cubic_surface():
    # x^3 - 3 x y^2 + z^3 = 1: restricted cubic leading forms have one or
    # three real roots, so generic plane sections have 2 or 6 ends
    return SmoothSet(ambient_dim=3, dim=2, charts=(),
                     implicit=Poly(3, {(3, 0, 0): 1.0, (1, 2, 0): -3.0, (0, 0, 3): 1.0,
                                       (0, 0, 0): -1.0}),
                     declared_chi=1)


def _haar_frames(seed, count, n=3, k=2):
    return np.stack([haar_sample(n, k, substream(seed, STREAM_GRASSMANN, i)).frame
                     for i in range(count)])


def test_batched_link_counts_match_circle_ladder(sets):
    from circle_ladder import ladder_link

    frames = _haar_frames(59, 200)
    for name, center in itertools.product(
        ("hyperboloid_r3", "paraboloid_r3", "cylinder_r3", "plane_r2_in_r3"),
        (np.zeros(3), np.array([0.0, 0.0, 3.0])),
    ):
        x = sets[name]
        values, degenerate = lk.link_chi_batch(x, frames, center)
        assert np.count_nonzero(degenerate) <= 2
        compared = 0
        for frame, value, bad in zip(frames, values, degenerate):
            try:
                ladder = ladder_link(x, frame, center)
            except DegenerateSample:
                continue
            if ladder.stable and not bad:
                assert value == ladder.chi
                compared += 1
        assert compared >= 180


def test_cubic_link_counts_match_far_circle_count():
    # the ladder has no end certificate above degree 2 and can agree on two
    # radii before all ends show, so the reference here is one far circle
    from circle_ladder import circle_zero_count

    cubic = _cubic_surface()
    frames = _haar_frames(59, 100)
    values, degenerate = lk.link_chi_batch(cubic, frames)
    assert np.count_nonzero(degenerate) <= 1
    compared = 0
    for frame, value, bad in zip(frames, values, degenerate):
        try:
            far = circle_zero_count(cubic.implicit.compose_affine(np.zeros(3), frame), 1.0e6)
        except DegenerateSample:
            continue
        if not bad:
            assert value == far
            compared += 1
    assert compared >= 90
    assert set(values[~degenerate]) == {2.0, 6.0}


def test_scalar_and_batched_link_routes_agree(sets):
    hyp = sets["hyperboloid_r3"]
    frames = _haar_frames(61, 50)
    values, degenerate = lk.link_chi_batch(hyp, frames)
    assert not degenerate.any()
    for frame, value in zip(frames, values):
        section_link = link_infinity_chi(hyp, Subspace(3, 2, frame))
        assert section_link.stable and section_link.chi == value


EXACT_LINK_SETS = ("line_r2", "line_r3", "cross_r2", "plane_cone_r3", "star3_cone_r3")


def _reference_links(x, frames, center):
    from per_plane_links import reference_link

    values = np.zeros(len(frames))
    degenerate = np.zeros(len(frames), dtype=bool)
    for i, frame in enumerate(frames):
        try:
            values[i] = reference_link(x, frame, center)
        except DegenerateSample:
            degenerate[i] = True
    return values, degenerate


def _assert_matches_reference(x, frames, center):
    values, degenerate = lk.link_chi_batch(x, frames, center)
    ref_values, ref_degenerate = _reference_links(x, frames, center)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(values[~degenerate], ref_values[~degenerate])
    return degenerate


def test_batched_exact_links_match_per_plane_reference(sets):
    for name in EXACT_LINK_SETS:
        x = sets[name]
        n = x.ambient_dim
        for k, shifted in itertools.product(range(1, n), (False, True)):
            frames = _haar_frames(71, 500, n, k)
            center = np.array([1.0, 2.0, 0.5][:n]) if shifted else np.zeros(n)
            if shifted and getattr(x, "graph", None) is not None and x.graph.n_edges:
                with pytest.raises(UnsupportedSection):
                    lk.link_chi_batch(x, frames, center)
                continue
            degenerate = _assert_matches_reference(x, frames, center)
            assert np.count_nonzero(degenerate) <= 5, (name, k, shifted)


def test_conic_sections_match_per_plane_reference(sets):
    from per_plane_links import graph_section_data

    for name, k in (("star3_cone_r3", 2), ("plane_cone_r3", 2), ("star3_cone_r3", 1)):
        x = sets[name]
        frames = _haar_frames(73, 40, 3, k)
        verts, edges, crossing, degenerate = _graph_sections(x.graph, frames)
        for i, frame in enumerate(frames):
            verts_in, edges_in, crossings = graph_section_data(x.graph, Subspace(3, k, frame))
            assert not degenerate[i]
            assert np.flatnonzero(verts[i]).tolist() == verts_in
            assert np.flatnonzero(edges[i]).tolist() == edges_in
            assert np.count_nonzero(crossing[i]) == len(crossings)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _plane_with_normal(normal):
    q, _ = np.linalg.qr(_unit(normal)[:, None], mode="complete")
    return q[:, 1:].T


def test_hand_built_degenerate_planes_match_per_plane_reference(sets):
    star = sets["star3_cone_r3"]
    graph = star.graph
    leaf = graph.vertices[1]
    # a plane through the apex and a leaf, tilted by 1e-8 towards the leaf:
    # both sit in the gray band between inside and outside
    off_leaf = _unit(np.cross(leaf, [0.0, 0.0, 1.0]))
    gray_vertex = _plane_with_normal(off_leaf + 1e-8 * leaf)
    # a line 1e-6 off the midpoint of an arc: the arc grazes it
    mid = graph.arc_points(0, np.array([0.5]))[0]
    arc_normal = _unit(np.cross(graph.vertices[0], leaf))
    grazing_line = _unit(mid + 1e-6 * arc_normal)[None, :]
    # a plane 2e-9 from a leaf meets the leaf's arc within the endpoint margin
    # with the leaf outside it (the vertex band flags that first); a plane
    # through the leaf counts the leaf once, as a vertex
    at_endpoint = _plane_with_normal(_unit(np.cross(leaf, [1.0, 2.0, 3.0])) + 2e-9 * leaf)
    through_leaf = _plane_with_normal(np.cross(leaf, [1.0, 2.0, 3.0]))
    cases = [
        (star, gray_vertex[None], True),
        (star, grazing_line[None], True),
        (star, at_endpoint[None], True),
        (star, through_leaf[None], False),
    ]
    # a plane at 5e-5 rad from the line: its principal angle is in the gray band
    line = sets["line_r3"]
    tilted = np.array([[np.cos(5e-5), np.sin(5e-5), 0.0], [0.0, 0.0, 1.0]])
    cases.append((line, tilted[None], True))
    cases.append((line, np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]), False))
    for x, frames, expected in cases:
        center = np.zeros(x.ambient_dim)
        degenerate = _assert_matches_reference(x, frames, center)
        assert degenerate[0] == expected
        if expected:
            with pytest.raises(DegenerateSample):
                link_infinity_chi(x, Subspace(3, frames.shape[1], frames[0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(EXACT_LINK_SETS), k=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), shifted=st.booleans())
def test_exact_links_ignore_the_choice_of_frame(sets, name, k, seed, shifted):
    x = sets[name]
    n = x.ambient_dim
    k = min(k, n - 1)
    if shifted and getattr(x, "graph", None) is not None and x.graph.n_edges:
        shifted = False
    center = np.array([1.0, 2.0, 0.5][:n]) if shifted else np.zeros(n)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    frames = _haar_frames(seed % 1000, 20, n, k)
    mix, _ = np.linalg.qr(rng.standard_normal((20, k, k)))
    values, degenerate = lk.link_chi_batch(x, frames, center)
    mixed_values, mixed_degenerate = lk.link_chi_batch(x, mix @ frames, center)
    assert np.array_equal(degenerate, mixed_degenerate)
    assert np.array_equal(values[~degenerate], mixed_values[~degenerate])


def test_multiple_root_at_infinity_is_degenerate():
    # t = s^3 has a triple root of its leading form s^3 at infinity
    cusp = SmoothSet(ambient_dim=3, dim=2, charts=(),
                     implicit=Poly(3, {(3, 0, 0): 1.0, (0, 1, 0): -1.0}), declared_chi=1)
    horizontal = Subspace(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(DegenerateSample):
        link_infinity_chi(cusp, horizontal)


def test_compact_set_links_vanish(sets):
    torus = sets["torus_r3"]
    assert link_infinity_chi(torus, full_space(3)).chi == 0
    sub = haar_sample(3, 2, substream(11, STREAM_GRASSMANN, 0))
    assert link_infinity_chi(torus, sub).chi == 0


def test_curve_full_space_link(sets):
    cubic = sets["twisted_cubic_r3"]
    result = link_infinity_chi(cubic, full_space(3))
    assert result.chi == 2 and result.stable
    # sections of a curve by planes/lines are at most zero-dimensional
    sub = haar_sample(3, 2, substream(13, STREAM_GRASSMANN, 1))
    assert link_infinity_chi(cubic, sub).chi == 0


CURVE_CENTERS = (np.zeros(3), np.array([0.5, 0.5, 0.5]), np.array([5.0, -3.0, 2.0]))


def test_translated_ray_cone_full_space_link(sets):
    # every ray leaves a large sphere once, wherever its center is
    from per_plane_links import ray_sphere_count

    cross = sets["cross_r2"]
    for center in ((0.0, 0.0), (1.0, 2.0), (-3.0, 0.5)):
        center = np.array(center)
        expected = ray_sphere_count(cross.graph.vertices, center, 1.0e3)
        assert expected == 4
        assert lk.link_chi(cross, full_space(2), center) == expected


def test_curve_full_space_link_off_center(sets):
    # the reference counts sign changes of |p(t) - c|^2 - R^2 on a dense grid
    # that runs past both ends of the curve's part inside the ball
    cubic = sets["twisted_cubic_r3"]
    ts = np.linspace(-20.0, 20.0, 200001)[:, None]
    pts = cubic.charts[0].map_fn(ts)
    for center in CURVE_CENTERS:
        vals = np.sum((pts - center) ** 2, axis=1) - 1.0e3**2
        expected = int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))
        assert expected == 2
        assert lk.link_chi(cubic, full_space(3), center) == expected


def test_curve_on_bounded_domain_has_empty_link(tmp_path, sets):
    doc = set_to_dict("cubic_arc", sets["twisted_cubic_r3"])
    doc["charts"][0]["domain"] = [[-2.0, 2.0]]
    path = tmp_path / "cubic_arc.json"
    path.write_text(json.dumps(doc))
    _, arc = lk.resolve_set(str(path))
    for center in CURVE_CENTERS:
        assert lk.link_chi(arc, full_space(3), center) == 0


def test_unsupported_section_raises(sets):
    # a proper-plane section of a smooth set without an implicit form, and a
    # multi-chart curve asked for a full-space link, are both out of scope
    no_implicit = SmoothSet(ambient_dim=3, dim=2, charts=(), implicit=None,
                            declared_chi=5, compact=False)
    sub = haar_sample(3, 2, substream(41, STREAM_GRASSMANN, 0))
    with pytest.raises(UnsupportedSection):
        link_infinity_chi(no_implicit, sub)
    cubic = sets["twisted_cubic_r3"]
    two_chart_curve = SmoothSet(ambient_dim=3, dim=1,
                                charts=cubic.charts + cubic.charts,
                                implicit=None, declared_chi=1, compact=False)
    with pytest.raises(UnsupportedSection):
        link_infinity_chi(two_chart_curve, full_space(3))


# ------------------------------------------------------------------ sections


def test_linear_section(sets):
    # two planes meeting in a line, and a line inside the plane (more set
    # directions than plane directions): each section is a line, whose link
    # at infinity is S^0
    v = LinearSubspace(3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    for frame in ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[0.6, 0.8, 0.0]]):
        values, degenerate = lk.link_chi_batch(v, np.array([frame]))
        assert values.tolist() == [2.0] and not degenerate[0]
    # a plane through the line's direction, shifted off it: the section is empty
    x_axis = sets["line_r3"]
    floor = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    lifted = np.array([0.0, 0.0, 1.0])
    assert link_infinity_chi(x_axis, Subspace(3, 2, floor[0]), center=lifted).chi == 0
    assert link_infinity_chi(x_axis, Subspace(3, 2, floor[0]), center=np.array([0.0, 1.0, 0.0])).chi == 2
    _assert_matches_reference(x_axis, floor, lifted)


def test_cross_axis_section_is_a_line(sets):
    # the x-axis holds two opposite vertices of the cross: the section is the
    # line through them, with the link S^0 of the line itself
    values, degenerate = lk.link_chi_batch(sets["cross_r2"], np.array([[[1.0, 0.0]]]))
    assert values.tolist() == [2.0] and not degenerate[0]
    assert values[0] == lk.link_chi_batch(sets["line_r2"], np.array([[[1.0, 0.0]]]))[0][0]


def test_smooth_section_residuals(sets):
    par = sets["paraboloid_r3"]
    sub = haar_sample(3, 2, substream(29, STREAM_GRASSMANN, 4))
    g = par.implicit.compose_affine(np.zeros(3), sub.frame)
    piece = SmoothSet(ambient_dim=2, dim=1, charts=(), implicit=g, declared_chi=None,
                      compact=par.compact)
    assert g.nvars == 2
    # points found on the section satisfy the ambient implicit form
    found = []
    for radius in (0.25, 0.5, 1.0):
        phis = np.linspace(0.0, 2.0 * np.pi, 40001)
        pts = radius * np.stack([np.cos(phis), np.sin(phis)], axis=1)
        vals = g.eval(pts)
        hit = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        for i in hit:
            lo, hi = phis[i], phis[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                vm = g.eval(radius * np.array([[np.cos(mid), np.sin(mid)]]))[0]
                if (vm > 0) == (vals[i] > 0):
                    lo = mid
                else:
                    hi = mid
            found.append(radius * np.array([np.cos(lo), np.sin(lo)]))
    assert found
    ambient = np.array(found) @ sub.frame
    residuals = np.abs(par.implicit.eval(ambient))
    scale = 1.0 + np.linalg.norm(ambient, axis=1) ** 2
    assert np.max(residuals / scale) < 1e-8
    with pytest.raises(ChiUnknownError):
        euler_char(piece)


# ----------------------------------------------------------- chart invariants


def test_chart_derivatives_match_finite_differences(sets, rng):
    h = 1e-5
    charts = [(name, chart) for name in ("sphere_s2", "torus_r3", "hyperboloid_r3",
                                         "paraboloid_r3", "cylinder_r3", "plane_r2_in_r3",
                                         "twisted_cubic_r3")
              for chart in sets[name].charts]
    # parameters away from the builtin defaults, which no golden report covers
    for name, params in (
        ("sphere", {"radius": 2.5, "center": [1.0, -2.0, 0.5]}),
        ("torus", {"major_radius": 3.0, "minor_radius": 1.0}),
        ("paraboloid", {"coefficient": 0.5}),
        ("cylinder", {"radius": 2.0}),
        ("plane", {"frame": [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]],
                   "origin": [0.3, -1.0, 2.0, 0.5]}),
    ):
        charts.append((f"{name} {params}", build_chart(name, params=params)))
    for name, chart in charts:
        box = chart.domain_for_ball(8.0, np.zeros(chart.ambient_dim))
        span = box[:, 1] - box[:, 0]
        lo = box[:, 0] + 0.1 * span
        hi = box[:, 1] - 0.1 * span
        u = rng.uniform(lo, hi, size=(100, chart.dim))
        jac = chart.jac_fn(u)
        hess = chart.hess_fn(u)
        for a in range(chart.dim):
            step = np.zeros(chart.dim)
            step[a] = h
            fd_jac = (chart.map_fn(u + step) - chart.map_fn(u - step)) / (2 * h)
            scale = np.maximum(np.abs(jac[:, :, a]), 1.0)
            assert np.max(np.abs(fd_jac - jac[:, :, a]) / scale) < 1e-5, name
            fd_hess = (chart.jac_fn(u + step) - chart.jac_fn(u - step)) / (2 * h)
            for b in range(chart.dim):
                scale = np.maximum(np.abs(hess[:, :, b, a]), 1.0)
                assert np.max(np.abs(fd_hess[:, :, b] - hess[:, :, b, a]) / scale) < 1e-5, name


def test_paraboloid_box_edge_at_huge_radius():
    # r^2 + r^4 = R^2 at the edge; the sampled gap overflows everywhere but
    # at r = 0, so the edge bisection starts from a bracket about 2.4e96 wide
    radius = 1e100
    with np.errstate(over="ignore"):
        box = build_chart("paraboloid").domain_for_ball(radius, np.zeros(3))
    edge = math.sqrt((math.sqrt(1.0 + 4.0 * radius * radius) - 1.0) / 2.0)
    assert box[0, 1] == pytest.approx(edge, rel=1e-6)


def test_box_fitters_reject_radii_whose_square_overflows():
    # at R = 1e200 the fitted boxes would end near |z| = 9.5e153 and r = 1.2e77
    for name in ("paraboloid", "hyperboloid_one_sheet"):
        with pytest.raises(ValueError, match="R\\^2 is not finite"):
            build_chart(name).domain_for_ball(1e200, np.zeros(3))


def test_chart_points_satisfy_implicit_form(sets, rng):
    for name in ("sphere_s2", "torus_r3", "hyperboloid_r3", "paraboloid_r3"):
        x = sets[name]
        chart = x.charts[0]
        box = chart.domain_for_ball(16.0, np.zeros(3))
        u = rng.uniform(box[:, 0], box[:, 1], size=(400, chart.dim))
        pts = chart.map_fn(u)
        deg = x.implicit.degree()
        vals = np.abs(x.implicit.eval(pts))
        bound = 1e-8 * (1.0 + np.linalg.norm(pts, axis=1) ** deg)
        assert np.all(vals <= bound), name
        grads = np.linalg.norm(x.implicit.grad_eval(pts), axis=1)
        assert np.min(grads) > 1e-8, name


# ------------------------------------------------------------------------- io


def test_set_dict_round_trip(sets):
    for name, x in sets.items():
        doc = set_to_dict(name, x)
        json.dumps(doc)  # must be serializable
        back = set_from_dict(doc)
        assert type(back) is type(x)
        assert back.ambient_dim == x.ambient_dim and back.dim == x.dim
        if isinstance(x, SmoothSet):
            assert back.declared_chi == x.declared_chi
            assert back.compact == x.compact
            if x.implicit is not None:
                assert back.implicit.terms == x.implicit.terms


def test_load_set_file(tmp_path, sets):
    doc = set_to_dict("hyperboloid_r3", sets["hyperboloid_r3"])
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps(doc))
    name, descriptor = lk.resolve_set(str(path))
    assert name == "hyperboloid_r3"
    assert isinstance(descriptor, SmoothSet)


def test_malformed_file_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "ambient_dim": 2, "kind": "linear"}))
    with pytest.raises(SetValidationError) as err:
        lk.resolve_set(str(path))
    assert err.value.field == "frame"
    path.write_text(json.dumps({"name": "x", "ambient_dim": 3, "kind": "smooth",
                                "charts": [{"domain": None, "map": "nonsense"}]}))
    with pytest.raises(SetValidationError) as err:
        lk.resolve_set(str(path))
    assert "map" in err.value.field


def test_unknown_kind_rejected():
    with pytest.raises(SetValidationError):
        set_from_dict({"ambient_dim": 2, "kind": "mystery"})
