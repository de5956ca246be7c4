import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lkcurv as lk
from lkcurv import (
    ChiUnknownError,
    DegenerateSample,
    GenericityError,
    SetValidationError,
    Subspace,
    UnsupportedSection,
)
from lkcurv.catalog import ConicGraph, LinearSubspace, Poly, SmoothSet, SphericalGraph
from lkcurv.catalog.charts import (
    CHART_BUILDERS, _real_parts_of_roots, _sublevel, build_chart,
)
from lkcurv.catalog.graphs import validate_graph
from lkcurv.catalog.links import (
    _graph_sections,
    _implicit_end_counts,
    euler_char,
    full_space_link,
    generic_link_chi,
    link_infinity_chi,
)
from lkcurv.catalog.sets import _trace_box, describe, set_from_dict, set_to_dict, validate_set
from lkcurv.grassmann import (
    STREAM_GRASSMANN, haar_sample, hyperplane_frames, slot_frames, substream,
)
from per_plane_links import normal_basis

SETS = Path(__file__).resolve().parent / "sets"


def plane_through_normal(nu):
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    q, _ = np.linalg.qr(nu[:, None], mode="complete")
    return Subspace(3, 2, q[:, 1:].T)


# ----------------------------------------------------------------- validation


def test_builtin_graphs_validate(graphs):
    for graph in graphs.values():
        validate_graph(graph)


# the catalog's graphs, every vertex to the bit
BUILTIN_GRAPHS = {
    "cross_s1": ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], ()),
    "antipodal_s2": ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], ()),
    "circle_s2": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                  ((0, 1), (1, 2), (2, 3), (3, 0))),
    "star3_s2": ([[0.0, 0.0, 1.0], [0.8660254037844386, 0.0, 0.5000000000000001],
                  [-0.43301270189221913, 0.75, 0.5000000000000001],
                  [-0.4330127018922197, -0.7499999999999997, 0.5000000000000001]],
                 ((0, 1), (0, 2), (0, 3))),
    "theta_s2": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [0.6448258802191611, 0.6448258802191611, 0.41036467732879794],
                  [0.7071067811865475, 0.7071067811865475, 0.0],
                  [0.6448258802191611, 0.6448258802191611, -0.41036467732879794]],
                 ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1))),
    "tetra_s2": ([[0.5773502691896258, 0.5773502691896258, 0.5773502691896258],
                  [0.5773502691896258, -0.5773502691896258, -0.5773502691896258],
                  [-0.5773502691896258, 0.5773502691896258, -0.5773502691896258],
                  [-0.5773502691896258, -0.5773502691896258, 0.5773502691896258]],
                 ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}


def test_builtin_graphs_keep_their_vertices_and_edges(graphs):
    assert list(graphs) == list(BUILTIN_GRAPHS)
    for name, (vertices, edges) in BUILTIN_GRAPHS.items():
        assert graphs[name].vertices.tolist() == vertices, name
        assert graphs[name].edges == edges, name


def test_a_cone_resolves_by_building_its_own_graph(monkeypatch):
    from lkcurv.catalog import graphs as catalog

    built = []
    for name, build in list(catalog._BUILTIN_GRAPHS.items()):
        def counted(name=name, build=build):
            built.append(name)
            return build()
        monkeypatch.setitem(catalog._BUILTIN_GRAPHS, name, counted)
    for set_name, graph in (("cross_r2", "cross_s1"), ("plane_cone_r3", "circle_s2"),
                            ("star3_cone_r3", "star3_s2")):
        built.clear()
        x = lk.resolve_set(set_name)[1]
        assert built == [graph], set_name
        assert x.graph.vertices.tolist() == BUILTIN_GRAPHS[graph][0]


def test_builtin_sets_validate(sets):
    for descriptor in sets.values():
        validate_set(descriptor)


def test_torus_quartic_is_the_expanded_product():
    # the builtin's coefficients, written out, are q^2 - 4 R0^2 (x^2 + y^2)
    # with q = x^2 + y^2 + z^2 + R0^2 - r0^2, term for term and in its order
    torus = lk.resolve_set("torus_r3")[1]
    R0, r0 = torus.chart.params["major_radius"], torus.chart.params["minor_radius"]
    q = Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): R0 * R0 - r0 * r0})
    planar = Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0})
    product = q * q - (4.0 * R0 * R0) * planar
    assert list(torus.implicit.terms.items()) == list(product.terms.items())


def test_resolved_sets_share_no_derived_object():
    # every resolve builds its own descriptor, which derives its own quadric data
    first, second = (lk.resolve_set("hyperboloid_r3")[1] for _ in range(2))
    assert first.chart is not second.chart and first.implicit is not second.implicit
    assert first.quadric is not second.quadric
    for name in ("adj", "eigenvalues", "eigenvectors"):
        a, b = getattr(first.quadric, name), getattr(second.quadric, name)
        assert np.array_equal(a, b) and not np.shares_memory(a, b), name
    assert first.quadric is first.quadric  # derived once per descriptor
    assert lk.resolve_set("sphere_s2")[1].quadric.band > 0.0
    assert lk.resolve_set("torus_r3")[1].quadric is None  # degree 4
    assert lk.resolve_set("twisted_cubic_r3")[1].quadric is None  # a curve


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


def _unit_rows(*rows):
    rows = np.array(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _equator(*angles):
    return np.array([[math.cos(a), math.sin(a), 0.0] for a in angles])


# (vertices, edges, whether the arcs may stand together)
_ARC_PAIRS = {
    # an end of one arc inside the other, from either end and either side
    "t_junction": (_unit_rows([1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]),
                   ((0, 1), (2, 3)), False),
    "t_junction_reversed": (_unit_rows([1, 0, 0], [0, 1, 0], [1, 2, -1], [1, 2, 0]),
                            ((0, 1), (2, 3)), False),
    "t_junction_on_the_other_arc": (_unit_rows([1, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]),
                                    ((0, 1), (2, 3)), False),
    # two arcs that share one vertex, off one great circle and on it
    "shared_vertex": (_unit_rows([1, 0, 0], [0, 1, 0], [0, 0, 1]), ((0, 1), (0, 2)), True),
    "shared_vertex_reversed": (_unit_rows([1, 0, 0], [0, 1, 0], [1, 2, 3]),
                               ((1, 0), (2, 1)), True),
    "adjacent_on_one_circle": (_equator(0.0, 1.0, 2.5), ((0, 1), (1, 2)), True),
    "adjacent_across_the_seam": (_equator(0.0, 1.0, -2.5), ((0, 1), (2, 0)), True),
    "overlapping_on_one_circle": (_equator(0.0, 1.0, 0.5, 1.5), ((0, 1), (2, 3)), False),
    "nested_on_one_circle": (_equator(0.0, 1.0, 0.3, 0.7), ((0, 1), (3, 2)), False),
    "one_arc_twice": (_equator(0.0, 1.0), ((0, 1), (1, 0)), False),
    # overlapping only in the last 3% of the first arc
    "overlapping_near_an_end": (_equator(0.0, 1.0, 0.97, 1.5), ((0, 1), (2, 3)), False),
    "same_start_same_way": (_equator(0.0, 1.0, 0.5), ((0, 1), (0, 2)), False),
    "disjoint_on_one_circle": (_equator(0.0, 0.5, 1.0, 1.5), ((0, 1), (2, 3)), True),
    "disjoint_across_the_seam": (_equator(-0.5, 0.5, 2.0, 3.0), ((0, 1), (2, 3)), True),
    "on_a_tilted_circle": (_unit_rows([1, 0, 1], [0, 1, 0], [1, 1, 1], [-1, 1, -1]),
                           ((0, 1), (2, 3)), False),
    # R^4: through each other's middles, and with circles that meet off one arc
    "crossing_in_r4": (_unit_rows([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0.8, 0.6],
                                  [1, 1, -0.8, -0.6]), ((0, 1), (2, 3)), False),
    "circles_meet_off_the_arc_in_r4": (_unit_rows([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0.8, 0.6],
                                                  [1, 1, 1.6, 1.2]), ((0, 1), (2, 3)), True),
    "skew_in_r4": (_unit_rows([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0.8, 0.6], [1, 1, -0.8, 0.6]),
                   ((0, 1), (2, 3)), True),
    "t_junction_in_r4": (_unit_rows([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]),
                         ((0, 1), (2, 3)), False),
}


@pytest.mark.parametrize("name", sorted(_ARC_PAIRS))
def test_arcs_meet_only_at_shared_ends(name):
    vertices, edges, valid = _ARC_PAIRS[name]
    graph = SphericalGraph(vertices=vertices, edges=edges)
    if valid:
        validate_graph(graph)
        return
    with pytest.raises(SetValidationError) as err:
        validate_graph(graph)
    assert err.value.field == "edges"


# ---------------------------------------------------------------- euler char


def test_euler_char_values(sets):
    assert euler_char(sets["line_r2"]) == 1
    assert euler_char(sets["cross_r2"]) == 1
    assert euler_char(sets["sphere_s2"]) == 2
    assert euler_char(sets["torus_r3"]) == 0
    undeclared = SmoothSet(chart=None, implicit=Poly(2, {(0, 1): 1.0}))
    with pytest.raises(ChiUnknownError):
        euler_char(undeclared)
    # a set with neither a chart nor an implicit form has no data to derive from
    with pytest.raises(SetValidationError, match="a chart or an implicit form"):
        SmoothSet(chart=None, declared_chi=1)


# --------------------------------------------------------------------- links


def test_line_full_space_link(sets):
    assert full_space_link(sets["line_r2"]) == 2


def test_cross_full_space_link(sets):
    assert full_space_link(sets["cross_r2"]) == 4


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
    # the gray band of x^2 + y^2 - z^2: u^T adj(A) u = u_z^2 - u_x^2 - u_y^2 =
    # cos(2 theta) is about -2 times the tilt off the parabolic circle
    # theta = pi/4, and the band ends where that is PARABOLIC_DET_TOL
    # (sum |A_ij|)^2 = 9e-12, at a tilt of 4.5e-12
    for phi in (0.0, 1.0, 2.5):
        for tilt, degenerate, chi in ((0.0, True, None), (2e-12, True, None),
                                      (-2e-12, True, None), (1e-11, False, 4.0),
                                      (-1e-11, False, 0.0),
                                      (1e-3, False, 4.0), (-1e-3, False, 0.0)):
            theta = math.pi / 4 + tilt
            u = np.array([[math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                           math.cos(theta)]])
            values, mask = lk.link_chi_batch(hyp, u)
            assert mask[0] == degenerate, (phi, tilt)
            if not degenerate:
                assert values[0] == chi, (phi, tilt)


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
    # the per-plane rule that the closed form 0 stands in for, over many slot
    # normals: a handful of parabolic rejections at most, and never a nonzero
    # count; the cylinder's leading form is the paraboloid's
    normals = np.concatenate(list(slot_frames(3, 1, 97, 10000)))
    for name in ("paraboloid_r3", "cylinder_r3"):
        x = sets[name]
        values, degenerate = _implicit_end_counts(x, normals)
        assert np.count_nonzero(degenerate) <= 50, name
        assert not np.any(values[~degenerate]), name
        assert generic_link_chi(x, 2) == 0


def test_quadric_generic_links_follow_the_adjugate():
    # x^2 - y^2 - z, a saddle: adj(A) = diag(0, 0, -1) is negative
    # semidefinite, and almost every plane cuts a hyperbola with 4 ends;
    # x^2 - z, a trough: adj(A) = 0, so every plane is parabolic, there is no
    # closed form, and a drawn mean rejects every plane
    normals = np.concatenate(list(slot_frames(3, 1, 83, 2000)))
    saddle = SmoothSet(chart=None, declared_chi=1,
                       implicit=Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 1): -1.0}))
    assert generic_link_chi(saddle, 2) == 4
    values, degenerate = _implicit_end_counts(saddle, normals)
    assert np.count_nonzero(degenerate) <= 10
    assert np.all(values[~degenerate] == 4.0)
    trough = SmoothSet(chart=None, declared_chi=1,
                       implicit=Poly(3, {(2, 0, 0): 1.0, (0, 0, 1): -1.0}))
    assert generic_link_chi(trough, 2) is None
    assert lk.link_chi_batch(trough, normals)[1].all()
    with pytest.raises(GenericityError):
        lk.grassmann_mean_batch(3, lambda u: lk.link_chi_batch(trough, u), 200, 42)


def test_a_sphere_factor_of_the_leading_form_is_not_a_real_root(sets):
    # (x^2 + y^2 - z^2)(x^2 + y^2 + z^2) restricted to a plane vanishes at
    # s = (1, -i), a root at w = inf of its Cayley polynomial: it is dropped,
    # not a reason to reject the plane, and the other factor gives the
    # quadric's ends
    _, quartic = lk.resolve_set(str(SETS / "quartic_hyperboloid_r3.json"))
    normals = np.concatenate(list(slot_frames(3, 1, 89, 2000)))
    values, degenerate = _implicit_end_counts(quartic, normals)
    quadric, _ = _implicit_end_counts(sets["hyperboloid_r3"], normals)
    assert not degenerate.any()
    assert np.array_equal(values, quadric)
    assert 0.0 < np.mean(values == 4.0) < 1.0


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
    far_plane = SmoothSet(chart=None,
                          implicit=Poly(3, {(1, 0, 0): 1.0, (0, 0, 0): -1.0e5}),
                          declared_chi=1)
    horizontal = Subspace(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    result = link_infinity_chi(far_plane, horizontal)
    assert result.stable and result.chi == 2
    # the set is a flat, so every plane takes the closed form, the null set
    # of planes parallel to it included
    assert generic_link_chi(far_plane, 2) == 2
    values, degenerate = lk.link_chi_batch(far_plane, np.array([[1.0, 0.0, 0.0],
                                                                [0.6, 0.8, 0.0]]))
    assert degenerate.tolist() == [False, False] and values.tolist() == [2.0, 2.0]


def _cubic_surface():
    # x^3 - 3 x y^2 + z^3 = 1: restricted cubic leading forms have one or
    # three real roots, so generic plane sections have 2 or 6 ends
    return SmoothSet(chart=None,
                     implicit=Poly(3, {(3, 0, 0): 1.0, (1, 2, 0): -3.0, (0, 0, 3): 1.0,
                                       (0, 0, 0): -1.0}),
                     declared_chi=1)


def _haar_normals(seed, count, n=3):
    return np.stack([haar_sample(n, 1, substream(seed, STREAM_GRASSMANN, i)).frame[0]
                     for i in range(count)])


def test_batched_link_counts_match_circle_ladder(sets):
    # the ladder counts crossings on circles about the plane's center; the
    # library's count takes no center
    from circle_ladder import ladder_link

    normals = _haar_normals(59, 200)
    frames = hyperplane_frames(normals)
    for name, center in itertools.product(
        ("hyperboloid_r3", "paraboloid_r3", "cylinder_r3", "plane_r2_in_r3"),
        (np.zeros(3), np.array([0.0, 0.0, 3.0])),
    ):
        x = sets[name]
        values, degenerate = lk.link_chi_batch(x, normals)
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
    normals = _haar_normals(59, 100)
    frames = hyperplane_frames(normals)
    values, degenerate = lk.link_chi_batch(cubic, normals)
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
    normals = _haar_normals(61, 50)
    values, degenerate = lk.link_chi_batch(hyp, normals)
    assert not degenerate.any()
    for frame, value in zip(hyperplane_frames(normals), values):
        section_link = link_infinity_chi(hyp, Subspace(3, 2, frame))
        assert section_link.stable and section_link.chi == value


CONE_SETS = ("cross_r2", "plane_cone_r3", "star3_cone_r3")


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


def _assert_matches_reference(x, normals):
    values, degenerate = lk.link_chi_batch(x, normals)
    ref_values, ref_degenerate = _reference_links(x, hyperplane_frames(normals),
                                                  np.zeros(x.ambient_dim))
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(values[~degenerate], ref_values[~degenerate])
    return degenerate


def test_batched_exact_links_match_per_plane_reference(sets):
    for name in CONE_SETS:
        x = sets[name]
        n = x.ambient_dim
        normals = _haar_normals(71, 500, n)
        degenerate = _assert_matches_reference(x, normals)
        assert np.count_nonzero(degenerate) <= 5, name


@pytest.mark.parametrize("name", ("star3_cone_r3", "plane_cone_r3"))
def test_translated_cone_links_match_a_far_sphere_count(sets, name):
    # a plane off the apex meets each sector in a segment, a ray or a line;
    # the reference counts their points on a far sphere about the plane's
    # center, and the library's count takes no center
    from per_plane_links import FAR_RADIUS, far_sphere_count

    x = sets[name]
    normals = _haar_normals(79, 200)
    values, degenerate = lk.link_chi_batch(x, normals)
    for center in ((1.0, 2.0, 0.5), (-3.0, 0.25, 4.0), (0.0, 0.0, -7.5)):
        center = np.array(center)
        compared = 0
        for normal, value, bad in zip(normals, values, degenerate):
            try:
                far = far_sphere_count(x.graph, normal[None], center, FAR_RADIUS)
            except DegenerateSample:
                continue
            if not bad:
                assert value == far, (center, normal)
                compared += 1
        assert compared >= 180, center


def test_conic_sections_match_per_plane_reference(sets):
    from per_plane_links import graph_section_data

    for name in ("star3_cone_r3", "plane_cone_r3"):
        x = sets[name]
        normals = _haar_normals(73, 40)
        verts, edges, crossing, degenerate = _graph_sections(x.graph, normals)
        for i, frame in enumerate(hyperplane_frames(normals)):
            verts_in, edges_in, crossings = graph_section_data(x.graph, Subspace(3, 2, frame))
            assert not degenerate[i]
            assert np.flatnonzero(verts[i]).tolist() == verts_in
            assert np.flatnonzero(edges[i]).tolist() == edges_in
            assert np.count_nonzero(crossing[i]) == len(crossings)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_hand_built_degenerate_planes_match_per_plane_reference(sets):
    star = sets["star3_cone_r3"]
    graph = star.graph
    leaf = graph.vertices[1]
    # a plane through the apex and a leaf, tilted by 1e-8 towards the leaf:
    # both sit in the gray band between inside and outside
    off_leaf = _unit(np.cross(leaf, [0.0, 0.0, 1.0]))
    gray_vertex = _unit(off_leaf + 1e-8 * leaf)
    # a plane 2e-9 from a leaf meets the leaf's arc within the endpoint margin
    # with the leaf outside it (the vertex band flags that first); a plane
    # through the leaf counts the leaf once, as a vertex
    at_endpoint = _unit(_unit(np.cross(leaf, [1.0, 2.0, 3.0])) + 2e-9 * leaf)
    through_leaf = _unit(np.cross(leaf, [1.0, 2.0, 3.0]))
    # a plane that holds a whole arc
    along_arc = _unit(np.cross(graph.vertices[0], leaf))
    for normal, expected in ((gray_vertex, True), (at_endpoint, True), (through_leaf, False),
                             (along_arc, False)):
        degenerate = _assert_matches_reference(star, normal[None])
        assert degenerate[0] == expected
        if expected:
            with pytest.raises(DegenerateSample):
                link_infinity_chi(star, Subspace(3, 2, hyperplane_frames(normal[None])[0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(("star3_cone_r3", "plane_cone_r3", "hyperboloid_r3",
                             "paraboloid_r3", "cubic")),
       seed=st.integers(0, 2**32 - 1))
def test_exact_links_ignore_the_choice_of_frame(sets, name, seed):
    """A hyperplane's link depends neither on the sign of its normal nor on
    the frame ``link_chi`` is handed, on a cone, a quadric and a cubic."""
    x = _cubic_surface() if name == "cubic" else sets[name]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    normals = _haar_normals(seed % 1000, 20)
    values, degenerate = lk.link_chi_batch(x, normals)
    flipped_values, flipped_degenerate = lk.link_chi_batch(x, -normals)
    assert np.array_equal(degenerate, flipped_degenerate)
    assert np.array_equal(values[~degenerate], flipped_values[~degenerate])
    mix, _ = np.linalg.qr(rng.standard_normal((20, 2, 2)))
    for frame, value, bad in zip(mix @ hyperplane_frames(normals), values, degenerate):
        if not bad:
            assert lk.link_chi(x, Subspace(3, 2, frame)) == value


def test_multiple_root_at_infinity_is_degenerate():
    # t = s^3 has a triple root of its leading form s^3 at infinity
    cusp = SmoothSet(chart=None,
                     implicit=Poly(3, {(3, 0, 0): 1.0, (0, 1, 0): -1.0}), declared_chi=1)
    horizontal = Subspace(3, 2, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(DegenerateSample):
        link_infinity_chi(cusp, horizontal)


def test_compact_set_links_vanish(sets):
    torus = sets["torus_r3"]
    assert full_space_link(torus) == 0
    sub = haar_sample(3, 2, substream(11, STREAM_GRASSMANN, 0))
    assert link_infinity_chi(torus, sub).chi == 0


def _gaussian_frames(rng, m, n, k):
    # the span of k Gaussian vectors is a Haar k-plane
    q, _ = np.linalg.qr(rng.standard_normal((m, n, k)))
    return q.transpose(0, 2, 1)


def _per_plane_links(x, k, center, normals, frames):
    """Link chis of X ∩ (center + H) over a stack of k-planes, by a route that
    does not use the closed forms: the per-plane reference on flats and
    cones, and the end count of the leading form on hyperplane sections of
    unbounded implicit surfaces of degree 2 or more; None elsewhere."""
    if isinstance(x, (LinearSubspace, ConicGraph)):
        return _reference_links(x, frames, center)
    if (k == x.ambient_dim - 1 and not x.compact and x.implicit is not None
            and x.implicit.degree() >= 2):
        return _implicit_end_counts(x, normals)
    return None


def test_generic_link_chi_matches_the_batched_oracle(sets):
    rng = np.random.default_rng(19)
    flats = {f"flat{d}_r{n}": LinearSubspace(np.linalg.qr(rng.standard_normal((n, d)))[0].T)
             for n, d in ((3, 2), (4, 2), (4, 3))}
    normals = {n: _gaussian_frames(rng, 2000, n, 1)[:, 0] for n in (2, 3, 4)}
    frames = {(n, k): _gaussian_frames(rng, 300, n, k) for n in (2, 3, 4) for k in range(1, n)}
    generic, varying = {}, {}
    for name, x in {**sets, **flats}.items():
        n = x.ambient_dim
        for k, shifted in itertools.product(range(1, n), (False, True)):
            center = np.array([1.0, 2.0, 0.5, -1.0][:n]) if shifted else np.zeros(n)
            chi = generic_link_chi(x, k)
            links = _per_plane_links(x, k, center, normals[n], frames[n, k])
            if links is None:
                continue
            values, degenerate = links
            assert np.count_nonzero(degenerate) <= 5, (name, k, shifted)
            if chi is None:
                varying[name, k] = set(values[~degenerate])
                continue
            assert np.all(values[~degenerate] == chi), (name, k, shifted)
            generic[name, k] = chi
    for name in ("star3_cone_r3", "hyperboloid_r3"):
        assert len(varying[name, 2]) > 1
    # semidefinite quadrics: almost every plane cuts the cylinder and the
    # paraboloid in an ellipse
    assert {key: chi for key, chi in generic.items() if key[1] == 2 and key[0] in sets
            and isinstance(sets[key[0]], SmoothSet)} == {
        ("cylinder_r3", 2): 0, ("paraboloid_r3", 2): 0,
    }
    # flat sections are spheres S^(d+k-n-1): chi 2 for a line, 0 for a circle
    assert {key: chi for key, chi in generic.items() if key[0] in flats} == {
        ("flat2_r3", 1): 0, ("flat2_r3", 2): 2,
        ("flat2_r4", 1): 0, ("flat2_r4", 2): 0, ("flat2_r4", 3): 2,
        ("flat3_r4", 1): 0, ("flat3_r4", 2): 2, ("flat3_r4", 3): 0,
    }


def test_generic_link_chi_keeps_the_oracle_refusals(sets):
    # where the oracle refuses a section, the closed form has no value either,
    # so the refusal reaches the report
    chart_only = SmoothSet(chart=sets["cylinder_r3"].chart,
                           declared_chi=0)
    threefold = SmoothSet(chart=None, declared_chi=1, implicit=Poly(4, {
        (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): -1.0,
        (0, 0, 0, 0): -1.0}))
    for x in (chart_only, threefold):
        assert generic_link_chi(x, x.ambient_dim - 1) is None
        with pytest.raises(UnsupportedSection):
            lk.link_chi_batch(x, np.eye(x.ambient_dim)[:1])
    # lines miss a cone in R^3 and meet one in R^2 at its apex alone
    assert generic_link_chi(sets["star3_cone_r3"], 1) == 0
    assert generic_link_chi(sets["cross_r2"], 1) == 0


def test_curve_full_space_link(sets):
    cubic = sets["twisted_cubic_r3"]
    assert full_space_link(cubic) == 2
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
        assert full_space_link(cross) == expected


def test_curve_full_space_link_off_center(sets):
    # the reference counts sign changes of |p(t) - c|^2 - R^2 on a dense grid
    # that runs past both ends of the curve's part inside the ball
    cubic = sets["twisted_cubic_r3"]
    ts = np.linspace(-20.0, 20.0, 200001)[:, None]
    pts = cubic.chart.jet(ts)[0]
    for center in CURVE_CENTERS:
        vals = np.sum((pts - center) ** 2, axis=1) - 1.0e3**2
        expected = int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))
        assert expected == 2
        assert full_space_link(cubic) == expected


def test_curve_on_bounded_domain_has_empty_link(tmp_path, sets):
    doc = set_to_dict("cubic_arc", sets["twisted_cubic_r3"])
    doc["charts"][0]["domain"] = [[-2.0, 2.0]]
    path = tmp_path / "cubic_arc.json"
    path.write_text(json.dumps(doc))
    # the file still declares the whole curve's noncompactness, which its domain denies
    with pytest.raises(SetValidationError, match="compact"):
        lk.resolve_set(str(path))
    del doc["compact"]
    path.write_text(json.dumps(doc))
    _, arc = lk.resolve_set(str(path))
    assert arc.compact and full_space_link(arc) == 0
    # the arc lies inside every large sphere, about any center
    pts = arc.chart.jet(np.linspace(-2.0, 2.0, 2001)[:, None])[0]
    for center in CURVE_CENTERS:
        assert np.max(np.linalg.norm(pts - center, axis=1)) < 1.0e3


def test_unsupported_section_raises(sets):
    # a proper-plane section of a smooth set without an implicit form is out of scope
    no_implicit = SmoothSet(chart=sets["hyperboloid_r3"].chart, declared_chi=5)
    sub = haar_sample(3, 2, substream(41, STREAM_GRASSMANN, 0))
    with pytest.raises(UnsupportedSection):
        link_infinity_chi(no_implicit, sub)
    # a curve known only by its implicit form, here a circle, has no parameter
    # range that would certify its ends
    circle = SmoothSet(chart=None, implicit=Poly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}))
    with pytest.raises(UnsupportedSection):
        full_space_link(circle)


# ------------------------------------------------------------------ sections


def test_linear_section(sets):
    # a flat's hyperplane sections are closed forms: two planes meet in a line,
    # whose link at infinity is S^0, and a line meets a plane in a point
    v = LinearSubspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert generic_link_chi(v, 2) == 2
    assert generic_link_chi(sets["line_r3"], 2) == 0
    # the oracle takes the closed form on every plane of a flat, so no
    # special plane of one can slip past it
    values, degenerate = lk.link_chi_batch(v, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert values.tolist() == [2.0, 2.0] and not degenerate.any()


def test_cross_axis_section_is_a_line(sets):
    # the x-axis holds two opposite vertices of the cross: the section is the
    # line through them, with the link S^0 of the line itself
    values, degenerate = lk.link_chi_batch(sets["cross_r2"], np.array([[0.0, 1.0]]))
    assert values.tolist() == [2.0] and not degenerate[0]
    assert values[0] == full_space_link(sets["line_r2"])


def test_smooth_section_residuals(sets):
    par = sets["paraboloid_r3"]
    sub = haar_sample(3, 2, substream(29, STREAM_GRASSMANN, 4))
    g = par.implicit.compose_affine(np.zeros(3), sub.frame)
    piece = SmoothSet(chart=None, implicit=g, declared_chi=None)
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
    charts = [(name, sets[name].chart) for name in ("sphere_s2", "torus_r3", "hyperboloid_r3",
                                                    "paraboloid_r3", "cylinder_r3",
                                                    "plane_r2_in_r3", "twisted_cubic_r3")]
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
        box = _trace_box(chart, 8.0, np.zeros(chart.ambient_dim))
        span = box[:, 1] - box[:, 0]
        lo = box[:, 0] + 0.1 * span
        hi = box[:, 1] - 0.1 * span
        u = rng.uniform(lo, hi, size=(100, chart.dim))
        _, jac, hess = chart.jet(u)
        for a in range(chart.dim):
            step = np.zeros(chart.dim)
            step[a] = h
            ahead, jac_ahead, _ = chart.jet(u + step)
            behind, jac_behind, _ = chart.jet(u - step)
            fd_jac = (ahead - behind) / (2 * h)
            scale = np.maximum(np.abs(jac[:, :, a]), 1.0)
            assert np.max(np.abs(fd_jac - jac[:, :, a]) / scale) < 1e-5, name
            fd_hess = (jac_ahead - jac_behind) / (2 * h)
            for b in range(chart.dim):
                scale = np.maximum(np.abs(hess[:, :, b, a]), 1.0)
                assert np.max(np.abs(fd_hess[:, :, b] - hess[:, :, b, a]) / scale) < 1e-5, name


def test_paraboloid_box_edge_at_huge_radius():
    # r^2 + r^4 = R^2 at the edge, a quartic whose coefficients span 200
    # orders of magnitude: its roots are found in r / S, with no warning
    radius = 1e100
    (piece,), = build_chart("paraboloid").ball_intervals((radius,), np.zeros(3))
    edge = math.sqrt((math.sqrt(1.0 + 4.0 * radius * radius) - 1.0) / 2.0)
    assert piece[0] == 0.0
    assert piece[1] == pytest.approx(edge, rel=1e-12)


def test_box_fitters_reject_radii_whose_square_overflows():
    # at R = 1e200 the intervals would end near |z| = 7e199 and r = 1e100, but
    # the gap polynomials hold R^2
    for name in CHART_BUILDERS:
        chart = build_chart(name, params={"coefficients": [[0.0, 1.0]] * 3}
                            if name == "poly_curve" else None)
        with pytest.raises(ValueError, match="R\\^2 is not finite"):
            chart.ball_intervals((8.0, 1e200), np.zeros(chart.ambient_dim))


def scan_distances(chart, center, t):
    """Along t, the distance from the center to the nearest and to the
    farthest point of the chart's circle at t (the curve point on a curve),
    with A, B and C of |p - c|^2 = A + B cos phi + C sin phi read off the
    points at phi = 0, pi / 2 and pi."""
    if chart.rotation_axis is None:
        dist = np.linalg.norm(chart.jet(t[:, None])[0] - center, axis=1)
        return dist, dist
    u = np.zeros((len(t), 2))
    u[:, chart.profile_axis] = t

    def dist2(phi):
        u[:, chart.rotation_axis] = phi
        return np.sum((chart.jet(u)[0] - center) ** 2, axis=1)

    at0, at_quarter, at_half = dist2(0.0), dist2(0.5 * np.pi), dist2(np.pi)
    middle = 0.5 * (at0 + at_half)
    rho = np.hypot(0.5 * (at0 - at_half), at_quarter - middle)
    return np.sqrt(np.maximum(middle - rho, 0.0)), np.sqrt(middle + rho)


def assert_pieces_match_scan(chart, radius, center, lo, hi, label):
    # a dense sign scan of the unsquared gaps |p - c| - R, nearest and
    # farthest: away from the piece ends the pieces cover exactly the nodes
    # whose circle meets the ball, each end lies at a sign change of a gap or
    # at an end of the domain, and each sign change lies at an end
    pieces = chart.ball_intervals((radius,), center)[0]
    assert np.all(pieces[:, 0] < pieces[:, 1]) and np.all(pieces[1:, 0] >= pieces[:-1, 1]), label
    t = np.linspace(lo, hi, 20001)
    step = t[1] - t[0]
    near, far = scan_distances(chart, center, t)
    meets = near - radius <= 0.0
    changes = t[1:][(np.diff(meets.astype(int)) != 0) | (np.diff((far - radius <= 0.0).astype(int)) != 0)]
    ends = pieces.ravel()
    covered = np.zeros(len(t), dtype=bool)
    for a, b in pieces:
        covered |= (t >= a) & (t <= b)
    clear = np.ones(len(t), dtype=bool) if not len(ends) else (
        np.min(np.abs(t[:, None] - ends[None, :]), axis=1) > 2.0 * step)
    assert np.array_equal(covered[clear], meets[clear]), label
    for end in ends:
        assert end in (lo, hi) or np.min(np.abs(changes - end)) <= 2.0 * step, (label, end)
    for change in changes:
        assert np.min(np.abs(ends - change)) <= 2.0 * step, (label, change)
    return pieces


TWO_PIECE_CURVE = [[-4.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]  # (t^2 - 4, t, 0)
SKEWED_FRAME = {"frame": [[1.0, 0.3, -0.2, 0.1], [0.4, 1.1, 0.5, 0.0]],
                "origin": [0.3, -0.2, 0.1, 0.5]}

# (map, params, scan window of t, centers, radii): on and off the axis, and
# balls that miss the set
INTERVAL_CASES = [
    ("plane", None, (0.0, 12.0), ((0, 0, 0), (0.4, 0.3, 1), (3, 0, 0)), (0.5, 2.5, 8.0)),
    ("plane", SKEWED_FRAME, (0.0, 12.0), ((0, 0, 0, 0), (0.4, 0.3, 1, -1), (3, 0, 0, 1)),
     (0.5, 2.5, 8.0)),
    ("sphere", None, (0.0, np.pi), ((0, 0, 0), (0, 0, 3), (0.5, 0.5, 0.5), (3, 0, 0)),
     (0.5, 1.5, 3.0, 4.5)),
    ("sphere", {"radius": 2.5, "center": [1.0, -2.0, 0.5]}, (0.0, np.pi),
     ((0, 0, 0), (1, -2, 3)), (1.0, 3.0, 6.0)),
    ("cylinder", None, (-12.0, 12.0), ((0, 0, 0), (0.4, 0.3, 1), (3, 0, 0)), (0.5, 1.5, 8.0)),
    ("paraboloid", None, (0.0, 4.0), ((0, 0, 0), (0, 0, 3), (1.5, 0.7, 3), (0, 0, -2)),
     (0.5, 1.2, 2.5, 8.0)),
    ("paraboloid", {"coefficient": 0.5}, (0.0, 6.0), ((0, 0, 0), (1.5, 0.7, 3)), (1.2, 8.0)),
    ("hyperboloid_one_sheet", None, (-12.0, 12.0),
     ((0, 0, 0), (0, 0, 2), (1e-9, 0, 2), (1.5, 0.7, 3), (3, 0, 0)), (0.5, 1.5, 2.5, 8.0)),
    ("torus", None, (0.0, 2.0 * np.pi), ((0, 0, 0), (3, 0, 0), (0, 0, 1), (-2.2, 1.9, 0.3)),
     (0.3, 1.4, 2.0, 3.0, 5.0)),
    ("poly_curve", {"coefficients": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]]}, (-6.0, 6.0),
     ((0, 0, 0), (0.5, 0.5, 0.5), (3, 0, 0)), (0.5, 1.5, 8.0)),
    ("poly_curve", {"coefficients": TWO_PIECE_CURVE}, (-5.0, 5.0), ((0, 0, 0), (1, 0.5, 0)),
     (1.9, 3.0, 4.2)),
]


@pytest.mark.parametrize("name, params, window, centers, radii", INTERVAL_CASES)
def test_ball_intervals_match_dense_sign_scan(name, params, window, centers, radii):
    chart = build_chart(name, params=params)
    for center in centers:
        for radius in radii:
            assert_pieces_match_scan(chart, radius, np.array(center, dtype=float), *window,
                                     f"{name} {params} at {center}, R = {radius}")


def test_ball_intervals_of_tangent_and_missed_balls():
    # balls that touch the set in a point or a circle, and balls just short
    # of it: no piece of positive length
    for name, params, center, radius in (
            ("sphere", None, (3, 0, 0), 2.0), ("plane", None, (0.4, 0.3, 1), 1.0),
            ("cylinder", None, (3, 0, 0), 2.0), ("paraboloid", None, (0, 0, -2), 2.0),
            ("hyperboloid_one_sheet", None, (0, 0, 0), 1.0), ("torus", None, (0, 0, 0), 1.5),
            ("poly_curve", {"coefficients": TWO_PIECE_CURVE}, (0, 0, 0), math.sqrt(3.75))):
        chart = build_chart(name, params=params)
        center = np.array(center, dtype=float)
        touching, short = chart.ball_intervals((radius, radius * (1.0 - 1e-9)), center)
        assert np.sum(touching[:, 1] - touching[:, 0]) <= 1e-6, name
        assert len(short) == 0, name


def test_hyperboloid_intervals_on_and_near_its_axis():
    # on the axis the quartic is the square of L(z) = 2 z^2 - 2 h z + 1 + h^2 - R^2,
    # whose roots bound the piece; a hair off the axis the quartic has two
    # nearly double roots, and no part of the piece may be lost
    chart = build_chart("hyperboloid_one_sheet")
    for h, radius in ((2.0, 5.0), (0.0, 8.0), (-3.0, 4.0)):
        (piece,), = chart.ball_intervals((radius,), np.array([0.0, 0.0, h]))
        roots = np.sort(np.roots([2.0, -2.0 * h, 1.0 + h * h - radius * radius]).real)
        np.testing.assert_allclose(piece, roots, rtol=1e-14, atol=1e-14)
        near = chart.ball_intervals((radius,), np.array([1e-9, 0.0, h]))[0]
        assert near[0, 0] == pytest.approx(roots[0], abs=1e-6)
        assert near[-1, 1] == pytest.approx(roots[1], abs=1e-6)
        assert np.all(near[1:, 0] == near[:-1, 1])  # one interval, cut where wholly inside


def one_row_real_parts(row):
    """The real parts of one row's roots: ``np.roots`` of the monic row in
    t / S, from logarithms, times S, as the root finder made them one row at
    a time before it was batched."""
    coeffs = np.trim_zeros(np.asarray(row, dtype=float), "f")
    degree = len(coeffs) - 1
    if degree < 1:
        return np.empty(0)
    logs = np.full(len(coeffs), -np.inf)
    logs[coeffs != 0.0] = np.log(np.abs(coeffs[coeffs != 0.0]))
    log_scale = float(np.max((logs[1:] - logs[0]) / np.arange(1, degree + 1)))
    log_scale = log_scale if math.isfinite(log_scale) else 0.0
    monic = np.sign(coeffs) * np.exp(logs - logs[0] - np.arange(degree + 1) * log_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.roots(monic).real * np.exp(log_scale)


def hyperboloid_gap_row(s, h, radius):
    """The hyperboloid's gap polynomial in z / scale, as its disc builds it."""
    k = 1.0 + s * s + h * h - radius * radius
    scale = math.sqrt(max(1.0, abs(k)))
    quadratic = np.array([2.0, -2.0 * h / scale, k / scale / scale])
    return quadratic if s == 0.0 else np.polysub(
        np.polymul(quadratic, quadratic),
        4.0 * (s / scale) ** 2 * np.array([1.0, 0.0, 1.0 / scale / scale]))


def test_batched_roots_match_one_row_np_roots():
    # one call, rows of every kind: the on-axis quadratic and off-axis quartics
    # of the hyperboloid (a hair off the axis its roots are nearly double),
    # zero constant terms, leading zeros, a near-double root that rounding
    # makes complex, constants, rows whose scale S overflows, and a root
    # beyond the largest double
    beyond = [1e-308, -1.2, -1.44e308]  # roots ~ 1.94e308 (past the doubles) and -7.4e307
    # roots ~ -1e310 and 1e-10, -1e-10 and 1e310, and the first pair with one at 0
    spread = [[1e-300, 1e10, -1.0], [1e-300, -1e10, -1.0], [1e-300, 1e10, -1.0, 0.0]]
    rows = [hyperboloid_gap_row(0.0, 2.0, 5.0), hyperboloid_gap_row(1.5, 0.7, 8.0),
            hyperboloid_gap_row(1e-9, 2.0, 5.0), hyperboloid_gap_row(1e-9, -3.0, 4.0),
            [1.0, -3.0, 2.0, 0.0], [1.0, 0.0, -1.0, 0.0, 0.0], [3.0, 0.0],
            [0.0, 0.0, 1.0, -1.0], [0.0, 2.0, -3.0, 1.0], [1.0, -2.0, 1.0 + 1e-15],
            [2.0], [0.0, 0.0], *spread, beyond]
    got = _real_parts_of_roots(rows)
    assert len(got) == len(rows)
    spread_got = got[-1 - len(spread):-1]
    for row, values in zip(rows, got):
        if any(row is other for other in spread):
            continue
        # bit for bit, in np.roots's order, signed zeros and NaNs included
        want = one_row_real_parts(row)
        assert values.dtype == want.dtype and values.tobytes() == want.tobytes(), row
    assert np.iscomplexobj(np.roots([1.0, -2.0, 1.0 + 1e-15]))  # the near-double row
    # where S overflows, t / S would underflow the small root (np.roots of the
    # scaled row gives -inf and nan): it keeps full precision, and the root
    # past the doubles is not finite
    for row, values, small in zip(spread, spread_got, (1e-10, -1e-10, 1e-10)):
        assert len(values) == len(row) - 1
        assert np.count_nonzero(~np.isfinite(values)) == 1, row
        finite = values[np.isfinite(values) & (values != 0.0)]
        assert len(finite) == 1 and abs(finite[0] - small) <= 1e-12 * abs(small), row
    assert np.count_nonzero(spread_got[2] == 0.0) == 1
    huge, finite = sorted(got[-1], key=np.isfinite)
    assert huge == np.inf and -1e308 < finite < 0.0

    # the root past the doubles bounds no span: the finite root and the
    # domain ends do, and each row's own gap picks the side between them
    def gap(t, i):
        return np.array([np.polyval(rows[-2:][j], v) for v, j in zip(t, i)])

    spans = _sublevel(rows[-2:], gap, -1e308, 1e308)
    assert spans[1] == [(finite, 1e308)]
    assert all(-1e308 <= end <= 1e308 for pieces in spans for span in pieces for end in span)


def test_set_file_domain_clips_the_intervals(tmp_path):
    # the torus patch's set file gives psi in [-1, 2]: the pieces lie in it,
    # and those of the whole tube are cut to it
    doc = {"name": "torus_patch_r3", "ambient_dim": 3, "kind": "smooth", "dim": 2,
           "charts": [{"map": "torus", "domain": [[0.4, 5.5], [-1.0, 2.0]],
                       "params": {"major_radius": 2.0, "minor_radius": 0.5}}],
           "declared_chi": 1, "compact": True}
    path = tmp_path / "torus_patch_r3.json"
    path.write_text(json.dumps(doc))
    chart = lk.resolve_set(str(path))[1].chart
    whole = build_chart("torus")
    for center in ((0, 0, 0), (3, 0, 0), (-2.2, 1.9, 0.3)):
        center = np.array(center, dtype=float)
        for radius in (1.4, 2.0, 3.0):
            pieces = assert_pieces_match_scan(chart, radius, center, -1.0, 2.0,
                                              f"patch at {center}, R = {radius}")
            # the whole tube's pieces, one turn back and clipped to [-1, 2],
            # have the same ends, but for the cut at psi = 0 between turns
            spans = whole.ball_intervals((radius,), center)[0]
            want = np.clip(np.concatenate([spans - 2.0 * np.pi, spans]), -1.0, 2.0)
            ends, want = np.unique(pieces), np.unique(want[want[:, 0] < want[:, 1]])
            if 0.0 not in ends:
                want = want[want != 0.0]
            np.testing.assert_allclose(ends, want, rtol=0, atol=1e-12)


def test_two_piece_curve_length_is_exact():
    # (t^2 - 4, t, 0) leaves the radius-3 ball at |t| = 1.0994 and comes back
    # at |t| = 2.4065; its length there is 2 (F(b) - F(a)), with
    # F(t) = t sqrt(1 + 4 t^2) / 2 + asinh(2 t) / 4
    x = SmoothSet(build_chart("poly_curve", params={"coefficients": TWO_PIECE_CURVE}),
                  declared_chi=1)
    pieces = x.chart.ball_intervals((3.0,), np.zeros(3))[0]
    a, b = math.sqrt((7.0 - math.sqrt(21.0)) / 2.0), math.sqrt((7.0 + math.sqrt(21.0)) / 2.0)
    np.testing.assert_allclose(pieces, [[-b, -a], [a, b]], rtol=1e-14)

    def primitive(t):
        return t * math.sqrt(1.0 + 4.0 * t * t) / 2.0 + math.asinh(2.0 * t) / 4.0

    exact = 2.0 * (primitive(b) - primitive(a))
    (value, bound), = lk.curvature_measures(x, (1,), 3.0)
    assert abs(value - exact) < 1e-10
    # both rules integrate a smooth integrand to rounding, so the bound is
    # compared above a rounding floor of 1e-13 relative
    assert abs(value - exact) <= bound + 1e-13 * exact


@pytest.mark.parametrize("frame", [[[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]],
                                   [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]]])
def test_plane_frames_that_are_not_orthonormal_measure_the_plane(tmp_path, frame):
    # polar coordinates on an orthonormal basis of the frame's span: the
    # area in the radius-8 ball is 64 pi, whatever the frame's rows
    x = SmoothSet(declared_chi=1,
                  chart=build_chart("plane", params={"frame": frame}))
    (value, bound), = lk.curvature_measures(x, (2,), 8.0)
    assert value == pytest.approx(64.0 * math.pi, rel=1e-12)
    assert bound <= 1e-10
    # a polar domain on such a frame would be a sector of an ellipse
    doc = {"name": "skewed", "ambient_dim": 3, "kind": "smooth", "dim": 2, "declared_chi": 1,
           "charts": [{"map": "plane", "domain": [[0.0, 2.0], [0.0, 1.0]],
                       "params": {"frame": frame}}]}
    with pytest.raises(SetValidationError, match="charts.domain"):
        set_from_dict(doc)
    doc["charts"][0]["params"]["frame"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    set_from_dict(doc)


def test_plane_frame_keeps_orthonormal_rows_and_refuses_parallel_ones():
    frame = [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5]]
    u = np.array([[2.0, 0.0], [2.0, 0.5 * np.pi]])
    points = build_chart("plane", params={"frame": frame}).jet(u)[0]
    np.testing.assert_allclose(points, 2.0 * np.array(frame), rtol=0, atol=1e-15)
    with pytest.raises(SetValidationError, match="charts.params.frame"):
        build_chart("plane", params={"frame": [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]})


def test_chart_points_satisfy_implicit_form(sets, rng):
    for name in ("sphere_s2", "torus_r3", "hyperboloid_r3", "paraboloid_r3"):
        x = sets[name]
        chart = x.chart
        box = _trace_box(chart, 16.0, np.zeros(3))
        u = rng.uniform(box[:, 0], box[:, 1], size=(400, chart.dim))
        pts = chart.jet(u)[0]
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


# (ambient_dim, dim, compact) of each builtin and shipped set file, as their
# definitions declared them by hand before these values were derived
DECLARED = {
    "line_r2": (2, 1, False), "line_r3": (3, 1, False), "cross_r2": (2, 1, False),
    "plane_cone_r3": (3, 2, False), "star3_cone_r3": (3, 2, False),
    "sphere_s2": (3, 2, True), "torus_r3": (3, 2, True), "cylinder_r3": (3, 2, False),
    "plane_r2_in_r3": (3, 2, False), "paraboloid_r3": (3, 2, False),
    "hyperboloid_r3": (3, 2, False), "twisted_cubic_r3": (3, 1, False),
    "tests/sets/plane_r2_in_r4.json": (4, 2, False),
    "tests/sets/quartic_hyperboloid_r3.json": (3, 2, False),
    "tests/sets/star4_cone_r4.json": (4, 2, False),
    "perfbench/sets/plane_r2_in_r4.json": (4, 2, False),
}


def test_derived_values_match_the_declared_ones(sets):
    root = SETS.parent.parent
    for ref, want in DECLARED.items():
        x = sets[ref] if ref in sets else lk.resolve_set(str(root / ref))[1]
        assert (x.ambient_dim, x.dim, x.compact) == want, ref
    # a sphere file that leaves compactness out is compact by its chart
    doc = set_to_dict("sphere", sets["sphere_s2"])
    del doc["compact"], doc["dim"]
    assert set_from_dict(doc).compact


def test_load_set_file(tmp_path, sets):
    doc = set_to_dict("hyperboloid_r3", sets["hyperboloid_r3"])
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps(doc))
    name, descriptor = lk.resolve_set(str(path))
    assert name == "hyperboloid_r3"
    assert isinstance(descriptor, SmoothSet)


def test_resolved_builtin_matches_the_catalog(sets):
    for name, want in sets.items():
        resolved, got = lk.resolve_set(name)
        assert resolved == name
        assert type(got) is type(want), name
        assert describe(got) == describe(want), name
        if isinstance(want, SmoothSet):
            assert got.chart.label == want.chart.label, name
            assert got.chart.params.keys() == want.chart.params.keys(), name
            for key, value in want.chart.params.items():
                assert np.array_equal(got.chart.params[key], value), (name, key)


def test_resolving_a_set_file_builds_no_builtin(tmp_path, sets, monkeypatch):
    from lkcurv.catalog import sets as catalog

    def unbuilt():
        raise AssertionError("a builtin set was built")

    monkeypatch.setattr(catalog, "builtin_sets", unbuilt)
    for name in list(catalog._BUILTINS):
        monkeypatch.setitem(catalog._BUILTINS, name, unbuilt)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(set_to_dict("my_line", sets["line_r3"])))
    name, x = lk.resolve_set(str(path))
    assert name == "my_line" and isinstance(x, LinearSubspace)


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
