import math

import numpy as np
import pytest

import lkcurv as lk
from lkcurv import UnsupportedSection
from lkcurv.catalog import ConicGraph, SphericalGraph
from lkcurv.spherical import conic_lk_measure_detailed, spherical_lk
from vertex_index import (
    NonGenericDirectionError, spherical_gauss_bonnet_check, vertex_index_mean, vertex_morse_index,
)


def tangent_at(graph, vertex, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    v = rng.standard_normal(graph.ambient_dim)
    v -= np.dot(v, graph.vertices[vertex]) * graph.vertices[vertex]
    return v / np.linalg.norm(v)


# ------------------------------------------------------------- vertex indices


def test_isolated_vertex_index_is_one(graphs):
    graph = graphs["antipodal_s2"]
    for vertex in range(2):
        for seed in range(5):
            v = tangent_at(graph, vertex, seed)
            assert vertex_morse_index(graph, vertex, v) == 1


def test_through_vertex_index_is_zero(graphs):
    # degree-2 vertices of the circle graph have opposite tangents
    graph = graphs["circle_s2"]
    for seed in range(5):
        v = tangent_at(graph, 0, seed)
        assert vertex_morse_index(graph, 0, v) == 0


def test_degree_three_vertex_mean(graphs):
    mean, stderr = vertex_index_mean(graphs["star3_s2"], 0, 10000, seed=5)
    assert abs(mean - (-0.5)) <= 3.0 * stderr


def test_vertex_index_distribution_matches_wedge_fractions():
    # sharper oracle than the mean: for a degree-2 vertex with tangents at
    # angle gamma, a Haar direction sees both edges descend with probability
    # (pi - gamma) / (2 pi)
    gamma = 2.0 * math.pi / 5.0
    apex = np.array([0.0, 0.0, 1.0])
    leaf_angle = 0.4
    leaves = []
    for azimuth in (0.0, gamma):
        leaves.append([
            math.sin(leaf_angle) * math.cos(azimuth),
            math.sin(leaf_angle) * math.sin(azimuth),
            math.cos(leaf_angle),
        ])
    graph = SphericalGraph(vertices=np.vstack([apex, np.array(leaves)]),
                           edges=((0, 1), (0, 2)))
    n_samples = 40000
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 8], dtype=np.uint64)))
    counts = {-1: 0, 0: 0, 1: 0}
    for _ in range(n_samples):
        v = rng.standard_normal(3)
        v -= np.dot(v, apex) * apex
        v /= np.linalg.norm(v)
        counts[vertex_morse_index(graph, 0, v)] += 1
    p_both = (math.pi - gamma) / (2.0 * math.pi)
    for alpha, p in ((-1, p_both), (1, p_both), (0, 1.0 - 2.0 * p_both)):
        sigma = math.sqrt(p * (1.0 - p) / n_samples)
        assert abs(counts[alpha] / n_samples - p) <= 4.0 * sigma, alpha


def test_non_generic_direction_rejected(graphs):
    graph = graphs["star3_s2"]
    u = graph.edge_tangent(0, 0)
    center = graph.vertices[0]
    # build a tangent direction orthogonal to the first edge tangent
    w = np.cross(center, u)
    w /= np.linalg.norm(w)
    with pytest.raises(NonGenericDirectionError):
        vertex_morse_index(graph, 0, w)


# ------------------------------------------------------ relative LK curvature


def test_antipodal_pair_exact(graphs):
    assert spherical_lk(graphs["antipodal_s2"], 0) == 2.0
    assert spherical_lk(graphs["antipodal_s2"], 1) == 0.0


def test_circle_graph_exact(graphs):
    circle = graphs["circle_s2"]
    assert spherical_lk(circle, 0) == 0.0
    assert spherical_lk(circle, 1) == pytest.approx(2.0 * math.pi, rel=1e-12)


def sampled_order0(graph, n_samples, seed):
    """Sum of the sampled vertex index means, with its standard error."""
    means = [vertex_index_mean(graph, v, n_samples, seed) for v in range(graph.n_vertices)]
    return sum(m for m, _ in means), math.sqrt(sum(s * s for _, s in means))


def test_star3_values(graphs):
    star = graphs["star3_s2"]
    assert spherical_lk(star, 0) == 1.0
    value, stderr = sampled_order0(star, 10000, seed=3)
    assert abs(value - 1.0) <= 3.0 * stderr
    assert spherical_lk(star, 1) == pytest.approx(math.pi, rel=1e-12)


def test_higher_orders_vanish(graphs):
    assert spherical_lk(graphs["tetra_s2"], 2) == 0.0


def test_morse_count_identity_all_graphs(graphs):
    # the closed form V - E against the sampled vertex index means
    for name, graph in graphs.items():
        chi = graph.euler_characteristic()
        assert spherical_lk(graph, 0) == chi, name
        value, stderr = sampled_order0(graph, 10000, seed=7)
        assert abs(value - chi) <= max(3.0 * stderr, 1e-12), name


def test_gauss_bonnet_check_reports(graphs):
    for name, graph in graphs.items():
        report = spherical_gauss_bonnet_check(graph, n_samples=10000, seed=9,
                                              set_name=name)
        assert report.overall_pass, name


def test_edge_subdivision_invariance(graphs):
    # inserting a degree-2 vertex along a geodesic arc changes nothing
    star = graphs["star3_s2"]
    mid = star.arc_points(0, np.array([0.5]))[0]
    vertices = np.vstack([star.vertices, mid])
    edges = ((0, 4), (4, 1), (0, 2), (0, 3))
    refined = SphericalGraph(vertices=vertices, edges=edges)
    a0 = spherical_lk(star, 0)
    b0 = spherical_lk(refined, 0)
    assert abs(a0 - b0) <= 1e-12
    a1 = spherical_lk(star, 1)
    b1 = spherical_lk(refined, 1)
    assert a1 == pytest.approx(b1, rel=1e-12)


def test_disjoint_union_additivity(graphs):
    star = graphs["star3_s2"]
    mirrored = SphericalGraph(vertices=-star.vertices, edges=star.edges)
    union = SphericalGraph(
        vertices=np.vstack([star.vertices, -star.vertices]),
        edges=star.edges + tuple((i + 4, j + 4) for i, j in star.edges),
    )
    for k in (0, 1):
        a = spherical_lk(star, k)
        b = spherical_lk(mirrored, k)
        u = spherical_lk(union, k)
        assert abs(u - (a + b)) <= 1e-12


# --------------------------------------------------------------- conic bridge


def test_line_measure(sets):
    # a cone over two antipodal points is a line; order 1 is its length
    line = ConicGraph(lk.builtin_graphs()["antipodal_s2"])
    assert conic_lk_measure_detailed(line, 1, 1.0)[0] == pytest.approx(2.0)


def test_cross_measure(sets):
    assert conic_lk_measure_detailed(sets["cross_r2"], 1, 1.0)[0] == pytest.approx(4.0)
    assert conic_lk_measure_detailed(sets["cross_r2"], 1, 3.0)[0] == pytest.approx(12.0)


def test_plane_cone_measures(sets):
    cone = sets["plane_cone_r3"]
    assert conic_lk_measure_detailed(cone, 2, 1.0)[0] == pytest.approx(math.pi, rel=1e-12)
    assert conic_lk_measure_detailed(cone, 3, 5.0)[0] == 0.0


def test_homogeneity_scaling(sets):
    cone = sets["star3_cone_r3"]
    for k in (1, 2):
        base = conic_lk_measure_detailed(cone, k, 1.0)[0]
        scaled = conic_lk_measure_detailed(cone, k, 4.0)[0]
        assert scaled == pytest.approx(4.0**k * base, rel=1e-12)


def test_shifted_cone_ray_lengths(sets):
    cross = sets["cross_r2"]
    center = np.array([1.0, 2.0])
    radius = 8.0
    value, err = conic_lk_measure_detailed(cross, 1, radius, center=center)
    assert err == 0.0
    # oracle: clip each ray against the off-center disk
    total = 0.0
    for direction in cross.graph.vertices:
        dot = float(direction @ center)
        disc = dot * dot - float(center @ center) + radius * radius
        if disc > 0:
            root = math.sqrt(disc)
            total += max(dot + root, 0.0) - max(dot - root, 0.0)
    assert value == pytest.approx(total, rel=1e-12)


def test_shifted_cone_with_edges_unsupported(sets):
    with pytest.raises(UnsupportedSection):
        conic_lk_measure_detailed(sets["plane_cone_r3"], 2, 4.0, center=np.array([1.0, 0.0, 0.0]))


def test_cone_area_against_triangulated_mesh(sets, graphs):
    # independent oracle for the order-2 reduction: triangulate each conic
    # sector (apex fans over arc subdivisions) and sum the triangle areas
    for name in ("plane_cone_r3", "star3_cone_r3"):
        cone = sets[name]
        graph = cone.graph
        radius = 3.0
        mesh_area = 0.0
        n_sub = 4000
        ts = np.linspace(0.0, 1.0, n_sub + 1)
        for e in range(graph.n_edges):
            pts = radius * graph.arc_points(e, ts)
            # triangles (0, pts_i, pts_{i+1}); radial slivers need no subdivision
            cross = np.cross(pts[:-1], pts[1:])
            mesh_area += 0.5 * float(np.sum(np.linalg.norm(cross, axis=1)))
        value = conic_lk_measure_detailed(cone, 2, radius)[0]
        assert value == pytest.approx(mesh_area, rel=1e-6)
