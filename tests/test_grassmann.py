import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import lkcurv as lk
from lkcurv import (
    DegenerateSample,
    GenericityError,
    Subspace,
    grassmann_mean,
    grassmann_mean_batch,
)
from lkcurv import grassmann
from lkcurv.catalog import ConicGraph, Poly, SmoothSet, SphericalGraph
from lkcurv.catalog.links import hyperplane_breaks, link_chi_batch
from lkcurv.grassmann import (
    STREAM_GRASSMANN, haar_sample, hyperplane_frames, sliced_mean, slot_frames, substream,
)
from per_plane_links import project
from per_slot_streams import grassmann_mean_per_slot


def test_frames_are_orthonormal():
    rng = substream(5, STREAM_GRASSMANN, 0)
    for n, k in [(2, 1), (3, 2), (5, 3), (4, 4)]:
        sub = haar_sample(n, k, rng)
        gram = sub.frame @ sub.frame.T
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10
    # the Householder frames of hyperplanes, also where u_n is 0 or +-1
    for n in (2, 3, 4, 5):
        normals = np.concatenate([rng.standard_normal((20, n)), np.eye(n), -np.eye(n)])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        frames = hyperplane_frames(normals)
        assert frames.shape == (len(normals), n - 1, n)
        gram = frames @ frames.transpose(0, 2, 1)
        assert np.max(np.abs(gram - np.eye(n - 1))) < 1e-14
        assert np.max(np.abs(frames @ normals[:, :, None])) < 1e-15


def test_full_space_sample_spans_everything():
    rng = substream(9, STREAM_GRASSMANN, 0)
    sub = haar_sample(3, 3, rng)
    # any vector is reproduced by projecting onto the frame
    x = np.array([0.3, -1.2, 2.0])
    assert np.linalg.norm(project(sub, x) - x) < 1e-10


def ks_uniform_p_value(samples):
    """Asymptotic p-value of the one-sample Kolmogorov-Smirnov test against
    U(0, 1): P(sqrt(n) D > t) = 2 sum_k (-1)^(k-1) exp(-2 k^2 t^2)."""
    u = np.sort(samples)
    n = u.size
    ranks = np.arange(1, n + 1)
    d = max(np.max(ranks / n - u), np.max(u - (ranks - 1) / n))
    k = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * n * d * d))
    return float(np.clip(p, 0.0, 1.0))


def test_line_angles_uniform_in_r2():
    n_samples = 10000
    angles = np.empty(n_samples)
    for i in range(n_samples):
        sub = haar_sample(2, 1, substream(123, STREAM_GRASSMANN, i))
        v = sub.frame[0]
        angles[i] = math.atan2(v[1], v[0]) % math.pi
    assert ks_uniform_p_value(angles / math.pi) > 0.01


def test_plane_normals_uniform_on_s2():
    # slot_frames gives the frames of haar_sample(3, 2, substream(77,
    # STREAM_GRASSMANN, i)), i = 0, 1, ..., in order
    n_samples = 10000
    frames = np.stack(list(slot_frames(3, 2, 77, n_samples)))
    normals = np.cross(frames[:, 0], frames[:, 1])
    resultant = np.linalg.norm(normals.mean(axis=0))
    assert resultant < 3.0 / math.sqrt(n_samples) * 1.3


def test_constant_integrand():
    est = grassmann_mean(3, 2, lambda h: 2.5, 500, seed=3)
    assert est.mean == 2.5
    assert est.stderr == 0.0
    with pytest.raises(ValueError, match="hyperplanes"):
        grassmann_mean(3, 1, lambda h: 2.5, 500, seed=3)


def test_cross_generic_line_misses(sets):
    cross = sets["cross_r2"]
    est = grassmann_mean(
        2, 1, lambda h: lk.link_chi(cross, h), 2000, seed=11
    )
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_hyperboloid_mean_against_dense_grid_oracle(sets):
    hyp = sets["hyperboloid_r3"]
    target = 2.0 * math.sqrt(2.0)
    est = grassmann_mean(3, 2, lambda h: lk.link_chi(hyp, h), 4000, seed=21)
    assert abs(est.mean - target) <= 3.0 * est.stderr + 1e-9
    # independent oracle: quadrature over plane normals on a polar grid
    n_theta = 400
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    total = 0.0
    for theta in thetas:
        nu = np.array([math.sin(theta), 0.0, math.cos(theta)])
        q, _ = np.linalg.qr(nu[:, None], mode="complete")
        plane = Subspace(3, 2, q[:, 1:].T)
        total += lk.link_chi(hyp, plane) * math.sin(theta)
    grid_mean = total * (math.pi / n_theta) / 2.0
    assert abs(grid_mean - target) < 0.05
    assert abs(est.mean - grid_mean) <= 3.0 * est.stderr + 0.05


def test_determinism_and_worker_independence(sets):
    hyp = sets["hyperboloid_r3"]
    f = lambda h: lk.link_chi(hyp, h)
    a = grassmann_mean(3, 2, f, 300, seed=42, workers=1)
    b = grassmann_mean(3, 2, f, 300, seed=42, workers=3)
    c = grassmann_mean(3, 2, f, 300, seed=42, workers=1)
    assert (a.mean, a.stderr) == (b.mean, b.stderr) == (c.mean, c.stderr)


def test_scalar_and_batched_means_agree(sets):
    from lkcurv.catalog.links import link_chi_batch
    from lkcurv.grassmann import grassmann_mean_batch

    hyp = sets["hyperboloid_r3"]
    scalar = grassmann_mean(3, 2, lambda h: lk.link_chi(hyp, h), 600, seed=42, collect=True)
    batched = grassmann_mean_batch(3, lambda normals: link_chi_batch(hyp, normals), 600,
                                   seed=42, collect=True)
    assert np.array_equal(scalar.values, batched.values)
    assert (scalar.mean, scalar.stderr, scalar.n_rejected) == (
        batched.mean, batched.stderr, batched.n_rejected)


def test_batched_frames_match_haar_sample():
    from lkcurv.grassmann import grassmann_mean_batch

    seen = []

    def record(normals):
        seen.append(normals.copy())
        return np.zeros(len(normals)), np.zeros(len(normals), dtype=bool)

    # outside R^3 the normal of slot i is the line haar_sample draws from its stream
    grassmann_mean_batch(4, record, 300, seed=5, stream=2)
    normals = np.concatenate(seen)
    for i in range(300):
        sub = haar_sample(4, 1, substream(5, STREAM_GRASSMANN, i, 2))
        assert np.array_equal(normals[i], sub.frame[0])


def test_rotation_invariance(sets):
    cone = sets["plane_cone_r3"]
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], dtype=np.uint64)))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = grassmann_mean_batch(3, lambda normals: lk.link_chi_batch(cone, normals),
                             10000, seed=8)
    b = grassmann_mean_batch(3, lambda normals: lk.link_chi_batch(cone, normals @ q.T),
                             10000, seed=9)
    combined = math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) <= 3.0 * combined + 1e-12


def test_frame_gauge_independence(sets):
    hyp = sets["hyperboloid_r3"]
    rng = np.random.Generator(np.random.Philox(key=np.array([6, 1], dtype=np.uint64)))
    for i in range(24):
        sub = haar_sample(3, 2, substream(15, STREAM_GRASSMANN, i))
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        regauged = Subspace(3, 2, rot @ sub.frame)
        assert lk.link_chi(hyp, sub) == lk.link_chi(hyp, regauged)


def test_degenerate_budget_enforced():
    def mostly_bad(h):
        if abs(h.frame[0, 0]) < 0.5:  # roughly a third of draws
            raise DegenerateSample("synthetic")
        return 1.0

    with pytest.raises(GenericityError):
        grassmann_mean(3, 2, mostly_bad, 400, seed=0)

    def rarely_bad(h):
        if abs(h.frame[0, 0]) < 1e-4:
            raise DegenerateSample("synthetic")
        return 1.0

    est = grassmann_mean(3, 2, rarely_bad, 400, seed=0)
    assert est.mean == 1.0


def test_substream_keys_are_disjoint():
    a = substream(1, STREAM_GRASSMANN, 0, 0).standard_normal(4)
    b = substream(1, STREAM_GRASSMANN, 1, 0).standard_normal(4)
    c = substream(1, STREAM_GRASSMANN, 0, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    again = substream(1, STREAM_GRASSMANN, 0, 0).standard_normal(4)
    assert np.array_equal(a, again)


def _rarely_rejecting(planes):
    """A batched oracle that rejects about 0.5% of planes by a rule on their bits.

    That is half the degenerate budget, so no 700-sample run below exhausts it.
    It reads the first and last entry of each plane, so it takes normals (m, n)
    and frames (m, k, n) alike, and a normal as the frame of its line.
    """
    flat = planes.reshape(len(planes), -1)
    code = (np.abs(flat[:, 0]) * 1e9).astype(np.int64)
    return flat[:, 0] ** 2 - flat[:, -1], code % 200 == 0


def _seldom_rejecting(planes):
    """``_rarely_rejecting`` rejecting about 1/300 of planes instead of 1/200.

    A run of 3000 planes then expects 10 rejections against a budget of 30,
    where 700 planes at 1/200 would expect 3.5 against 7.
    """
    flat = planes.reshape(len(planes), -1)
    code = (np.abs(flat[:, 0]) * 1e9).astype(np.int64)
    return flat[:, 0] ** 2 - flat[:, -1], code % 300 == 0


def _assert_same_estimate(a, b):
    assert np.array_equal(a.values, b.values)
    assert (a.n_rejected, a.mean, a.stderr) == (b.n_rejected, b.mean, b.stderr)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2])
def test_rekeyed_draws_match_one_generator_per_slot(n, k, seed, stream):
    """The slot draws on every shape, and the whole estimate of
    ``grassmann_mean_batch``, whose normals are the lines of k = 1."""
    ref = grassmann_mean_per_slot(n, k, _rarely_rejecting, 700, seed, stream)
    values, rejected = grassmann._slot_draws(n, k, _rarely_rejecting, 700, seed, stream)
    assert rejected.sum() > 0
    assert np.array_equal(values, ref.values) and rejected.sum() == ref.n_rejected
    if k == 1:
        est = grassmann_mean_batch(n, _rarely_rejecting, 700, seed, stream=stream, collect=True)
        _assert_same_estimate(est, ref)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_rank_deficient_redraws_match_one_generator_per_slot(monkeypatch, n, k):
    monkeypatch.setattr(grassmann, "RANK_DEFICIENCY_TOL", 0.4)
    first_blocks = np.stack([substream(42, STREAM_GRASSMANN, i, 2).standard_normal((k, n))
                             for i in range(700)])
    assert not grassmann._orthonormalize(first_blocks)[1].all()  # some slots redraw
    ref = grassmann_mean_per_slot(n, k, _rarely_rejecting, 700, 42, 2)
    values, rejected = grassmann._slot_draws(n, k, _rarely_rejecting, 700, 42, 2)
    assert np.array_equal(values, ref.values) and rejected.sum() == ref.n_rejected
    # the normals of R^n skip rank-deficient lines the same way
    _assert_same_estimate(
        grassmann_mean_batch(n, _rarely_rejecting, 700, 42, stream=2, collect=True),
        grassmann_mean_per_slot(n, 1, _rarely_rejecting, 700, 42, 2))


def test_values_do_not_depend_on_the_slot_chunk(monkeypatch):
    runs = []
    for chunk in (1, 7, 256):
        monkeypatch.setattr(grassmann, "SLOT_CHUNK", chunk)
        runs.append(grassmann_mean_batch(4, _rarely_rejecting, 700, 5, stream=2, collect=True))
    for est in runs[1:]:
        _assert_same_estimate(est, runs[0])


def _read_as(k):
    """An oracle over normals of R^3 that reads each one as a k-plane: its
    line for k = 1, the frame ``per_plane`` gives its hyperplane for k = 2."""
    if k == 1:
        return _seldom_rejecting
    return lambda normals: _seldom_rejecting(hyperplane_frames(normals))


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2])
def test_normals_match_one_plane_at_a_time(n, k, seed, stream):
    """Lines of R^2 and planes of R^3, whose normals are read as lines (k =
    1) or as hyperplane frames (k = 2), come from independent slots and
    match the one-plane-at-a-time loop."""
    est = grassmann_mean_batch(n, _read_as(k), 3000, seed, stream=stream, collect=True)
    assert est.n_rejected > 0
    ref = grassmann_mean_per_slot(n, 1, lambda lines: _read_as(k)(lines[:, 0]), 3000, seed, stream)
    _assert_same_estimate(est, ref)


def test_slot_frames_match_haar_sample_and_check_the_key(monkeypatch):
    monkeypatch.setattr(grassmann, "SLOT_CHUNK", 7)
    frames = list(slot_frames(4, 2, 7, 20))
    assert len(frames) == 20
    for i, frame in enumerate(frames):
        assert np.array_equal(frame, haar_sample(4, 2, substream(7, STREAM_GRASSMANN, i)).frame)
    with pytest.raises(ValueError):
        grassmann._stream_key(0, STREAM_GRASSMANN, 1 << 32)
    with pytest.raises(ValueError):
        grassmann._stream_key(0, STREAM_GRASSMANN, -1)


def test_seeds_outside_64_bits_are_rejected_not_wrapped():
    # a seed is one 64-bit key word; 2^64 must not alias 0, nor -1 alias 2^64 - 1
    assert grassmann._stream_key(2**64 - 1, STREAM_GRASSMANN)[0] == 2**64 - 1
    for seed in (-1, 2**64, 2**64 + 42):
        with pytest.raises(ValueError, match="seed"):
            grassmann._stream_key(seed, STREAM_GRASSMANN)
        with pytest.raises(ValueError, match="seed"):
            grassmann_mean_batch(3, _rarely_rejecting, 10, seed)
    with pytest.raises(ValueError):
        grassmann_mean_batch(3, _rarely_rejecting, 10, 0, stream=1 << 24)


# ------------------------------------------------------- sliced quadrature

SETS = Path(__file__).resolve().parent / "sets"
# the rule sums panels of one value exactly, but in floating point
ROUNDING_FLOOR = 1e-14


def _sliced(x):
    return sliced_mean(lambda normals: link_chi_batch(x, normals), hyperplane_breaks(x))


def _rotations(count):
    """Derandomized Haar rotations of R^3."""
    rng = np.random.Generator(np.random.Philox(key=np.array([23, 5], dtype=np.uint64)))
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        yield q * np.sign(np.diag(r))


@pytest.mark.parametrize("name", ["star3_s2", "circle_s2", "theta_s2", "tetra_s2"])
def test_sliced_mean_of_rotated_cones_is_the_crofton_value(graphs, name):
    """A hyperplane crosses a minor arc of length theta with probability
    theta / pi, so the mean link chi of a cone over a graph is sum theta / pi.
    Two great circles of vertices cross at a height of their own, so without
    the crossing cuts rotated cones are off far beyond their bounds."""
    graph = graphs[name]
    exact = graph.total_arc_length() / math.pi
    for rotation in _rotations(6):
        est = _sliced(ConicGraph(3, SphericalGraph(graph.vertices @ rotation.T, graph.edges)))
        error = abs(est.mean - exact)
        assert error <= est.bound + ROUNDING_FLOOR and error <= 1e-9, (est, exact)


def test_sliced_mean_of_an_elliptic_hyperboloid_is_its_periodic_integral():
    # x^2 + 4y^2 - z^2 = 1: a plane with normal (r cos p, r sin p, z) cuts 4
    # ends below the height z*(p) = sqrt(mu / (1 + mu)), mu = cos^2 p + sin^2 p / 4,
    # and none above, so the mean is 4 times the mean of z* over p, which
    # the periodic trapezoid rule gives to rounding
    p = np.arange(4096) * 2.0 * math.pi / 4096
    mu = np.cos(p) ** 2 + np.sin(p) ** 2 / 4.0
    exact = 4.0 * float(np.mean(np.sqrt(mu / (1.0 + mu))))
    assert exact == pytest.approx(2.3980100, abs=1e-7)
    # the same surface turned by rotations q: x^T q A q^T x = 1
    for rotation in [np.eye(3), *_rotations(3)]:
        a = rotation @ np.diag([1.0, 4.0, -1.0]) @ rotation.T
        terms = {(0, 0, 0): -1.0}
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            exps = tuple(int(i == m) + int(j == m) for m in range(3))
            terms[exps] = a[i, j] * (1.0 if i == j else 2.0)
        est = _sliced(SmoothSet(ambient_dim=3, dim=2, chart=None, declared_chi=0,
                                implicit=Poly(3, terms)))
        error = abs(est.mean - exact)
        assert error <= est.bound + ROUNDING_FLOOR and error <= 1e-9, (est, exact)


def test_sliced_mean_of_the_builtins(sets):
    for name, exact in (("star3_cone_r3", 1.0), ("plane_cone_r3", 2.0),
                        ("hyperboloid_r3", 2.0 * math.sqrt(2.0))):
        est = _sliced(sets[name])
        assert abs(est.mean - exact) <= est.bound + ROUNDING_FLOOR, (name, est)
        assert est.cells < 100


def test_sliced_mean_refuses_a_degenerate_cell(sets):
    star = sets["star3_cone_r3"]

    def one_flagged(normals):
        values, degenerate = link_chi_batch(star, normals)
        degenerate = degenerate.copy()
        degenerate[len(normals) // 2] = True
        return values, degenerate

    with pytest.raises(GenericityError, match="sliced cell"):
        sliced_mean(one_flagged, hyperplane_breaks(star))


def test_only_cones_and_indefinite_quadrics_of_r3_are_sliced(sets):
    assert hyperplane_breaks(lk.resolve_set(str(SETS / "quartic_hyperboloid_r3.json"))[1]) is None
    assert hyperplane_breaks(lk.resolve_set(str(SETS / "star4_cone_r4.json"))[1]) is None
    trough = SmoothSet(ambient_dim=3, dim=2, chart=None, declared_chi=1,
                       implicit=Poly(3, {(2, 0, 0): 1.0, (0, 0, 1): -1.0}))
    assert hyperplane_breaks(trough) is None
    assert hyperplane_breaks(sets["paraboloid_r3"]) is None  # adj(A) is semidefinite
    for name in ("star3_cone_r3", "plane_cone_r3", "hyperboloid_r3"):
        assert hyperplane_breaks(sets[name]) is not None
