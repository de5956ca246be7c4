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
    DEGENERATE_BUDGET, MAX_RETRIES_PER_SLOT, STREAM_GRASSMANN, haar_sample, hyperplane_frames,
    SlicedMean, sliced_mean, slot_frames, substream,
)
from per_plane_links import project
from sliced_reference import reference_panel_edges, reference_sliced_mean


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

    # the normal of slot i is the i-th line haar_sample draws from the one stream
    grassmann_mean_batch(4, record, 300, seed=5, stream=2)
    normals = np.concatenate(seen)
    rng = substream(5, STREAM_GRASSMANN, 0, 2)
    for i in range(300):
        assert np.array_equal(normals[i], haar_sample(4, 1, rng).frame[0])


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


def one_stream_draws(n, oracle, n_samples, seed, stream=0):
    """Reference loop for the slot draws of ``grassmann_mean_batch``: the
    values of the slots and the number of rejected draws.

    One generator, ``haar_sample`` one normal at a time: slot i takes the
    i-th, then each rejected slot takes the next, in slot order, round by
    round.  The oracle sees one normal a call.
    """
    rng = substream(seed, STREAM_GRASSMANN, 0, stream)
    values = np.empty(n_samples)
    pending, n_rejected = list(range(n_samples)), 0
    for _ in range(MAX_RETRIES_PER_SLOT):
        redraw = []
        for slot in pending:
            (value,), (bad,) = oracle(haar_sample(n, 1, rng).frame)
            if bad:
                redraw.append(slot)
            else:
                values[slot] = value
        pending = redraw
        n_rejected += len(pending)
        if not pending:
            return values, n_rejected
    raise GenericityError(f"sample slot {pending[0]} exhausted its redraws")


def _assert_matches_one_stream(n, oracle, n_samples, seed, stream):
    """The slot draws equal the reference loop's, and so does the estimate
    built from them, or both exceed the degenerate budget."""
    values, n_rejected = one_stream_draws(n, oracle, n_samples, seed, stream)
    assert n_rejected > 0
    drawn, rejected = grassmann._slot_draws(n, oracle, n_samples, seed, stream)
    assert np.array_equal(drawn, values) and rejected.sum() == n_rejected
    draws = n_samples + n_rejected
    if n_rejected > DEGENERATE_BUDGET * draws:
        with pytest.raises(GenericityError, match=f"{n_rejected} of {draws} draws"):
            grassmann_mean_batch(n, oracle, n_samples, seed, stream=stream)
        return
    est = grassmann_mean_batch(n, oracle, n_samples, seed, stream=stream, collect=True)
    assert np.array_equal(est.values, values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    assert (est.n_rejected, est.mean, est.stderr) == (n_rejected, float(np.mean(values)), stderr)


def _rarely_rejecting(planes):
    """A batched oracle that rejects about 0.5% of planes by a rule on their bits.

    That is half the degenerate budget, so a 700-sample run seldom exceeds it;
    one of the grid below does (8 of 708 draws), and must raise.
    It reads the first and last entry of each plane, so it takes normals (m, n)
    and frames (m, k, n) alike.
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


def _assert_sequential_frames(n, k, seed, stream, count):
    """``count`` batched Haar k-frames of a stream are as many ``haar_sample``
    calls on it, and leave the stream where those calls leave it."""
    batched, sequential = (substream(seed, STREAM_GRASSMANN, 0, stream) for _ in range(2))
    frames = grassmann._haar_frames(n, k, batched, count)
    assert np.array_equal(frames, np.stack([haar_sample(n, k, sequential).frame
                                            for _ in range(count)]))
    assert batched.standard_normal() == sequential.standard_normal()


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2])
def test_draws_match_sequential_haar_samples(n, k, seed, stream):
    """Batched k-frames on every shape, and for k = 1 the whole estimate of
    ``grassmann_mean_batch``, redraws included."""
    _assert_sequential_frames(n, k, seed, stream, 700)
    if k == 1:
        _assert_matches_one_stream(n, _rarely_rejecting, 700, seed, stream)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_rank_deficient_redraws_match_sequential_haar_samples(monkeypatch, n, k):
    monkeypatch.setattr(grassmann, "RANK_DEFICIENCY_TOL", 0.4)
    first_blocks = substream(42, STREAM_GRASSMANN, 0, 2).standard_normal((700, k, n))
    assert not grassmann._orthonormalize(first_blocks)[1].all()  # some blocks are skipped
    _assert_sequential_frames(n, k, 42, 2, 700)
    # the normals of R^n skip rank-deficient lines the same way
    _assert_matches_one_stream(n, _rarely_rejecting, 700, 42, 2)


def test_values_do_not_depend_on_the_slot_chunk(monkeypatch):
    for chunk in (1, 7, 256):
        monkeypatch.setattr(grassmann, "SLOT_CHUNK", chunk)
        _assert_matches_one_stream(4, _rarely_rejecting, 700, 5, 2)


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
    1) or as hyperplane frames (k = 2), match the one-plane-at-a-time loop."""
    _assert_matches_one_stream(n, _read_as(k), 3000, seed, stream)


def test_slot_frames_match_haar_sample_and_check_the_key(monkeypatch):
    monkeypatch.setattr(grassmann, "SLOT_CHUNK", 7)
    frames = list(slot_frames(4, 2, 7, 20))
    assert len(frames) == 20
    rng = substream(7, STREAM_GRASSMANN)
    for frame in frames:
        assert np.array_equal(frame, haar_sample(4, 2, rng).frame)
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


def _turned_hyperboloid(rotation):
    """The elliptic hyperboloid x^2 + 4y^2 - z^2 = 1 turned by a rotation q:
    x^T q A q^T x = 1."""
    a = rotation @ np.diag([1.0, 4.0, -1.0]) @ rotation.T
    terms = {(0, 0, 0): -1.0}
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        exps = tuple(int(i == m) + int(j == m) for m in range(3))
        terms[exps] = a[i, j] * (1.0 if i == j else 2.0)
    return SmoothSet(chart=None, declared_chi=0, implicit=Poly(3, terms))


def _turned_cone(graph, rotation):
    return ConicGraph(SphericalGraph(graph.vertices @ rotation.T, graph.edges))


@pytest.mark.parametrize("name", ["star3_s2", "circle_s2", "theta_s2", "tetra_s2"])
def test_sliced_mean_of_rotated_cones_is_the_crofton_value(graphs, name):
    """A hyperplane crosses a minor arc of length theta with probability
    theta / pi, so the mean link chi of a cone over a graph is sum theta / pi.
    Two great circles of vertices cross at a height of their own, so without
    the crossing cuts rotated cones are off far beyond their bounds."""
    graph = graphs[name]
    exact = graph.total_arc_length() / math.pi
    for rotation in _rotations(6):
        est = _sliced(_turned_cone(graph, rotation))
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
    for rotation in [np.eye(3), *_rotations(3)]:
        est = _sliced(_turned_hyperboloid(rotation))
        error = abs(est.mean - exact)
        assert error <= est.bound + ROUNDING_FLOOR and error <= 1e-9, (est, exact)


def test_sliced_mean_of_the_builtins(sets):
    for name, exact in (("star3_cone_r3", 1.0), ("plane_cone_r3", 2.0),
                        ("hyperboloid_r3", 2.0 * math.sqrt(2.0))):
        est = _sliced(sets[name])
        assert abs(est.mean - exact) <= est.bound + ROUNDING_FLOOR, (name, est)
        assert est.cells < 100


def test_panels_of_one_value_take_no_nodes(sets, monkeypatch):
    # every cell of plane_cone's one panel has count 2, and each of the
    # hyperboloid's three panels has one cell: no panel varies, so no node
    # rule is built and the breaks are read once, at the slices' middles
    from lkcurv.catalog.links import HyperplaneBreaks

    def unbuilt(*args):
        raise AssertionError("a node rule was built")

    read = []
    longitudes = HyperplaneBreaks.longitudes

    def counted(self, z):
        read.append(z.size)
        return longitudes(self, z)

    monkeypatch.setattr(HyperplaneBreaks, "longitudes", counted)
    with monkeypatch.context() as patched:
        patched.setattr(grassmann, "_panel_rule", unbuilt)
        assert _sliced(sets["plane_cone_r3"]) == SlicedMean(2.0, 0.0, 1, 4)
        assert _sliced(sets["hyperboloid_r3"]) == SlicedMean(2.8284271247461903, 0.0, 3, 2)
    assert len(read) == 2
    # the star's varying panels read the nodes of both rules in one call
    read.clear()
    assert _sliced(sets["star3_cone_r3"]) == SlicedMean(
        0.9999999999999999, 4.5737078048502244e-09, 4, 13)
    assert len(read) == 2


def _random_cones(count):
    """Derandomized cones over 2 to 7 random vertices on a path; every fourth
    also has a vertex at the pole and the antipode of its first vertex."""
    rng = np.random.Generator(np.random.Philox(key=np.array([29, 3], dtype=np.uint64)))
    for trial in range(count):
        v = rng.standard_normal((rng.integers(2, 8), 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        if trial % 4 == 0:
            v = np.concatenate([v, [[0.0, 0.0, 1.0]], -v[:1]])
        # no arc joins the antipodal pair, the last two vertices
        path = [(i, i + 1) for i in range(len(v) - 1 - (trial % 4 == 0))]
        yield ConicGraph(SphericalGraph(v, path))


def _sliced_outcome(mean, x):
    """A sliced mean of the link chi of x, or the message of its GenericityError."""
    try:
        return mean(lambda normals: link_chi_batch(x, normals), hyperplane_breaks(x))
    except GenericityError as exc:
        return str(exc)


def test_sliced_mean_matches_the_numpy_reference_to_the_bit(sets, graphs):
    cases = [sets[name] for name in ("star3_cone_r3", "plane_cone_r3", "hyperboloid_r3")]
    cases += [_turned_cone(graphs[name], rotation)
              for name in ("star3_s2", "circle_s2", "theta_s2", "tetra_s2")
              for rotation in _rotations(6)]
    cases += [_turned_hyperboloid(rotation) for rotation in [np.eye(3), *_rotations(3)]]
    cones = list(_random_cones(120))
    outcomes = []
    for x in cases + cones:
        outcome = _sliced_outcome(sliced_mean, x)
        assert outcome == _sliced_outcome(reference_sliced_mean, x), x
        outcomes.append(outcome)
    means = [est for est in outcomes if isinstance(est, SlicedMean)]
    # two random cones have two cuts within 1e-7, and both rules refuse the
    # thin slice between them; every other case has a mean
    assert len(means) == len(outcomes) - 2
    # the cases reach panels of one value, varying ones, and more panels than
    # np.sum adds in one plain loop
    assert min(est.panels for est in means) == 1 and max(est.panels for est in means) > 8


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
    trough = SmoothSet(chart=None, declared_chi=1,
                       implicit=Poly(3, {(2, 0, 0): 1.0, (0, 0, 1): -1.0}))
    assert hyperplane_breaks(trough) is None
    assert hyperplane_breaks(sets["paraboloid_r3"]) is None  # adj(A) is semidefinite
    for name in ("star3_cone_r3", "plane_cone_r3", "hyperboloid_r3"):
        assert hyperplane_breaks(sets[name]) is not None


def _graded_by_slice_end(edges):
    """Reference for the panel ends: each slice end on its own, stepping
    into the slice from its neighbor's width by doubling."""
    widths = np.diff(edges)
    graded = [edges]
    for i, width in enumerate(widths):
        for end, sign, step in ((edges[i], 1.0, widths[i - 1] if i else width),
                                (edges[i + 1], -1.0, widths[i + 1] if i + 1 < widths.size else width)):
            steps = step * 2.0 ** np.arange(max(0, int(np.ceil(np.log2(0.5 * width / step)))))
            graded.append(end + sign * steps)
    return np.unique(np.concatenate(graded))


def test_panel_ends_match_the_reference_to_the_bit():
    rng = np.random.Generator(np.random.Philox(key=np.array([29, 1], dtype=np.uint64)))
    for trial in range(300):
        cuts = rng.random(rng.integers(0, 8))
        if trial % 2:  # cuts closer than their neighbors' widths, down to 1e-11
            cuts = np.concatenate([cuts, cuts[:2] + 10.0 ** -rng.integers(3, 12, cuts[:2].size)])
        if trial % 5 == 0:  # ends, a merged cut, and widths in ratios of powers of 2
            cuts = np.concatenate([cuts, [0.0, 1.0, 1e-13, 0.25, 0.5, 0.625]])
        edges, panels = grassmann._panel_edges(cuts)
        assert np.array_equal(panels, _graded_by_slice_end(edges)), cuts
        reference = reference_panel_edges(cuts)
        assert np.array_equal(edges, reference[0]) and np.array_equal(panels, reference[1]), cuts


def _cone_cuts_by_cross_products(vertices):
    """Reference for the cuts of a cone: the heights of the vertices' circles,
    then of every pair's crossing from one vectorized cross product."""
    from lkcurv.catalog.links import BREAK_TOL

    kept = []
    for v in vertices:
        if all(abs(float(v @ w)) < 1.0 - BREAK_TOL for w in kept):
            kept.append(v)
    v = np.array(kept)
    rho = np.hypot(v[:, 0], v[:, 1])
    v, rho = v[rho > BREAK_TOL], rho[rho > BREAK_TOL]
    i, j = np.triu_indices(len(v), 1)
    w = np.cross(v[i], v[j])
    return np.concatenate([rho / np.linalg.norm(v, axis=1),
                           np.abs(w[:, 2]) / np.linalg.norm(w, axis=1)])


def test_cone_cuts_match_the_reference_to_the_bit(graphs):
    from lkcurv.catalog.links import _cone_breaks

    rng = np.random.Generator(np.random.Philox(key=np.array([29, 2], dtype=np.uint64)))
    for trial in range(200):
        v = rng.standard_normal((rng.integers(1, 8), 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        if trial % 4 == 0:  # a vertex at the pole, and one antipodal pair
            v = np.concatenate([v, [[0.0, 0.0, 1.0]], -v[:1]])
        assert np.array_equal(_cone_breaks(v).cuts, _cone_cuts_by_cross_products(v)), v
    for name in ("star3_s2", "circle_s2", "theta_s2", "tetra_s2"):
        v = graphs[name].vertices
        assert np.array_equal(_cone_breaks(v).cuts, _cone_cuts_by_cross_products(v)), name
