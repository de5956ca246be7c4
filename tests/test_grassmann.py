import math

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
from lkcurv.grassmann import (
    LATTICE_REPLICATES, STREAM_GRASSMANN, STREAM_LATTICE, haar_sample, hyperplane_frames,
    lattice_normals, slot_frames, substream,
)
from per_plane_links import project
from per_slot_streams import grassmann_mean_lattice, grassmann_mean_per_slot


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

    A lattice run of 3000 planes then expects 10 rejections against a budget of
    30, where 700 planes at 1/200 would expect 3.5 against 7.
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
    """The slot draws on every shape, and the whole estimate where
    ``grassmann_mean_batch`` samples normals, the lines of k = 1, by slots."""
    ref = grassmann_mean_per_slot(n, k, _rarely_rejecting, 700, seed, stream)
    values, rejected = grassmann._slot_draws(n, k, _rarely_rejecting, 700, seed, stream)
    assert rejected.sum() > 0
    assert np.array_equal(values, ref.values) and rejected.sum() == ref.n_rejected
    if k == 1 and n != 3:
        est = grassmann_mean_batch(n, _rarely_rejecting, 700, seed, stream=stream, collect=True)
        assert est.replicates is None
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
    if n != 3:
        # the normals of R^n skip rank-deficient lines the same way
        _assert_same_estimate(
            grassmann_mean_batch(n, _rarely_rejecting, 700, 42, stream=2, collect=True),
            grassmann_mean_per_slot(n, 1, _rarely_rejecting, 700, 42, 2))
        return
    # the lattice's rotations skip rank-deficient blocks the same way
    first_rotations = np.stack([substream(42, STREAM_LATTICE, r, 2).standard_normal((n, n))
                                for r in range(LATTICE_REPLICATES)])
    assert not grassmann._orthonormalize(first_rotations)[1].all()
    _assert_same_estimate(
        grassmann_mean_batch(n, _seldom_rejecting, 3000, 42, stream=2, collect=True),
        grassmann_mean_lattice(_seldom_rejecting, 3000, 42, 2))


def test_values_do_not_depend_on_the_slot_chunk(monkeypatch):
    runs = []
    for chunk in (1, 7, 256):
        monkeypatch.setattr(grassmann, "SLOT_CHUNK", chunk)
        runs.append(grassmann_mean_batch(4, _rarely_rejecting, 700, 5, stream=2, collect=True))
    assert runs[0].replicates is None
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
def test_lattice_matches_one_plane_at_a_time(n, k, seed, stream):
    """R^3 planes come from the lattice; the lines of R^2 have no lattice and
    come from independent slots, each matching its one-plane-at-a-time loop."""
    est = grassmann_mean_batch(n, _read_as(k), 3000, seed, stream=stream, collect=True)
    assert est.n_rejected > 0
    if n == 2:
        assert est.replicates is None
        _assert_same_estimate(est, grassmann_mean_per_slot(n, k, _read_as(k), 3000, seed, stream))
        return
    assert est.replicates == LATTICE_REPLICATES
    ref = grassmann_mean_lattice(_read_as(k), 3000, seed, stream)
    _assert_same_estimate(est, ref)
    assert est.replicates == ref.replicates


@pytest.mark.parametrize("n_samples,replicates",
                         [(1003, LATTICE_REPLICATES), (13, LATTICE_REPLICATES), (5, 5), (1, 1)])
def test_lattice_sizes_that_do_not_divide(n_samples, replicates):
    assert n_samples % LATTICE_REPLICATES
    sizes = grassmann.replicate_sizes(n_samples)
    assert len(sizes) == replicates and sum(sizes) == n_samples and max(sizes) - min(sizes) <= 1

    def accepting(normals):  # one rejection in 13 planes would exceed the budget
        return normals[:, 0] ** 2 - normals[:, -1], np.zeros(len(normals), dtype=bool)

    est = grassmann_mean_batch(3, accepting, n_samples, 42, collect=True)
    assert est.replicates == replicates
    _assert_same_estimate(est, grassmann_mean_lattice(accepting, n_samples, 42))
    if n_samples == 1:
        assert est.stderr == 0.0
    else:
        assert est.stderr > 0.0


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2)])
def test_lattice_frames_are_a_spread_point_set(n, k):
    """The lattice's normals read as lines (k = 1) or as hyperplane frames (k = 2)."""
    normals = lattice_normals(400)
    frames = normals[:, None, :] if k == 1 else hyperplane_frames(normals)
    assert frames.shape == (400, k, n)
    gram = frames @ frames.transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-12
    # read each plane through its line direction or hyperplane normal
    u = frames[:, 0] if k == 1 else np.cross(frames[:, 0], frames[:, 1])
    assert np.allclose(np.abs(np.sum(u * normals, axis=1)), 1.0)
    # equal-area heights on the upper hemisphere and golden-angle turns
    assert np.allclose(np.sort(np.abs(u[:, 2])), (np.arange(400) + 0.5) / 400)
    # the second moment of a Haar line direction is I/3 (to O(1/m^2) here)
    assert np.max(np.abs(u.T @ u / 400 - np.eye(3) / 3.0)) < 1e-3


def test_lattice_beats_independent_slots_with_calibrated_errors(sets):
    """40 seeds of the star3 cone's 2-plane mean (exactly 1) at 400 planes.

    Over 400 seeds the lattice's RMSE is 2.5 times smaller; seeds 0-39 are the
    least favourable block of 40 there, at 1.9 times.
    """
    star = sets["star3_cone_r3"]

    def oracle(normals):
        return lk.link_chi_batch(star, normals)

    lattice, slots, beyond = [], [], 0
    for seed in range(42, 82):
        est = grassmann_mean_batch(3, oracle, 400, seed)
        lattice.append(est.mean - 1.0)
        beyond += abs(est.mean - 1.0) > 3.0 * est.stderr
        values, _ = grassmann._slot_draws(3, 1, lambda lines: oracle(lines[:, 0]), 400, seed, 0)
        slots.append(values.mean() - 1.0)
    rmse = lambda errors: math.sqrt(np.mean(np.square(errors)))
    assert rmse(lattice) <= 0.5 * rmse(slots)
    assert beyond <= 3


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
