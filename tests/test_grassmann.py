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
    haar_sample,
    shift_subspace,
    substream,
)
from lkcurv import grassmann
from lkcurv.grassmann import STREAM_GRASSMANN, slot_frames
from per_slot_streams import grassmann_mean_per_slot


def test_frames_are_orthonormal():
    rng = substream(5, STREAM_GRASSMANN, 0)
    for n, k in [(2, 1), (3, 2), (5, 3), (4, 4)]:
        sub = haar_sample(n, k, rng)
        gram = sub.frame @ sub.frame.T
        assert np.max(np.abs(gram - np.eye(k))) < 1e-10


def test_full_space_sample_spans_everything():
    rng = substream(9, STREAM_GRASSMANN, 0)
    sub = haar_sample(3, 3, rng)
    # any vector is reproduced by projecting onto the frame
    x = np.array([0.3, -1.2, 2.0])
    assert np.linalg.norm(sub.project(x) - x) < 1e-10


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
    n_samples = 10000
    normals = np.empty((n_samples, 3))
    for i in range(n_samples):
        sub = haar_sample(3, 2, substream(77, STREAM_GRASSMANN, i))
        normals[i] = np.cross(sub.frame[0], sub.frame[1])
    resultant = np.linalg.norm(normals.mean(axis=0))
    assert resultant < 3.0 / math.sqrt(n_samples) * 1.3


def test_constant_integrand():
    est = grassmann_mean(3, 2, lambda h: 2.5, 500, seed=3)
    assert est.mean == 2.5
    assert est.stderr == 0.0


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
    batched = grassmann_mean_batch(3, 2, lambda frames: link_chi_batch(hyp, frames), 600,
                                   seed=42, collect=True)
    assert np.array_equal(scalar.values, batched.values)
    assert (scalar.mean, scalar.stderr, scalar.n_rejected) == (
        batched.mean, batched.stderr, batched.n_rejected)


def test_batched_frames_match_haar_sample():
    from lkcurv.grassmann import grassmann_mean_batch

    seen = []

    def record(frames):
        seen.append(frames.copy())
        return np.zeros(len(frames)), np.zeros(len(frames), dtype=bool)

    grassmann_mean_batch(4, 2, record, 300, seed=5, stream=2)
    frames = np.concatenate(seen)
    for i in range(300):
        sub = haar_sample(4, 2, substream(5, STREAM_GRASSMANN, i, 2))
        assert np.array_equal(frames[i], sub.frame)


def test_rotation_invariance(sets):
    cone = sets["plane_cone_r3"]
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 4], dtype=np.uint64)))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = grassmann_mean_batch(3, 2, lambda frames: lk.link_chi_batch(cone, frames),
                             10000, seed=8)
    b = grassmann_mean_batch(3, 2, lambda frames: lk.link_chi_batch(cone, frames @ q.T),
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


def test_shift_subspace_membership():
    sub = Subspace(2, 1, np.array([[1.0, 0.0]]))
    flat = shift_subspace(sub, [0.0, 1.0])
    assert flat.contains([3.7, 1.0])
    assert not flat.contains([0.0, 0.0])
    zero_shift = shift_subspace(sub, [0.0, 0.0])
    assert zero_shift.contains([2.0, 0.0])
    rng = substream(3, STREAM_GRASSMANN, 5)
    sub3 = haar_sample(3, 2, rng)
    x0 = np.array([0.5, -1.0, 2.0])
    flat3 = shift_subspace(sub3, x0)
    for coeff in ([1.0, 0.0], [0.3, -2.2]):
        v = coeff[0] * sub3.frame[0] + coeff[1] * sub3.frame[1]
        assert flat3.contains(x0 + v)


def test_substream_keys_are_disjoint():
    a = substream(1, STREAM_GRASSMANN, 0, 0).standard_normal(4)
    b = substream(1, STREAM_GRASSMANN, 1, 0).standard_normal(4)
    c = substream(1, STREAM_GRASSMANN, 0, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    again = substream(1, STREAM_GRASSMANN, 0, 0).standard_normal(4)
    assert np.array_equal(a, again)


def _rarely_rejecting(frames):
    """A batched oracle that rejects about 0.5% of frames by a rule on their bits.

    That is half the degenerate budget, so no 700-sample run below exhausts it.
    """
    code = (np.abs(frames[:, 0, 0]) * 1e9).astype(np.int64)
    return frames[:, 0, 0] ** 2 - frames[:, -1, -1], code % 200 == 0


def _assert_same_estimate(a, b):
    assert np.array_equal(a.values, b.values)
    assert (a.n_rejected, a.mean, a.stderr) == (b.n_rejected, b.mean, b.stderr)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 2])
def test_rekeyed_draws_match_one_generator_per_slot(n, k, seed, stream):
    est = grassmann_mean_batch(n, k, _rarely_rejecting, 700, seed, stream=stream, collect=True)
    assert est.n_rejected > 0
    _assert_same_estimate(est, grassmann_mean_per_slot(n, k, _rarely_rejecting, 700, seed, stream))


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2)])
def test_rank_deficient_redraws_match_one_generator_per_slot(monkeypatch, n, k):
    monkeypatch.setattr(grassmann, "RANK_DEFICIENCY_TOL", 0.4)
    first_blocks = np.stack([substream(42, STREAM_GRASSMANN, i, 2).standard_normal((k, n))
                             for i in range(700)])
    assert not grassmann._orthonormalize(first_blocks)[1].all()  # some slots redraw
    est = grassmann_mean_batch(n, k, _rarely_rejecting, 700, 42, stream=2, collect=True)
    _assert_same_estimate(est, grassmann_mean_per_slot(n, k, _rarely_rejecting, 700, 42, 2))


def test_values_do_not_depend_on_the_slot_chunk(monkeypatch):
    runs = []
    for chunk in (1, 7, 256):
        monkeypatch.setattr(grassmann, "SLOT_CHUNK", chunk)
        runs.append(grassmann_mean_batch(3, 2, _rarely_rejecting, 700, 5, stream=2, collect=True))
    for est in runs[1:]:
        _assert_same_estimate(est, runs[0])


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
    with pytest.raises(ValueError):
        grassmann_mean_batch(3, 2, _rarely_rejecting, 10, 0, stream=1 << 24)
