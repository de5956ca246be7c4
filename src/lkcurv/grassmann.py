"""Haar-uniform random subspaces and Monte Carlo means over hyperplanes.

``grassmann_mean_batch`` averages a batched oracle over Haar-uniform
hyperplanes through the origin of R^n, with a standard error.  A hyperplane
is read through its unit normal u: Haar measure on G(n, n-1) is the image of
the uniform measure on S^(n-1) under u -> u^perp (Santalo, *Integral Geometry
and Geometric Probability*), so the oracle takes normals and no frame is
built.  The normals come from one of two estimators chosen from n:

* **Randomized lattice** in R^3: the fixed point set is a spherical Fibonacci
  set on the upper hemisphere of S^2 (``lattice_normals``), a fundamental
  domain of RP^2.  The samples split into ``LATTICE_REPLICATES`` replicates
  whose sizes differ by at most one; replicate r rotates the point set by one
  Haar rotation.  Haar measure is rotation invariant, so every plane is
  Haar-distributed and the mean is unbiased; the standard error is the spread
  of the replicate means (Cranley and Patterson, SIAM J. Numer. Anal. 13,
  1976).
* **Independent slots** in every other R^n: sample slot i draws its own Haar
  normal, a normalized Gaussian vector.

Planes of lower dimension are never drawn, nor hyperplanes of a set whose
hyperplane links agree almost everywhere: the report's means over them are
closed forms (``catalog.links.generic_link_chi``).

``haar_sample`` draws one plane from a generator; the lattice draws its
rotations with it.  ``grassmann_mean`` is the loop for a function of one
hyperplane, which ``per_plane`` hands a frame built by ``hyperplane_frames``;
no verify path calls it, and it stays because the benchmark's probe and
tracing look it up by name.  ``slot_frames`` gives the Haar k-frames of
``lkcurv grassmann sample``.

Determinism contract: every draw comes from a counter-based Philox stream
keyed by ``(seed, domain, index, stream)``, so an estimate is bit-identical
for a given ``(n, n_samples, seed, stream)``.

* Lattice replicate r draws its rotations from ``substream(seed,
  STREAM_LATTICE, r, stream)``: the first is ``haar_sample(3, 3, rng)``, and
  each plane the oracle rejects is offered again under the replicate's next
  rotation from the same generator.  The rotated normals of a replicate go to
  the oracle in one call per round.
* Slot i draws from ``substream(seed, STREAM_GRASSMANN, i, stream)``, no
  matter how the slots are batched, but no generator is built per slot: each
  ``SLOT_CHUNK`` of slots shares one Philox, and keying it to a slot assigns
  that slot's key, a zero counter and an empty buffer.  Block ``b`` of a slot
  is the ``(b+1)``-th ``standard_normal((k, n))`` call after keying (k = 1
  for a normal); the slot's frames are its full-rank blocks in order, a
  rank-deficient block being skipped exactly as ``haar_sample`` skips it, and
  a plane the oracle rejects is replaced by the slot's next frame.

A seed is a 64-bit word of the key: seeds outside [0, 2^64) are rejected, not
wrapped, so no two seeds share their streams.  Stream domain 1 is the slot
draws and domain 4 the lattice rotations.  Domain 2 belongs to the sampled
vertex-index check of the test suite, and domain 3 stays retired, so that no
new stream repeats the samples it once drew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DegenerateSample, GenericityError

ORTHONORMAL_TOL = 1e-10
# smallest allowed residual norm before normalization in Gram-Schmidt
RANK_DEFICIENCY_TOL = 1e-8
DEGENERATE_BUDGET = 0.01
MAX_RETRIES_PER_SLOT = 64
# sample slots that share one generator and one oracle call per round of redraws
SLOT_CHUNK = 256

# stream domains of the slot draws and of the lattice rotations (see the
# module docstring)
STREAM_GRASSMANN = 1
STREAM_LATTICE = 4
# rotations of the lattice's point set per estimate, chosen by a 200-seed sweep
# at 4000 samples (tools/seed_sweep.py): 8 cut the RMSE 5-6 times against
# independent slots with 1-2.5% of seeds beyond 3 sigma (t with 7 degrees of
# freedom: 2%); 4 put 6-8% there, and 16 gave a 20-30% larger RMSE
LATTICE_REPLICATES = 8
GOLDEN_ANGLE = np.pi * (3.0 - sqrt(5.0))


def _stream_key(seed: int, domain: int, index: int = 0, sub: int = 0) -> Tuple[int, int]:
    """The two 64-bit words of the Philox key of stream (seed, domain, index, sub)."""
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    if not 0 <= index < (1 << 32):
        raise ValueError("substream index out of range")
    if not 0 <= sub < (1 << 24):
        raise ValueError("substream sub-index out of range")
    if not 0 <= domain < (1 << 8):
        raise ValueError("substream domain out of range")
    return seed, (domain << 56) | (index << 24) | sub


def substream(seed: int, domain: int, index: int = 0, sub: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, domain, index, sub).

    Distinct keys give statistically independent streams, so per-sample and
    per-vertex draws can be evaluated in any order or in parallel.
    """
    key = np.array(_stream_key(seed, domain, index, sub), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional linear subspace of R^n held as an orthonormal frame.

    ``frame`` has shape (k, n) with orthonormal rows.  Everything downstream
    must be invariant under re-orthonormalization of the same subspace.
    """

    n: int
    k: int
    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", frame)
        if frame.shape != (self.k, self.n):
            raise ValueError(f"frame shape {frame.shape} != ({self.k}, {self.n})")
        if self.k > 0:
            gram = frame @ frame.T
            if np.max(np.abs(gram - np.eye(self.k))) > ORTHONORMAL_TOL:
                raise ValueError("frame rows are not orthonormal")


def _orthonormalize(blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on a stack of (k, n) blocks.

    Returns the frames and a mask of the blocks whose residual norms all stay
    above tolerance.  The dot products go through ``matmul`` of a row by a
    column, which uses the same dot kernel as ``np.dot``, so a block gets the
    same bits alone or in a stack (``einsum`` would not).
    """
    q = np.array(blocks, dtype=float)
    ok = np.ones(q.shape[0], dtype=bool)
    for i in range(q.shape[1]):
        for j in range(i):
            dots = np.matmul(q[:, i, None, :], q[:, j, :, None])[:, 0]
            q[:, i] -= dots * q[:, j]
        norms = np.sqrt(np.matmul(q[:, i, None, :], q[:, i, :, None])[:, 0])
        ok &= norms[:, 0] >= RANK_DEFICIENCY_TOL
        q[:, i] /= np.where(norms > 0.0, norms, 1.0)
    return q, ok


def _gram_schmidt(rows: np.ndarray) -> Optional[np.ndarray]:
    """Modified Gram-Schmidt; None when a residual norm falls below tolerance."""
    frames, ok = _orthonormalize(np.asarray(rows, dtype=float)[None])
    return frames[0] if ok[0] else None


# the lattice draws its rotations with this; the benchmark's tracing looks it
# up by name
def haar_sample(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Draw a rotation-invariant random k-plane in R^n.

    Orthonormalizes k independent standard-normal n-vectors; numerically
    rank-deficient draws (a probability-zero event) are redrawn.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    while True:
        frame = _gram_schmidt(rng.standard_normal((k, n)))
        if frame is not None:
            return Subspace(n=n, k=k, frame=frame)


class _SlotStreams:
    """Haar k-planes in R^n for some sample slots, drawn through one Philox.

    Keying the generator to slot ``i`` assigns it the state a fresh
    ``substream(seed, STREAM_GRASSMANN, i, sub)`` has, so it draws that
    stream's bits.  ``drawn[r]`` counts the blocks slot ``slots[r]`` has drawn;
    its next block is reached by replaying them after keying.
    """

    def __init__(self, n: int, k: int, seed: int, sub: int, slots):
        self.shape = (k, n)
        self.seed = seed
        self.sub = sub
        self.slots = [int(i) for i in slots]
        self.drawn = [0] * len(self.slots)
        self._rng = np.random.Generator(np.random.Philox(key=0))
        self._state = self._rng.bit_generator.state  # zero counter, empty buffer

    def _next_blocks(self, rows) -> np.ndarray:
        blocks = np.empty((len(rows),) + self.shape)
        for j, r in enumerate(rows):
            self._state["state"]["key"] = _stream_key(self.seed, STREAM_GRASSMANN,
                                                      self.slots[r], self.sub)
            self._rng.bit_generator.state = self._state
            for _ in range(self.drawn[r] + 1):
                self._rng.standard_normal(out=blocks[j])
            self.drawn[r] += 1
        return blocks

    def frames(self, rows: np.ndarray) -> np.ndarray:
        """The next Haar frame of slot ``slots[r]`` for each r in ``rows``, shape (len(rows), k, n).

        A rank-deficient block is skipped and the slot's next block taken, as
        :func:`haar_sample` does.
        """
        frames, ok = _orthonormalize(self._next_blocks(rows.tolist()))
        while not ok.all():
            bad = np.flatnonzero(~ok)
            frames[bad], ok[bad] = _orthonormalize(self._next_blocks(rows[bad].tolist()))
        return frames


def slot_frames(n: int, k: int, seed: int, n_samples: int) -> Iterator[np.ndarray]:
    """The first Haar frame of sample slots 0, 1, ..., n_samples - 1, in order.

    Frame i, of shape (k, n), equals ``haar_sample(n, k, substream(seed,
    STREAM_GRASSMANN, i)).frame``.  For k = 1 its row is the first normal
    :func:`grassmann_mean_batch` offers slot i outside R^3.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    for start in range(0, n_samples, SLOT_CHUNK):
        streams = _SlotStreams(n, k, seed, 0, range(start, min(start + SLOT_CHUNK, n_samples)))
        yield from streams.frames(np.arange(len(streams.slots)))


def lattice_normals(m: int) -> np.ndarray:
    """The lattice's fixed point set of m unit normals in R^3, shape (m, 3).

    A spherical Fibonacci set on the upper hemisphere, which is a fundamental
    domain of RP^2: equal-area steps in the height and golden-angle steps
    around the axis.
    """
    j = np.arange(m)
    z = (j + 0.5) / m
    r = np.sqrt(1.0 - z * z)
    phi = GOLDEN_ANGLE * j
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def hyperplane_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the hyperplanes u^perp for unit normals u, (m, n) -> (m, n-1, n).

    One Householder reflection each: I - 2 w w^T / |w|^2 with w = u + s e_n,
    s = +-1 the sign of u_n, swaps u and -s e_n, so its first n - 1 rows span
    u^perp; |w|^2 = 2 (1 + |u_n|) stays at least 2.
    """
    w = np.array(normals, dtype=float)
    n = w.shape[1]
    w[:, -1] += np.where(w[:, -1] < 0.0, -1.0, 1.0)
    scale = 2.0 / np.sum(w * w, axis=1)
    return np.eye(n)[:-1] - scale[:, None, None] * w[:, :-1, None] * w[:, None, :]


@dataclass(eq=False)
class MonteCarloEstimate:
    """Sample mean with its standard error and full sampling provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_rejected: int = 0
    values: Optional[np.ndarray] = field(default=None, repr=False)
    # lattice replicates behind ``stderr``; None for independent slots
    replicates: Optional[int] = None


BatchOracle = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def per_plane(f: Callable[[Subspace], float]) -> BatchOracle:
    """Batched oracle over unit normals that calls ``f`` on one hyperplane at a time.

    Each hyperplane reaches ``f`` as a :class:`Subspace` with the frame
    :func:`hyperplane_frames` builds; a plane where ``f`` raises
    :class:`DegenerateSample` is marked degenerate.
    """

    def oracle(normals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        frames = hyperplane_frames(normals)
        m, k, n = frames.shape
        values = np.zeros(m)
        degenerate = np.zeros(m, dtype=bool)
        for i in range(m):
            try:
                values[i] = float(f(Subspace(n=n, k=k, frame=frames[i])))
            except DegenerateSample:
                degenerate[i] = True
        return values, degenerate

    return oracle


def _fill(oracle: BatchOracle, draw: Callable[[np.ndarray], np.ndarray], values: np.ndarray,
          rejected: np.ndarray, where: Callable[[int], str]) -> None:
    """Fill ``values`` with the oracle's value at each plane, counting rejections.

    ``draw(pending)`` gives the next planes (normals or frames) at the indices
    ``pending``; every round offers the rejected planes again, in one oracle
    call, until none is left or a plane has had ``MAX_RETRIES_PER_SLOT`` tries.
    """
    pending = np.arange(values.size)
    for _ in range(MAX_RETRIES_PER_SLOT):
        vals, bad = oracle(draw(pending))
        bad = np.asarray(bad, dtype=bool)
        values[pending[~bad]] = np.asarray(vals, dtype=float)[~bad]
        rejected[pending[bad]] += 1
        pending = pending[bad]
        if not pending.size:
            return
    raise GenericityError(
        f"{where(int(pending[0]))} exhausted {MAX_RETRIES_PER_SLOT} redraws; "
        "the set appears to violate genericity assumptions"
    )


def replicate_sizes(n_samples: int) -> List[int]:
    """Sizes of the lattice's replicates: at most ``LATTICE_REPLICATES`` of
    them, differing by at most one and summing to ``n_samples``."""
    reps = min(LATTICE_REPLICATES, n_samples)
    return [n_samples // reps + (r < n_samples % reps) for r in range(reps)]


def _lattice_draws(oracle: BatchOracle, n_samples: int, seed: int,
                   stream: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and rejection counts of the randomized lattice's planes of R^3,
    in replicate order, and the replicates' bounds in that order."""
    values = np.empty(n_samples, dtype=float)
    rejected = np.zeros(n_samples, dtype=np.int64)
    sizes = replicate_sizes(n_samples)
    points = {m: lattice_normals(m) for m in set(sizes)}
    bounds = np.cumsum([0] + sizes)
    for r, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        rng = substream(seed, STREAM_LATTICE, r, stream)
        base = points[stop - start]
        _fill(oracle, lambda pending: base[pending] @ haar_sample(3, 3, rng).frame,
              values[start:stop], rejected[start:stop],
              lambda i: f"point {i} of lattice replicate {r}")
    return values, rejected, bounds


def _slot_draws(n: int, k: int, oracle: BatchOracle, n_samples: int, seed: int,
                stream: int) -> Tuple[np.ndarray, np.ndarray]:
    """Values and rejection counts of sample slots 0, 1, ..., n_samples - 1,
    each offering the oracle its Haar k-frames of shape (k, n)."""
    values = np.empty(n_samples, dtype=float)
    rejected = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, n_samples, SLOT_CHUNK):
        stop = min(start + SLOT_CHUNK, n_samples)
        streams = _SlotStreams(n, k, seed, stream, range(start, stop))
        _fill(oracle, streams.frames, values[start:stop], rejected[start:stop],
              lambda i: f"sample slot {start + i}")
    return values, rejected


def grassmann_mean_batch(
    n: int,
    oracle: BatchOracle,
    n_samples: int,
    seed: int,
    stream: int = 0,
    collect: bool = False,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the Haar mean of a batched oracle over hyperplanes of R^n.

    ``oracle(normals)`` takes unit normals of shape (m, n) and returns
    ``(values, degenerate)``, two arrays of length m.  In R^3 the normals are
    the rotated lattice of the module docstring, and the standard error is
    that of the replicate means; elsewhere they are independent slots,
    ``SLOT_CHUNK`` at a time, and the standard error is that of the values.
    Degenerate planes (a measure-zero set) are rejected and redrawn from the
    same stream.  If more than ``DEGENERATE_BUDGET`` of all draws are
    rejected the run aborts with :class:`GenericityError`, since that level
    of degeneracy indicates the input violates the genericity assumptions.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    replicates = None
    if n == 3:
        values, rejected, bounds = _lattice_draws(oracle, n_samples, seed, stream)
        spread = np.array([values[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
        replicates = spread.size
    else:
        values, rejected = _slot_draws(n, 1, lambda frames: oracle(frames[:, 0]),
                                       n_samples, seed, stream)
        spread = values

    n_rejected = int(rejected.sum())
    total_draws = n_samples + n_rejected
    if n_rejected > DEGENERATE_BUDGET * total_draws:
        raise GenericityError(
            f"{n_rejected} of {total_draws} draws were degenerate "
            f"(> {DEGENERATE_BUDGET:.0%} budget)"
        )

    stderr = float(np.std(spread, ddof=1) / sqrt(spread.size)) if spread.size > 1 else 0.0
    return MonteCarloEstimate(
        mean=float(np.mean(values)),
        stderr=stderr,
        n_samples=n_samples,
        seed=seed,
        n_rejected=n_rejected,
        values=values if collect else None,
        replicates=replicates,
    )


# the benchmark's probe calls this with ``workers=`` and ``collect=``, and its
# tracing wraps it by name
def grassmann_mean(
    n: int,
    k: int,
    f: Callable[[Subspace], float],
    n_samples: int,
    seed: int,
    workers: int = 1,
    stream: int = 0,
    collect: bool = False,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the Haar mean of ``f`` over hyperplanes of R^n.

    ``k`` must be n - 1.  ``f`` may raise :class:`DegenerateSample` on a
    measure-zero set of planes; those draws are rejected and redrawn as in
    :func:`grassmann_mean_batch`, which this calls with ``per_plane(f)``.
    ``workers`` is accepted for compatibility and has no effect: the samples
    run in one thread, since a thread pool only slowed this GIL-bound loop
    down.
    """
    if k != n - 1:
        raise ValueError(f"planes are hyperplanes: need k = n - 1, got k={k}, n={n}")
    return grassmann_mean_batch(n, per_plane(f), n_samples, seed, stream=stream,
                                collect=collect)
