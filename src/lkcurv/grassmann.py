"""Haar-uniform random subspaces and Monte Carlo means over them.

``haar_sample`` draws a uniformly distributed k-plane through the origin of
R^n by Gram-Schmidt orthonormalization of independent Gaussian vectors.
``grassmann_mean_batch`` averages a batched oracle over such planes with a
standard error; ``grassmann_mean`` is the same loop for a function of one
plane.

Determinism contract: sample ``i`` of a run is generated from a counter-based
Philox stream keyed by ``(seed, i)``, so the estimate is bit-identical for a
given ``(n, k, n_samples, seed)`` no matter how the samples are batched.
The stream of slot ``i`` is the one ``substream(seed, STREAM_GRASSMANN, i,
stream)`` starts, but no generator is built per slot: each ``SLOT_CHUNK`` of
slots shares one Philox, and keying it to a slot assigns that slot's key, a
zero counter and an empty buffer.  Block ``b`` of a slot is the ``(b+1)``-th
``standard_normal((k, n))`` call after keying; the slot's frames are its
full-rank blocks in order, a rank-deficient block being skipped exactly as
``haar_sample`` skips it, and a plane the oracle rejects is replaced by the
slot's next frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import DegenerateSample, GenericityError

ORTHONORMAL_TOL = 1e-10
# smallest allowed residual norm before normalization in Gram-Schmidt
RANK_DEFICIENCY_TOL = 1e-8
DEGENERATE_BUDGET = 0.01
MAX_RETRIES_PER_SLOT = 64
# sample slots that share one generator and one oracle call per round of redraws
SLOT_CHUNK = 256

# stream domains, kept distinct so different modules never share a substream
STREAM_GRASSMANN = 1
STREAM_VERTEX = 2
STREAM_GENERIC = 4  # 3 is retired: renumbering would change every sample


def _stream_key(seed: int, domain: int, index: int = 0, sub: int = 0) -> Tuple[int, int]:
    """The two 64-bit words of the Philox key of stream (seed, domain, index, sub)."""
    if not 0 <= index < (1 << 32):
        raise ValueError("substream index out of range")
    if not 0 <= sub < (1 << 24):
        raise ValueError("substream sub-index out of range")
    if not 0 <= domain < (1 << 8):
        raise ValueError("substream domain out of range")
    return seed & 0xFFFFFFFFFFFFFFFF, (domain << 56) | (index << 24) | sub


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

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ambient points onto the subspace."""
        x = np.asarray(x, dtype=float)
        return (x @ self.frame.T) @ self.frame

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of ambient points in the frame basis."""
        return np.asarray(x, dtype=float) @ self.frame.T

    def normal_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement, shape (n-k, n)."""
        if self.k == self.n:
            return np.zeros((0, self.n))
        q, _ = np.linalg.qr(self.frame.T, mode="complete")
        return q[:, self.k:].T


@dataclass(frozen=True, eq=False)
class AffineFlat:
    """An affine flat base + H for a linear subspace H."""

    subspace: Subspace
    base: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        object.__setattr__(self, "base", base)
        if base.shape != (self.subspace.n,):
            raise ValueError("base point dimension mismatch")
        if not np.all(np.isfinite(base)):
            raise ValueError("base point must be finite")

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        rel = np.asarray(x, dtype=float) - self.base
        residual = rel - self.subspace.project(rel)
        return float(np.linalg.norm(residual)) <= tol * (1.0 + np.linalg.norm(rel))


def shift_subspace(subspace: Subspace, x0) -> AffineFlat:
    """The affine flat x0 + H through x0 with direction subspace H."""
    return AffineFlat(subspace=subspace, base=np.asarray(x0, dtype=float))


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
    STREAM_GRASSMANN, i)).frame``: the plane :func:`grassmann_mean_batch`
    offers slot i first.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    for start in range(0, n_samples, SLOT_CHUNK):
        streams = _SlotStreams(n, k, seed, 0, range(start, min(start + SLOT_CHUNK, n_samples)))
        yield from streams.frames(np.arange(len(streams.slots)))


@dataclass(eq=False)
class MonteCarloEstimate:
    """Sample mean with its standard error and full sampling provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_rejected: int = 0
    values: Optional[np.ndarray] = field(default=None, repr=False)


BatchOracle = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def per_plane(f: Callable[[Subspace], float]) -> BatchOracle:
    """Batched oracle that calls ``f`` on one plane at a time.

    A plane where ``f`` raises :class:`DegenerateSample` is marked degenerate.
    """

    def oracle(frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
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


def grassmann_mean_batch(
    n: int,
    k: int,
    oracle: BatchOracle,
    n_samples: int,
    seed: int,
    stream: int = 0,
    collect: bool = False,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the Haar mean of a batched oracle over k-planes in R^n.

    ``oracle(frames)`` takes frames of shape (m, k, n) with orthonormal rows
    and returns ``(values, degenerate)``, two arrays of length m.  Degenerate
    planes (a measure-zero set) are rejected and redrawn from the same
    per-slot stream.  If more than ``DEGENERATE_BUDGET`` of all draws are
    rejected the run aborts with :class:`GenericityError`, since that level of
    degeneracy indicates the input violates the genericity assumptions.
    Slots are processed ``SLOT_CHUNK`` at a time.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    values = np.empty(n_samples, dtype=float)
    rejected = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, n_samples, SLOT_CHUNK):
        slots = np.arange(start, min(start + SLOT_CHUNK, n_samples))
        streams = _SlotStreams(n, k, seed, stream, slots)
        pending = np.arange(slots.size)
        for _ in range(MAX_RETRIES_PER_SLOT):
            vals, bad = oracle(streams.frames(pending))
            bad = np.asarray(bad, dtype=bool)
            values[slots[pending[~bad]]] = np.asarray(vals, dtype=float)[~bad]
            rejected[slots[pending[bad]]] += 1
            pending = pending[bad]
            if not pending.size:
                break
        else:
            raise GenericityError(
                f"sample slot {slots[pending[0]]} exhausted {MAX_RETRIES_PER_SLOT} redraws; "
                "the set appears to violate genericity assumptions"
            )

    n_rejected = int(rejected.sum())
    total_draws = n_samples + n_rejected
    if n_rejected > DEGENERATE_BUDGET * total_draws:
        raise GenericityError(
            f"{n_rejected} of {total_draws} draws were degenerate "
            f"(> {DEGENERATE_BUDGET:.0%} budget)"
        )

    mean = float(np.mean(values))
    if n_samples > 1:
        stderr = float(np.std(values, ddof=1) / sqrt(n_samples))
    else:
        stderr = 0.0
    return MonteCarloEstimate(
        mean=mean,
        stderr=stderr,
        n_samples=n_samples,
        seed=seed,
        n_rejected=n_rejected,
        values=values if collect else None,
    )


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
    """Monte Carlo estimate of the Haar mean of ``f`` over k-planes in R^n.

    ``f`` may raise :class:`DegenerateSample` on a measure-zero set of planes;
    those draws are rejected and redrawn as in :func:`grassmann_mean_batch`,
    which this calls with ``per_plane(f)``.
    ``workers`` is accepted for compatibility and has no effect: the samples
    run in one thread, since a thread pool only slowed this GIL-bound loop
    down.
    """
    return grassmann_mean_batch(n, k, per_plane(f), n_samples, seed, stream=stream,
                                collect=collect)
