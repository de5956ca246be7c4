"""Haar means over hyperplanes: drawn normals and sliced quadrature.

A hyperplane is read through its unit normal u: Haar measure on G(n, n-1) is
the image of the uniform measure on S^(n-1) under u -> u^perp (Santalo,
*Integral Geometry and Geometric Probability*), so an oracle takes normals
and no frame is built.  A mean comes from one of two rules:

* **Sliced quadrature** (``sliced_mean``) where the count is piecewise
  constant on cells whose walls are known: the cones of R^3 and the quadrics
  of R^3 whose hyperplane links vary (``catalog.links.hyperplane_breaks``).
  The upper hemisphere of normals meets every hyperplane once, and its
  uniform measure is dz dp / 2 pi in the height z along the pole and the
  longitude p (Archimedes), so the mean is the integral over z of the sum
  over the cells of the height of each cell's value times its length / 2 pi.
  The heights are cut into panels at the cuts of the breaks, and graded
  toward close cuts, so that within a panel the same break longitudes bound
  the cells in the same cyclic order: the oracle gives each cell's value
  once, at the panel's middle height, and the lengths are integrated by
  Gauss-Legendre in z.  The cells are born and die at the panel ends like
  square roots, which a smoothstep substitution takes off.  The error bound
  is the change of each panel's value from ``SLICE_NODES`` to half as many
  nodes, summed in absolute value.  Nothing is drawn.
* **Independent slots** (``grassmann_mean_batch``) everywhere else: sample
  slot i takes a Haar normal, a normalized Gaussian vector, and the
  standard error is that of the values.

Planes of lower dimension are never drawn, nor hyperplanes of a set whose
hyperplane links agree almost everywhere: the report's means over them are
closed forms (``catalog.links.generic_link_chi``).

``haar_sample`` draws one plane from a generator.  ``grassmann_mean`` is the
loop for a function of one hyperplane, which ``per_plane`` hands a frame
built by ``hyperplane_frames``; no verify path calls ``haar_sample`` or
``grassmann_mean``, and they stay because the benchmark's probe and tracing
look them up by name.  ``slot_frames`` gives the Haar k-frames of ``lkcurv
grassmann sample``.

Determinism contract: an estimate draws every normal from one counter-based
Philox stream, ``substream(seed, STREAM_GRASSMANN, 0, stream)``, so it is
bit-identical for a given ``(n, n_samples, seed, stream)``.  The stream is
read as ``haar_sample`` reads it: one ``standard_normal((1, n))`` block per
draw, a rank-deficient block being skipped.  Slot i takes the i-th normal
of the stream.  Then the slots the oracle rejected take the next normals,
one each in slot order, round by round.  So a batch of draws equals as many
``haar_sample`` calls on one generator, and ``SLOT_CHUNK``, the number of
normals per oracle call, changes no value.

A seed is a 64-bit word of the key: seeds outside [0, 2^64) are rejected, not
wrapped, so no two seeds share their streams.  Stream domain 1 is the slot
draws, its sub-index the term's ``stream``.  Domain 2 belongs to the sampled
vertex-index check of the test suite, and domains 3 and 4 stay retired, so
that no new stream repeats the samples they once drew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .catalog.charts import _gl_rule
from .errors import DegenerateSample, GenericityError

ORTHONORMAL_TOL = 1e-10
# smallest allowed residual norm before normalization in Gram-Schmidt
RANK_DEFICIENCY_TOL = 1e-8
DEGENERATE_BUDGET = 0.01
MAX_RETRIES_PER_SLOT = 64
# normals per oracle call of the slot draws; no value depends on it
SLOT_CHUNK = 256

# stream domain of the slot draws (see the module docstring)
STREAM_GRASSMANN = 1
# Gauss-Legendre nodes per panel of the sliced rule; its bound compares the
# rule on half as many
SLICE_NODES = 16
# cuts of the sliced rule closer than this differ by rounding and are one cut
CUT_MERGE_TOL = 1e-12
TWO_PI = 2.0 * np.pi


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

    Distinct keys give statistically independent streams: each drawn term
    of a run has its own, and so has each vertex of the test suite's
    sampled vertex-index check.
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


# the benchmark's tracing looks this up by name
def haar_sample(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Draw a rotation-invariant random k-plane in R^n: the next Haar frame
    of ``rng``, from k independent standard-normal n-vectors."""
    return Subspace(n=n, k=k, frame=_haar_frames(n, k, rng, 1)[0])


def _haar_frames(n: int, k: int, rng: np.random.Generator, m: int) -> np.ndarray:
    """The next m Haar k-frames of R^n from ``rng``, shape (m, k, n).

    They are the orthonormalized full-rank ``standard_normal((k, n))`` blocks
    of the stream, in order; a numerically rank-deficient block (a
    probability-zero event) is skipped.  A round draws one block per missing
    frame, so the stream ends where the m-th frame's block does, and m calls
    of :func:`haar_sample` read the same frames as one call with m.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    frames = np.empty((m, k, n))
    filled = 0
    while filled < m:
        q, ok = _orthonormalize(rng.standard_normal((m - filled, k, n)))
        q = q[ok]
        frames[filled:filled + len(q)] = q
        filled += len(q)
    return frames


def slot_frames(n: int, k: int, seed: int, n_samples: int) -> Iterator[np.ndarray]:
    """The Haar k-frames of sample slots 0, 1, ..., n_samples - 1, in order.

    They are the frames of ``n_samples`` calls of ``haar_sample(n, k, rng)``
    on one ``rng = substream(seed, STREAM_GRASSMANN)``, drawn ``SLOT_CHUNK``
    at a time.  For k = 1 row i is the first normal
    :func:`grassmann_mean_batch` offers slot i on stream 0.
    """
    rng = substream(seed, STREAM_GRASSMANN)
    for start in range(0, n_samples, SLOT_CHUNK):
        yield from _haar_frames(n, k, rng, min(SLOT_CHUNK, n_samples - start))


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


def _slot_draws(n: int, oracle: BatchOracle, n_samples: int, seed: int,
                stream: int) -> Tuple[np.ndarray, np.ndarray]:
    """Values and rejection counts of sample slots 0, 1, ..., n_samples - 1,
    each offering the oracle its Haar unit normals of R^n.

    The rule of the module docstring; the oracle sees ``SLOT_CHUNK`` normals
    a call.  Every round offers each rejected slot its next normal, until
    none is left or a slot has had ``MAX_RETRIES_PER_SLOT`` tries.
    """
    rng = substream(seed, STREAM_GRASSMANN, 0, stream)
    values = np.empty(n_samples, dtype=float)
    rejected = np.zeros(n_samples, dtype=np.int64)
    pending = np.arange(n_samples)
    for _ in range(MAX_RETRIES_PER_SLOT):
        bad_slots = []
        for start in range(0, pending.size, SLOT_CHUNK):
            slots = pending[start:start + SLOT_CHUNK]
            vals, bad = oracle(_haar_frames(n, 1, rng, slots.size)[:, 0])
            bad = np.asarray(bad, dtype=bool)
            values[slots[~bad]] = np.asarray(vals, dtype=float)[~bad]
            bad_slots.append(slots[bad])
        pending = np.concatenate(bad_slots)
        rejected[pending] += 1
        if not pending.size:
            return values, rejected
    raise GenericityError(
        f"sample slot {int(pending[0])} exhausted {MAX_RETRIES_PER_SLOT} "
        "redraws; the set appears to violate genericity assumptions")


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
    ``(values, degenerate)``, two arrays of length m.  The normals are
    independent slots, ``SLOT_CHUNK`` at a time, and the standard error is
    that of the values.
    Degenerate planes (a measure-zero set) are rejected and redrawn from the
    same stream.  If more than ``DEGENERATE_BUDGET`` of all draws are
    rejected the run aborts with :class:`GenericityError`, since that level
    of degeneracy indicates the input violates the genericity assumptions.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    values, rejected = _slot_draws(n, oracle, n_samples, seed, stream)
    n_rejected = int(rejected.sum())
    total_draws = n_samples + n_rejected
    if n_rejected > DEGENERATE_BUDGET * total_draws:
        raise GenericityError(
            f"{n_rejected} of {total_draws} draws were degenerate "
            f"(> {DEGENERATE_BUDGET:.0%} budget)"
        )

    stderr = float(np.std(values, ddof=1) / sqrt(n_samples)) if n_samples > 1 else 0.0
    return MonteCarloEstimate(
        mean=float(np.mean(values)),
        stderr=stderr,
        n_samples=n_samples,
        seed=seed,
        n_rejected=n_rejected,
        values=values if collect else None,
    )


@dataclass(frozen=True)
class SlicedMean:
    """A Haar mean over hyperplanes of R^3 by sliced quadrature, its error
    bound, and the panels and cells (one oracle plane each) it took."""

    mean: float
    bound: float
    panels: int
    cells: int


def _panel_rule(lo: np.ndarray, hi: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel [lo, hi] under the
    smoothstep z = lo + (hi - lo)(3s^2 - 2s^3), shape (panels, count)."""
    x, w = _gl_rule(count)
    s = 0.5 * (1.0 + x)
    width = (hi - lo)[:, None]
    return lo[:, None] + width * s * s * (3.0 - 2.0 * s), width * 3.0 * s * (1.0 - s) * w


def _panel_edges(cuts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ends of the slices between the cuts on [0, 1], and the panel ends:
    the slices graded toward each end whose neighbor across that end is
    narrower than half the slice.

    A cut can be a branch point, so a panel sees one at the far end of each
    neighbor.  Steps that double from the neighbor's width keep every panel
    at least a third of its width away from a branch point outside it, so
    that Gauss-Legendre converges at one rate on every panel however close
    two cuts are.
    """
    inner = np.sort(cuts[(cuts > CUT_MERGE_TOL) & (cuts < 1.0 - CUT_MERGE_TOL)])
    inner = inner[np.diff(inner, prepend=0.0) > CUT_MERGE_TOL]
    edges = np.concatenate([[0.0], inner, [1.0]])
    widths = np.diff(edges)
    graded = [edges]
    for i, width in enumerate(widths):
        for end, sign, step in ((edges[i], 1.0, widths[i - 1] if i else width),
                                (edges[i + 1], -1.0, widths[i + 1] if i + 1 < widths.size else width)):
            steps = step * 2.0 ** np.arange(max(0, int(np.ceil(np.log2(0.5 * width / step)))))
            graded.append(end + sign * steps)
    return edges, np.unique(np.concatenate(graded))


def sliced_mean(oracle: BatchOracle, breaks) -> SlicedMean:
    """Haar mean of a batched oracle over hyperplanes of R^3 whose value can
    change only where ``breaks`` says (``catalog.links.HyperplaneBreaks``).

    The rule of the module docstring.  Every cell's value comes from one
    oracle call over all slices between cuts, at the cell's middle longitude
    on its slice's middle height, and :class:`GenericityError` is raised if
    the oracle flags any of those planes as degenerate.  A panel whose cells
    take values f_c contributes f_0 times its height plus the integral of
    sum_c (f_c - f_0) len_c(z) / 2 pi, so a panel with one value is exact.
    At each node a cell's length is the gap to the next break point in the
    order of the slice's middle height, each point taken on the branch mod
    2 pi nearest its middle position, so a cell that vanishes at a panel end
    has length 0 there.
    """
    slices, edges = _panel_edges(breaks.cuts)
    lo, hi = edges[:-1], edges[1:]
    owner = np.searchsorted(slices, 0.5 * (lo + hi)) - 1
    mid = 0.5 * (slices[:-1] + slices[1:])
    phi, exists = breaks.longitudes(mid)
    cells, height, lon = [], [], []
    for p in range(mid.size):
        cols = np.flatnonzero(exists[p])
        ref = phi[p, cols] % TWO_PI
        order = np.argsort(ref)
        cols, ref = cols[order], ref[order]
        centers = ref + 0.5 * np.diff(ref, append=ref[:1] + TWO_PI) if cols.size else np.zeros(1)
        cells.append((cols, ref, slice(len(lon), len(lon) + centers.size)))
        height += [mid[p]] * centers.size
        lon += centers.tolist()
    z, lon = np.array(height), np.array(lon)
    r = np.sqrt(1.0 - z * z)
    values, degenerate = oracle(np.stack([r * np.cos(lon), r * np.sin(lon), z], axis=-1)
                                @ breaks.basis)
    values = np.asarray(values, dtype=float)
    if np.any(degenerate):
        raise GenericityError(
            f"the plane of a sliced cell at height {z[np.argmax(degenerate)]:.6g} is "
            "degenerate; the set appears to violate genericity assumptions")
    base = np.array([values[where][0] for _, _, where in cells])[owner]
    sums = []
    for count in (SLICE_NODES // 2, SLICE_NODES):
        nodes, w = _panel_rule(lo, hi, count)
        at_nodes = breaks.longitudes(nodes.ravel())[0].reshape(nodes.shape + (-1,))
        panel_sums = np.zeros(lo.size)
        for p, (cols, ref, where) in enumerate(cells[i] for i in owner):
            if cols.size:
                b = ref + (at_nodes[p][:, cols] - ref + np.pi) % TWO_PI - np.pi
                lengths = np.diff(b, axis=1, append=b[:, :1] + TWO_PI)
                panel_sums[p] = w[p] @ (lengths @ (values[where] - base[p])) / TWO_PI
        sums.append(panel_sums)
    coarse, fine = sums
    return SlicedMean(float(np.sum(base * (hi - lo) + fine)), float(np.sum(np.abs(fine - coarse))),
                      lo.size, values.size)


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
