"""Reference loops for the two Grassmannian samplers.

``grassmann_mean_per_slot``: the library draws the planes of every slot
through one Philox that it re-keys per slot.  This keeps the loop that
re-keying replaced: each slot of a chunk gets its own ``substream``
generator, which runs on from draw to draw, and a rank-deficient block is
redrawn from that generator by ``haar_sample``.

``grassmann_mean_lattice``: the library rotates the lattice's normals in R^3
replicate by replicate, offering all rejected planes of a replicate to the
next rotation in one oracle call.  This walks the point set one plane at a
time instead: normal j of replicate r takes rotations 0, 1, ... of the
replicate's generator ``substream(seed, STREAM_LATTICE, r, stream)`` until
the oracle accepts it.

The tests hold the library's values, rejection counts, mean and standard
error bit-equal to these loops.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from lkcurv import GenericityError, MonteCarloEstimate
from lkcurv import grassmann
from lkcurv.grassmann import (
    DEGENERATE_BUDGET,
    LATTICE_REPLICATES,
    MAX_RETRIES_PER_SLOT,
    STREAM_GRASSMANN,
    STREAM_LATTICE,
    _orthonormalize,
    haar_sample,
    lattice_normals,
    substream,
)


def haar_frames(n: int, k: int, rngs) -> np.ndarray:
    """One Haar frame per generator, shape (len(rngs), k, n)."""
    frames, ok = _orthonormalize(np.stack([rng.standard_normal((k, n)) for rng in rngs]))
    for j in np.flatnonzero(~ok):
        frames[j] = haar_sample(n, k, rngs[j]).frame
    return frames


def grassmann_mean_per_slot(n, k, oracle, n_samples, seed, stream=0) -> MonteCarloEstimate:
    """The slot draws of Haar k-frames with one generator per slot; for k = 1
    this is ``grassmann_mean_batch(n, ..., collect=True)`` outside R^3, whose
    normals are the frames' rows."""
    values = np.empty(n_samples, dtype=float)
    rejected = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, n_samples, grassmann.SLOT_CHUNK):
        slots = np.arange(start, min(start + grassmann.SLOT_CHUNK, n_samples))
        rngs = [substream(seed, STREAM_GRASSMANN, int(i), stream) for i in slots]
        pending = np.arange(slots.size)
        for _ in range(MAX_RETRIES_PER_SLOT):
            vals, bad = oracle(haar_frames(n, k, [rngs[j] for j in pending]))
            bad = np.asarray(bad, dtype=bool)
            values[slots[pending[~bad]]] = np.asarray(vals, dtype=float)[~bad]
            rejected[slots[pending[bad]]] += 1
            pending = pending[bad]
            if not pending.size:
                break
        else:
            raise GenericityError(f"sample slot {slots[pending[0]]} exhausted its redraws")

    n_rejected = int(rejected.sum())
    if n_rejected > DEGENERATE_BUDGET * (n_samples + n_rejected):
        raise GenericityError(f"{n_rejected} degenerate draws")
    stderr = float(np.std(values, ddof=1) / sqrt(n_samples)) if n_samples > 1 else 0.0
    return MonteCarloEstimate(mean=float(np.mean(values)), stderr=stderr, n_samples=n_samples,
                              seed=seed, n_rejected=n_rejected, values=values)


def grassmann_mean_lattice(oracle, n_samples, seed, stream=0) -> MonteCarloEstimate:
    """``grassmann_mean_batch(3, ..., collect=True)``, one plane at a time."""
    reps = min(LATTICE_REPLICATES, n_samples)
    values, means, n_rejected = [], [], 0
    for r in range(reps):
        size = n_samples // reps + (1 if r < n_samples % reps else 0)
        rng = substream(seed, STREAM_LATTICE, r, stream)
        rotations = []
        start = len(values)
        for point in lattice_normals(size):
            for t in range(MAX_RETRIES_PER_SLOT):
                if t == len(rotations):
                    rotations.append(haar_sample(3, 3, rng).frame)
                vals, bad = oracle((point @ rotations[t])[None])
                if not bad[0]:
                    values.append(float(vals[0]))
                    break
                n_rejected += 1
            else:
                raise GenericityError(f"lattice point of replicate {r} exhausted its redraws")
        means.append(float(np.mean(values[start:])))

    if n_rejected > DEGENERATE_BUDGET * (n_samples + n_rejected):
        raise GenericityError(f"{n_rejected} degenerate draws")
    stderr = float(np.std(means, ddof=1) / sqrt(reps)) if reps > 1 else 0.0
    values = np.array(values)
    return MonteCarloEstimate(mean=float(np.mean(values)), stderr=stderr, n_samples=n_samples,
                              seed=seed, n_rejected=n_rejected, values=values, replicates=reps)
