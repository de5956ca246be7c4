"""One generator per sample slot: the reference for the Grassmannian sampler.

``grassmann_mean_batch`` draws the planes of every slot through one Philox
that it re-keys per slot.  This module keeps the loop that re-keying
replaced: each slot of a chunk gets its own ``substream`` generator, which
runs on from draw to draw, and a rank-deficient block is redrawn from that
generator by ``haar_sample``.  The tests hold the library's values,
rejection counts, mean and standard error bit-equal to it.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from lkcurv import GenericityError, MonteCarloEstimate, haar_sample, substream
from lkcurv import grassmann
from lkcurv.grassmann import (
    DEGENERATE_BUDGET,
    MAX_RETRIES_PER_SLOT,
    STREAM_GRASSMANN,
    _orthonormalize,
)


def haar_frames(n: int, k: int, rngs) -> np.ndarray:
    """One Haar frame per generator, shape (len(rngs), k, n)."""
    frames, ok = _orthonormalize(np.stack([rng.standard_normal((k, n)) for rng in rngs]))
    for j in np.flatnonzero(~ok):
        frames[j] = haar_sample(n, k, rngs[j]).frame
    return frames


def grassmann_mean_per_slot(n, k, oracle, n_samples, seed, stream=0) -> MonteCarloEstimate:
    """``grassmann_mean_batch(..., collect=True)`` with one generator per slot."""
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
