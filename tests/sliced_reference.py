"""The numpy sliced quadrature: the reference for ``grassmann.sliced_mean``.

The library keeps the bookkeeping of the sliced rule on Python floats and
lists: the panel layout, the panel owners, each cell's first value and
whether a panel varies, the per-slice centers and the live panels' lengths.
This module keeps the same rule with that bookkeeping on numpy arrays, as
the library had it: ``np.unique`` and ``np.repeat`` for the panel ends,
``np.searchsorted`` for the owners, a per-slice ``np.argsort`` and
``np.diff(..., append=...)`` for the centers and lengths.  The break
longitudes, the oracle, the panel rules and the per-panel dot products are
the library's.  The tests hold ``sliced_mean`` to ``reference_sliced_mean``
with ``==``: mean, bound, panels and cells.
"""

from __future__ import annotations

import numpy as np

from lkcurv import GenericityError
from lkcurv.grassmann import CUT_MERGE_TOL, SLICE_NODES, TWO_PI, SlicedMean, _panel_rule


def reference_panel_edges(cuts: np.ndarray):
    """Ends of the slices between the cuts on [0, 1], and the panel ends:
    the slices graded toward each end whose neighbor across that end is
    narrower than half the slice."""
    inner = np.sort(cuts[(cuts > CUT_MERGE_TOL) & (cuts < 1.0 - CUT_MERGE_TOL)])
    inner = inner[np.diff(inner, prepend=0.0) > CUT_MERGE_TOL]
    edges = np.concatenate([[0.0], inner, [1.0]])
    widths = np.diff(edges)
    # per slice, its lower end then its upper end: the end, the direction into
    # the slice, and the first step, the neighbor's width (its own at 0 and 1)
    ends = np.stack([edges[:-1], edges[1:]], axis=1).ravel()
    signs = np.tile([1.0, -1.0], widths.size)
    steps = np.stack([np.concatenate([widths[:1], widths[:-1]]),
                      np.concatenate([widths[1:], widths[-1:]])], axis=1).ravel()
    counts = np.maximum(0, np.ceil(np.log2(0.5 * np.repeat(widths, 2) / steps))).astype(int)
    # the k-th point from an end steps 2^k times the first step into the slice
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    graded = np.repeat(ends, counts) + np.repeat(signs * steps, counts) * 2.0 ** k
    return edges, np.unique(np.concatenate([edges, graded]))


def reference_sliced_mean(oracle, breaks) -> SlicedMean:
    """``grassmann.sliced_mean`` with its bookkeeping on numpy arrays."""
    slices, edges = reference_panel_edges(breaks.cuts)
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
    # a panel of one value would add w @ (lengths @ 0) = 0 under both rules
    varies = np.array([np.any(values[where] != values[where][0]) for _, _, where in cells])
    live = np.flatnonzero(varies[owner])
    sums = np.zeros((2, lo.size))
    if live.size:
        rules = [_panel_rule(lo[live], hi[live], count) for count in (SLICE_NODES // 2, SLICE_NODES)]
        phi = breaks.longitudes(np.concatenate([nodes.ravel() for nodes, _ in rules]))[0]
        for panel_sums, (nodes, w), at_nodes in zip(sums, rules, np.split(phi, [rules[0][0].size])):
            at_nodes = at_nodes.reshape(nodes.shape + (-1,))
            for i, p in enumerate(live):
                cols, ref, where = cells[owner[p]]
                b = ref + (at_nodes[i][:, cols] - ref + np.pi) % TWO_PI - np.pi
                lengths = np.diff(b, axis=1, append=b[:, :1] + TWO_PI)
                panel_sums[p] = w[i] @ (lengths @ (values[where] - base[p])) / TWO_PI
    coarse, fine = sums
    return SlicedMean(float(np.sum(base * (hi - lo) + fine)), float(np.sum(np.abs(fine - coarse))),
                      lo.size, values.size)
