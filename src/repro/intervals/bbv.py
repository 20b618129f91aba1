"""Basic block vectors (paper Section 2.2).

A BBV is one row per interval: element *b* counts how many times block *b*
executed during the interval, multiplied by the block's instruction count
("basic blocks containing more instructions will have more weight").
The weighted row sum therefore equals the interval's instruction count —
the invariant the tests check.
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import K_BLOCK
from repro.engine.tracing import Trace
from repro.intervals.base import IntervalSet

#: trace rows per chunk of the accumulation: the chunk's temporaries
#: stay small and cache-resident instead of spanning the trace
BBV_CHUNK_ROWS = 1 << 16


def collect_bbvs(
    interval_set: IntervalSet, trace: Trace, num_blocks: int
) -> np.ndarray:
    """Compute (and attach) the size-weighted BBV matrix of *interval_set*.

    The block rows stream through in ``BBV_CHUNK_ROWS`` chunks; each
    chunk's ``bincount`` covers only the intervals the chunk spans.
    Rows outside ``[row_bounds[0], row_bounds[-1])`` belong to no
    interval and are skipped (clipping them into the first or last
    interval would inflate its BBV).  The float64 sums are of int64
    block sizes, exact below 2**53, so the matrix equals
    ``np.add.at(bbvs, (interval, block), size)`` whatever the chunking.
    """
    n = len(interval_set)
    bbvs = np.zeros((n, num_blocks), dtype=np.float64)
    interval_set.bbvs = bbvs
    if n == 0:
        return bbvs
    bounds = interval_set.row_bounds
    out = bbvs.reshape(n * num_blocks)
    kinds, ids, sizes = trace.kinds, trace.a, trace.c
    lo = max(int(bounds[0]), 0)
    hi = min(int(bounds[-1]), len(kinds))
    for r0 in range(lo, hi, BBV_CHUNK_ROWS):
        r1 = min(r0 + BBV_CHUNK_ROWS, hi)
        rows = np.flatnonzero(kinds[r0:r1] == K_BLOCK)
        if not len(rows):
            continue
        # which interval each block row belongs to, from the chunk's first
        idx = np.searchsorted(bounds, rows + r0, side="right") - 1
        first = int(idx[0])
        span = (int(idx[-1]) - first + 1) * num_blocks
        idx -= first
        idx *= num_blocks
        idx += ids[r0:r1][rows]
        out[first * num_blocks : first * num_blocks + span] += np.bincount(
            idx, weights=sizes[r0:r1][rows], minlength=span
        )
    return bbvs


def normalize_bbvs(bbvs: np.ndarray) -> np.ndarray:
    """Rows scaled to sum to 1 (the distance-comparison form SimPoint uses)."""
    sums = bbvs.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return bbvs / sums
