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

    The trace's row ids stream through in ``BBV_CHUNK_ROWS`` chunks;
    each chunk's ``bincount`` counts (interval, row id) pairs over the
    intervals the chunk spans.  Each block row of the trace's table then
    adds its count times its size to its block's column, so a table
    with two rows for one block sums both.  Rows outside
    ``[row_bounds[0], row_bounds[-1])`` belong to no interval and are
    skipped (clipping them into the first or last interval would
    inflate its BBV).  The float64 sums are of integers below 2**53, so
    exact, and the matrix equals ``np.add.at(bbvs, (interval, block),
    size)`` over the block rows whatever the chunking.
    """
    n = len(interval_set)
    bounds = interval_set.row_bounds
    ids, table = trace.ids, trace.table
    m = len(table)
    counts = np.zeros(n * m, dtype=np.int64)
    lo = max(int(bounds[0]), 0)
    hi = min(int(bounds[-1]), len(ids))
    for r0 in range(lo, hi, BBV_CHUNK_ROWS):
        r1 = min(r0 + BBV_CHUNK_ROWS, hi)
        # the intervals of the chunk's first and last rows, and where
        # each interval between them starts and stops in the chunk
        first = int(np.searchsorted(bounds, r0, side="right")) - 1
        last = int(np.searchsorted(bounds, r1 - 1, side="right")) - 1
        span = (last - first + 1) * m
        cuts = np.clip(bounds[first : last + 2], r0, r1)
        key = np.repeat(np.arange(0, span, m), np.diff(cuts))
        key += ids[r0:r1]
        counts[first * m : first * m + span] += np.bincount(key, minlength=span)
    blocks = np.flatnonzero(table[:, 0] == K_BLOCK)
    weighted = counts.reshape(n, m)[:, blocks] * table[blocks, 3]
    cells = np.arange(0, n * num_blocks, num_blocks)[:, None] + table[blocks, 1]
    interval_set.bbvs = np.bincount(
        cells.ravel(), weights=weighted.ravel(), minlength=n * num_blocks
    ).reshape(n, num_blocks)
    return interval_set.bbvs


def normalize_bbvs(bbvs: np.ndarray) -> np.ndarray:
    """Rows scaled to sum to 1 (the distance-comparison form SimPoint uses)."""
    sums = bbvs.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return bbvs / sums
