"""Mattson stack-distance cache simulation (the Cheetah substitute).

For caches sharing set count and line size, LRU satisfies the inclusion
property: an access that hits at LRU stack depth *d* within its set hits
in every configuration with associativity >= d.  One pass over the trace
therefore yields hit counts for *all* associativities 1..max_ways — the
same trick Shen et al.'s ATOM/Cheetah infrastructure uses, and the reason
the adaptive-cache experiment can evaluate the full 32KB..256KB
configuration space of Section 6.1 without eight separate runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.cache.cache import CacheConfig
from repro.engine.events import K_BLOCK
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # avoid a circular import with repro.intervals
    from repro.intervals.base import IntervalSet


class MultiAssocCacheSim:
    """Single-pass simulation of every associativity 1..max_ways."""

    def __init__(self, num_sets: int = 512, line_bytes: int = 64, max_ways: int = 8):
        self.base_config = CacheConfig(num_sets, max_ways, line_bytes)
        self.max_ways = max_ways
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        #: hit counts by stack depth (index d-1 = hits at depth exactly d)
        self.depth_hits = np.zeros(max_ways, dtype=np.int64)
        self.accesses = 0

    def access(self, address: int) -> int:
        """Access one address; returns the hit depth (0 = miss)."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        ways = self._sets[set_index]
        self.accesses += 1
        try:
            depth = ways.index(line) + 1
        except ValueError:
            ways.insert(0, line)
            if len(ways) > self.max_ways:
                ways.pop()
            return 0
        del ways[depth - 1]
        ways.insert(0, line)
        self.depth_hits[depth - 1] += 1
        return depth

    def access_many(self, addresses: np.ndarray) -> None:
        line_shift = self._line_shift
        set_mask = self._set_mask
        sets = self._sets
        depth_hits = self.depth_hits
        max_ways = self.max_ways
        self.accesses += len(addresses)
        for address in addresses.tolist():
            line = address >> line_shift
            ways = sets[line & set_mask]
            try:
                depth = ways.index(line)
            except ValueError:
                ways.insert(0, line)
                if len(ways) > max_ways:
                    ways.pop()
                continue
            del ways[depth]
            ways.insert(0, line)
            depth_hits[depth] += 1

    def hits_at_assoc(self) -> np.ndarray:
        """Cumulative hits per associativity: element w-1 = hits with w ways."""
        return np.cumsum(self.depth_hits)

    def misses_at_assoc(self) -> np.ndarray:
        return self.accesses - self.hits_at_assoc()

    def config_for_ways(self, ways: int) -> CacheConfig:
        return CacheConfig(
            self.base_config.num_sets, ways, self.base_config.line_bytes
        )


#: accesses per lock-step pass; bounds the pass's temporaries
CHUNK_ACCESSES = 1 << 16

#: once fewer sets than this still have accesses left in a chunk, their
#: remaining accesses run through the per-access loop instead of rounds
TAIL_SETS = 32


def stack_depths(
    addresses: np.ndarray,
    num_sets: int = 512,
    line_bytes: int = 64,
    max_ways: int = 8,
) -> Tuple[np.ndarray, int]:
    """Capped LRU stack depths of an address stream, set by set in lock step.

    Returns ``(depths, tail_accesses)``.  ``depths`` (int8) equals,
    access for access, :meth:`MultiAssocCacheSim.access`: the depth of a
    hit (1..max_ways) or 0 for a miss.  ``tail_accesses`` counts the
    accesses resolved one by one (see below).

    The stream is cut into chunks of :data:`CHUNK_ACCESSES`; per-set
    stacks (``max_ways`` line tags, most recent first, -1 for an empty
    way) carry across chunks.  Within a chunk the accesses are sorted by
    set, keeping time order inside each set, and an access to the line
    its set touched last is a depth-1 hit that leaves the stack as it
    was, so it is resolved without a round.  Round *r* then handles the
    *r*-th remaining access of every set that has one, as one (sets x
    ways) compare and shift; sets are ranked by access count, so the
    sets still active in round *r* are a prefix of the state array.  A
    round costs about the same for 1 set as for 512, so once fewer than
    :data:`TAIL_SETS` sets are still active (known from the per-set
    counts before any round runs) their remaining accesses go through
    :meth:`MultiAssocCacheSim.access` one by one: a stream skewed onto a
    few sets costs what the reference loop costs.
    """
    if not 1 <= max_ways <= 127:
        raise ValueError("max_ways must be in 1..127 (depths are int8)")
    CacheConfig(num_sets, max_ways, line_bytes)  # validates the geometry
    lines = np.asarray(addresses, dtype=np.int64) >> (line_bytes.bit_length() - 1)
    #: way-major: row w holds every set's line at stack depth w + 1
    stacks = np.full((max_ways, num_sets), -1, dtype=np.int64)
    # the reference simulation over line numbers (1-byte lines), fed
    # only the accesses left to the tail
    tail = MultiAssocCacheSim(num_sets, 1, max_ways)
    # NumPy sorts integers of 16 bits or fewer by radix, in linear time
    set_dtype = np.int16 if num_sets <= 1 << 15 else np.int64
    depths = np.empty(len(lines), dtype=np.int8)
    for lo in range(0, len(lines), CHUNK_ACCESSES):
        chunk = lines[lo : lo + CHUNK_ACCESSES]
        sets = (chunk & (num_sets - 1)).astype(set_dtype)
        order = np.argsort(sets, kind="stable")
        by_set = chunk[order]
        repeat = np.zeros(len(chunk), dtype=bool)
        np.equal(by_set[1:], by_set[:-1], out=repeat[1:])
        kept = ~repeat
        by_set_depth = np.ones(len(chunk), dtype=np.int8)
        by_set_depth[kept] = _resolve(
            by_set[kept], sets[order][kept].astype(np.int64), stacks, tail
        )
        depths[lo : lo + len(chunk)][order] = by_set_depth
    return depths, tail.accesses


def _resolve(
    tags: np.ndarray,
    tag_sets: np.ndarray,
    stacks: np.ndarray,
    tail: MultiAssocCacheSim,
) -> np.ndarray:
    """Depths of set-sorted accesses with no immediate repeats, moving
    *stacks* on past them."""
    ways, num_sets = stacks.shape
    counts = np.bincount(tag_sets, minlength=num_sets)
    ranked = np.argsort(-counts, kind="stable")
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
    ranked_counts = counts[ranked]
    active = int(np.count_nonzero(ranked_counts))
    # sets active in round r: a prefix of the ranking, this long
    widths = np.searchsorted(
        -ranked_counts, -np.arange(ranked_counts[0]), side="left"
    )
    rounds = int(np.count_nonzero(widths >= TAIL_SETS))
    starts = np.cumsum(counts) - counts
    round_of = np.arange(len(tags)) - starts[tag_sets]
    active_stacks = stacks[:, ranked[:active]]
    depth = np.empty(len(tags), dtype=np.int8)

    if rounds:
        widths = widths[:rounds]
        round_starts = np.cumsum(widths) - widths
        locked = round_of < rounds
        slot = round_starts[round_of[locked]] + rank[tag_sets[locked]]
        line = np.empty(int(widths.sum()), dtype=np.int64)
        line[slot] = tags[locked]
        # per access: ways at or below its hit position (0 on a miss)
        below = np.empty(len(line), dtype=np.int8)
        for r in range(rounds):
            lo, width = int(round_starts[r]), int(widths[r])
            x = line[lo : lo + width]
            stack = active_stacks[:, :width]
            seen = np.logical_or.accumulate(stack == x, axis=0)
            np.add.reduce(seen, axis=0, dtype=np.int8, out=below[lo : lo + width])
            stack[1:] = np.where(seen[:-1], stack[1:], stack[:-1])
            stack[0] = x
        # a hit at depth d leaves ways - d + 1 ways seen; a miss none
        seen_ways = below[slot].astype(np.int64)
        depth[locked] = (ways + 1 - seen_ways) % (ways + 1)

    tail_sets = int(np.count_nonzero(ranked_counts > rounds))
    for j in range(tail_sets):
        s = int(ranked[j])
        lo, hi = int(starts[s]) + rounds, int(starts[s] + counts[s])
        stack = tail._sets[s]
        stack[:] = [t for t in active_stacks[:, j].tolist() if t >= 0]
        depth[lo:hi] = [tail.access(t) for t in tags[lo:hi].tolist()]
        active_stacks[:, j] = stack + [-1] * (ways - len(stack))
    stacks[:, ranked[:active]] = active_stacks
    return depth


def profile_events(
    trace: Trace,
    memory: MemorySystem,
    num_sets: int = 512,
    line_bytes: int = 64,
    max_ways: int = 8,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block-event cache behavior at every associativity.

    Returns ``(rows, accesses, hits)``: the trace row of each block
    event, its access count, and its hits at each associativity
    (shape (n_events, max_ways)).  Computed once per trace and then
    attributed to any interval partition by summation — the several
    partitions of one run in the experiments share this pass.

    One gather yields every event's addresses, :func:`stack_depths`
    gives each access its hit depth, and one ``bincount`` counts hits by
    (event, depth); a running sum over depths turns those into hits per
    associativity.  Equal to stepping :class:`MultiAssocCacheSim` event
    by event (:func:`repro.verify.oracles.oracle_profile_events`).
    """
    mask = trace.kinds == K_BLOCK
    rows = np.nonzero(mask)[0]
    ids = trace.a[mask]
    n_events = len(rows)
    memory.reset()
    accesses = memory.accesses_for_blocks(ids)
    depths, tail_accesses = stack_depths(
        memory.addresses_for_blocks(ids), num_sets, line_bytes, max_ways
    )
    # one access-length temporary at a time: the peak memory of a trace
    event = np.repeat(np.arange(n_events, dtype=np.int64), accesses)
    hit = depths > 0
    key = event[hit]
    del event
    key *= max_ways
    key += depths[hit]
    key -= 1
    hits = np.bincount(key, minlength=n_events * max_ways).reshape(n_events, max_ways)
    np.cumsum(hits, axis=1, out=hits)
    tm = get_telemetry()
    if tm.enabled:
        tm.counter("cache.stackdist.accesses", len(depths))
        tm.counter("cache.stackdist.tail_accesses", tail_accesses)
    return rows, accesses, hits


def profile_intervals(
    trace: Trace,
    interval_set: "IntervalSet",
    memory: MemorySystem,
    num_sets: int = 512,
    line_bytes: int = 64,
    max_ways: int = 8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval cache behavior at every associativity.

    Returns ``(accesses, hits)`` where ``accesses`` has shape (n,) and
    ``hits`` has shape (n, max_ways): hits[i, w-1] is interval *i*'s hit
    count with a w-way cache (warm across interval boundaries, as in a
    continuously running machine).
    """
    rows, ev_accesses, ev_hits = profile_events(
        trace, memory, num_sets, line_bytes, max_ways
    )
    return attribute_to_intervals(
        interval_set.row_bounds, rows, ev_accesses, ev_hits
    )


def attribute_to_intervals(
    row_bounds: np.ndarray,
    event_rows: np.ndarray,
    event_accesses: np.ndarray,
    event_hits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum per-event cache results into a partition's intervals.

    *event_rows* ascend (as :func:`profile_events` returns them), so each
    interval's events are one run and one ``reduceat`` per column sums
    them; the sums are integer, so their order does not matter.
    """
    n = len(row_bounds) - 1
    max_ways = event_hits.shape[1]
    accesses = np.zeros(n, dtype=np.int64)
    hits = np.zeros((n, max_ways), dtype=np.int64)
    if n == 0 or len(event_rows) == 0:
        return accesses, hits
    idx = np.clip(
        np.searchsorted(row_bounds, event_rows, side="right") - 1, 0, n - 1
    )
    counts = np.bincount(idx, minlength=n)
    filled = np.nonzero(counts)[0]
    starts = (np.cumsum(counts) - counts)[filled]
    accesses[filled] = np.add.reduceat(event_accesses, starts)
    hits[filled] = np.add.reduceat(event_hits, starts, axis=0)
    return accesses, hits
