"""Bounded sliding window of exact per-edge moment statistics.

The streaming profiler partitions the live stream into fixed-size
instruction-count *slots*; each slot accumulates its own per-edge
:class:`~repro.callloop.stats.MomentStats` map through the batch
profiler's own ``_MomentBuilder`` — per-span closes and batched
back-edge runs alike.  A bounded window retains
only the newest ``window_slots`` sealed slots — memory stays constant no
matter how long the stream runs — and aggregation happens only at
(rare) re-selection time by merging the slot maps in arrival order.

Exactness is the point: ``MomentStats`` is integer and associative, so
merging slot maps in order reproduces, bit for bit, what a sequential
walk over the same span would have accumulated; and per-slot first-close
order concatenates to the sequential first-close order, fixing the edge
order of any graph built from the merge.  With an unbounded
window (``window_slots=0``) this is what makes streaming selection
bit-identical to the batch path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.callloop.profiler import _MomentBuilder
from repro.callloop.stats import MomentStats
from repro.ir.program import SourceLoc

#: one window slot: (src, dst) -> [MomentStats, source_set, last_source]
SlotMap = Dict[Tuple[int, int], list]


class StreamingWindow:
    """Per-slot edge moments with bounded retention.

    ``window_slots=0`` keeps every sealed slot (unbounded — the
    batch-equivalence configuration); ``window_slots=N`` evicts the
    oldest sealed slot beyond N, counting evictions in
    :attr:`evicted_slots` (never silent).
    """

    def __init__(self, window_slots: int = 0):
        if window_slots < 0:
            raise ValueError(f"window_slots must be >= 0, got {window_slots}")
        self.window_slots = window_slots
        self.slots: Deque[SlotMap] = deque()
        #: accumulator of the live slot; its ``on_edge_close`` and
        #: ``on_edge_iterations`` take closed spans and back-edge runs
        self.live = _MomentBuilder()
        #: sealed slots dropped from the window bound
        self.evicted_slots = 0
        self._sealed_observations = 0

    @property
    def current(self) -> SlotMap:
        """The live slot's edge map."""
        return self.live.edges

    @property
    def observations(self) -> int:
        """Observations folded in (window-wide, including evicted)."""
        return self._sealed_observations + _count(self.current)

    def observe(
        self, src: int, dst: int, value: int, source: Optional[SourceLoc]
    ) -> None:
        """Fold one closed edge span of *value* instructions into the
        live slot."""
        self.live.on_edge_close(src, dst, 0, value, source)

    def seal(self) -> int:
        """Seal the live slot into the window; returns slots evicted."""
        sealed = self.current
        self._sealed_observations += _count(sealed)
        self.slots.append(sealed)
        self.live = _MomentBuilder()
        evicted = 0
        if self.window_slots:
            while len(self.slots) > self.window_slots:
                self.slots.popleft()
                evicted += 1
        self.evicted_slots += evicted
        return evicted

    @property
    def num_slots(self) -> int:
        """Sealed slots currently retained."""
        return len(self.slots)

    def slot_maps(self):
        """The retained slot maps in arrival order, live slot last."""
        maps = list(self.slots)
        if self.current:
            maps.append(self.current)
        return maps

    def merged_edges(self) -> SlotMap:
        """Merge the retained slots (in arrival order) into one map.

        Entries are fresh copies — the slot maps stay intact so the
        window can keep sliding after an aggregation.
        """
        merged: SlotMap = {}
        for edges in self.slot_maps():
            for key, entry in edges.items():
                into = merged.get(key)
                if into is None:
                    stats = MomentStats()
                    stats.merge(entry[0])
                    into = merged[key] = [stats, set(entry[1]), entry[2]]
                else:
                    into[0].merge(entry[0])
                    into[1] |= entry[1]
        return merged

    def merged_moments(self, pairs) -> Dict[Tuple[int, int], MomentStats]:
        """Window-merged moments for just *pairs* (the drift check's
        cheap path: marker edges only, no full-map merge)."""
        wanted = list(dict.fromkeys(pairs))
        out: Dict[Tuple[int, int], MomentStats] = {}
        for edges in self.slot_maps():
            for key in wanted:
                entry = edges.get(key)
                if entry is None:
                    continue
                into = out.get(key)
                if into is None:
                    into = out[key] = MomentStats()
                into.merge(entry[0])
        return out


def _count(edges: SlotMap) -> int:
    return sum(entry[0].count for entry in edges.values())
