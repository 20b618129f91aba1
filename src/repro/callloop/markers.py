"""Phase markers: selected call-loop edges and their runtime matching.

A software phase marker is a call-loop graph edge chosen by the selection
algorithm; executing the corresponding code location (call site, loop
entry, or loop back-edge) signals the start of a new behavior interval.
Marker identity is source-stable (node identities are proc names and loop
source lines), so a :class:`MarkerSet` selected on one binary can be
applied to another compilation of the same source.

The ordered executions of a marker set's edges — its *firings* — feed
three consumers: VLI boundaries (Section 6.2), the marker sequence two
binaries must match (Section 6.2.1), and run-time reconfiguration
triggers (Section 5.3).  :func:`marker_firings` computes them once, for
all three, from the trace's span index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.callloop.graph import Node, NodeTable
from repro.callloop.spans import EdgeOpens, index_trace
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine.tracing import Trace
from repro.ir.program import Program, SourceLoc
from repro.telemetry import get_telemetry

#: int64 ``(rows, ts, marker_ids)``: each firing's trace row (-1 for the
#: entry procedure's opens at t = 0), instructions before it, and marker
Firings = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PhaseMarker:
    """One selected marker.

    ``merge_iterations`` > 1 means the marker sits on a loop's head->body
    edge and fires only every Nth iteration (Section 5.2's grouping of
    consecutive loop iterations).  ``forced`` flags markers inserted by the
    max-limit heuristic rather than by the CoV test.
    """

    marker_id: int
    src: Node
    dst: Node
    avg_interval: float
    cov: float
    max_interval: float
    merge_iterations: int = 1
    forced: bool = False
    site_sources: Tuple[SourceLoc, ...] = ()

    @property
    def edge_key(self) -> Tuple[Node, Node]:
        return (self.src, self.dst)

    def describe(self) -> str:
        """Human-readable location, e.g. ``work[body] -> inner[loop-head]``."""
        extra = f" x{self.merge_iterations}" if self.merge_iterations > 1 else ""
        flag = " (forced)" if self.forced else ""
        return f"#{self.marker_id} {self.src} -> {self.dst}{extra}{flag}"


@dataclass
class MarkerSet:
    """All markers selected for one program under one parameterization."""

    program_name: str
    variant: str
    ilower: float
    max_limit: Optional[float]
    markers: List[PhaseMarker] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_edge: Dict[Tuple[Node, Node], PhaseMarker] = {
            m.edge_key: m for m in self.markers
        }
        if len(self._by_edge) != len(self.markers):
            raise ValueError("duplicate markers on the same edge")

    def __len__(self) -> int:
        return len(self.markers)

    def __iter__(self):
        return iter(self.markers)

    def marker_for(self, src: Node, dst: Node) -> Optional[PhaseMarker]:
        return self._by_edge.get((src, dst))

    @property
    def num_phase_ids(self) -> int:
        """Phase ids: one per marker, plus phase 0 for the unmarked prologue."""
        return len(self.markers) + 1

    def describe(self) -> str:
        lines = [
            f"{len(self.markers)} markers for {self.program_name} "
            f"({self.variant}), ilower={self.ilower:g}"
            + (f", max_limit={self.max_limit:g}" if self.max_limit else "")
        ]
        lines.extend("  " + m.describe() for m in self.markers)
        return "\n".join(lines)


class MarkerTracker:
    """Runtime marker matching against walker edge-open notifications.

    One probe per edge open: the walk collector behind
    :func:`marker_firings_scalar` and the streaming monitor match
    markers with it.  The tracker resolves markers to the *target*
    program's node table (which may belong to a different compilation
    than the markers were selected on) and implements every-Nth-iteration
    firing for merged loop markers; a fresh tracker starts every cadence
    at zero.
    """

    def __init__(self, marker_set: MarkerSet, table: NodeTable):
        self.marker_set = marker_set
        self.table = table
        self._by_pair: Dict[Tuple[int, int], PhaseMarker] = {}
        self._counters: Dict[Tuple[int, int], int] = {}
        self._reset_on_head: Dict[int, List[Tuple[int, int]]] = {}
        self.unmapped: List[PhaseMarker] = []
        node_index = {node: i for i, node in enumerate(table.nodes)}
        for marker in marker_set:
            src = node_index.get(marker.src)
            dst = node_index.get(marker.dst)
            if src is None or dst is None:
                self.unmapped.append(marker)
                continue
            pair = (src, dst)
            self._by_pair[pair] = marker
            if marker.merge_iterations > 1:
                self._counters[pair] = 0
                # reset the counter whenever the loop is (re-)entered
                self._reset_on_head.setdefault(src, []).append(pair)

    def watches(self, src: int, dst: int) -> bool:
        """Whether opening edge ``(src, dst)`` can fire a marker or reset
        a merged marker's counter; when not, :meth:`edge_opened` on it
        changes nothing and returns ``None``."""
        return (src, dst) in self._by_pair or dst in self._reset_on_head

    def edge_opened(self, src: int, dst: int) -> Optional[PhaseMarker]:
        """Returns the marker that fires on this edge opening, if any."""
        resets = self._reset_on_head.get(dst)
        if resets is not None:
            for pair in resets:
                self._counters[pair] = 0
        pair = (src, dst)
        marker = self._by_pair.get(pair)
        if marker is None:
            return None
        n = marker.merge_iterations
        if n <= 1:
            return marker
        count = self._counters[pair]
        self._counters[pair] = count + 1
        if count % n == 0:
            return marker
        return None


class _FiringCollector(ContextHandler):
    """Every marker firing of a walk, as ``(row, t, marker id)``."""

    def __init__(self, tracker: MarkerTracker, walker: ContextWalker):
        self.tracker = tracker
        self.walker = walker
        self.firings: List[Tuple[int, int, int]] = []

    def on_edge_open(
        self, src: int, dst: int, t: int, source: Optional[SourceLoc]
    ) -> None:
        marker = self.tracker.edge_opened(src, dst)
        if marker is not None:
            self.firings.append((self.walker.row, t, marker.marker_id))


def marker_firings_scalar(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Firings:
    """:func:`marker_firings` from a walk, one :class:`MarkerTracker`
    probe per edge open: the reference the gather must equal bit for
    bit, and the fallback for a trace the index cannot answer."""
    table = table or NodeTable(program)
    walker = ContextWalker(program, table)
    collector = _FiringCollector(MarkerTracker(marker_set, table), walker)
    walker.walk(trace, collector)
    return tuple(np.array(collector.firings, dtype=np.int64).reshape(-1, 3).T.copy())


def _gather(opens: EdgeOpens, marker_set: MarkerSet) -> Firings:
    """Each marker's opens (a merged marker's every Nth), sorted into the
    walker's open order by the key (row, an edge into a head node
    first): a row opens at most one edge into a head node and one
    other edge."""
    empty = np.zeros(0, dtype=np.int64)
    keys, ts, mids = [empty], [empty], [empty]
    for marker in marker_set:
        got = opens.of(marker.src, marker.dst, marker.merge_iterations)
        if got is not None:
            keys.append((got[0].astype(np.int64) + 1) * 2 + (not marker.dst.kind.is_head))
            ts.append(got[1])
            mids.append(np.full(len(got[1]), marker.marker_id, dtype=np.int64))
    keys = np.concatenate(keys)
    o = np.argsort(keys, kind="stable")
    return keys[o] // 2 - 1, np.concatenate(ts)[o], np.concatenate(mids)[o]


def indexed_firings(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Union[Firings, str]:
    """:func:`marker_firings` from *trace*'s span index (built and
    attached if missing), or the reason the index cannot answer: the
    builder's decline, or ``merged_head`` for a merged marker on an edge
    into a head node, whose every-Nth counter resets on opens into the
    edge's source, which the index does not count (selection merges
    only loop head->body edges)."""
    opens = index_trace(program, trace, table)
    if isinstance(opens, str):
        return opens
    if any(m.merge_iterations > 1 and m.dst.kind.is_head for m in marker_set):
        return "merged_head"
    return _gather(opens, marker_set)


def marker_firings(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Firings:
    """Every firing of *marker_set* in *trace*, uncollapsed, in the
    walker's open order.

    Gathered from the trace's span index (:func:`indexed_firings`); a
    trace the index cannot answer walks (:func:`marker_firings_scalar`).
    Under telemetry each call counts ``markers.firings.spans`` (answered
    from the index), ``markers.firings.index_builds`` (the call built
    the index) or ``markers.firings.fallback.<reason>`` (a walk).
    """
    tm = get_telemetry()
    if trace.opens is None:
        tm.counter("markers.firings.index_builds")
        table = table or NodeTable(program)  # shared with a declined trace's walk
    got = indexed_firings(program, trace, marker_set, table)
    if isinstance(got, str):
        tm.counter(f"markers.firings.fallback.{got}")
        return marker_firings_scalar(program, trace, marker_set, table)
    tm.counter("markers.firings.spans")
    return got
