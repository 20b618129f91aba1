"""Variable-length interval splitting at phase-marker executions.

"Whenever a marker occurs during execution, that is a start of a new
interval" (paper Section 6.2).  Each VLI carries the phase id of the
marker that opened it; the prologue before the first firing is phase 0.

Several markers can fire at the same instruction count (e.g. entering a
marked loop whose first call site is also marked); they would create
zero-length intervals, so coincident firings collapse to the innermost
(last) marker — the phase id of the non-empty interval that follows.

Markers are *rare* by the paper's own design (Section 6.2 picks
procedure-level edges), so applying them should cost the number of
firings, not the length of the trace.  The split gathers them from the
trace's span index (:class:`~repro.callloop.spans.EdgeOpens`,
``trace.opens``): every edge's opens, as rows and instruction counts,
with where a merged marker's every-Nth counter restarts — recorded once
per trace by the span builder.  The profile's builder pass attaches the
index, the trace store spills it with the columns, and a split of a
trace without one builds it once.  Each marker takes its edge's opens
(a merged marker every Nth of them); the firings are ordered by (row,
an edge into a head node first), collapsed, and finalized.

The per-event :func:`split_at_markers_scalar` is the reference and the
fallback for a trace the span builder declines; the ``split`` verify
check pins the index path against it on every fuzz iteration and
corpus workload.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.callloop.graph import NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker
from repro.callloop.spans import EdgeOpens, index_trace
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine.tracing import Trace
from repro.intervals.base import IntervalSet
from repro.ir.program import Program, SourceLoc
from repro.telemetry import get_telemetry


class _BoundaryCollector(ContextHandler):
    """Collects (row, t, phase_id) for every marker firing.

    The per-event form: one marker-table probe per edge open, the side
    :func:`split_at_markers_scalar` walks with.
    """

    def __init__(self, tracker: MarkerTracker, walker: ContextWalker):
        self.tracker = tracker
        self.walker = walker
        self.boundaries: List[Tuple[int, int, int]] = []
        # Without merge_iterations counters, edge_opened is a pure pair
        # lookup — inline it on the hot path.
        self._by_pair = tracker._by_pair if not tracker._counters else None

    def on_edge_open(
        self, src: int, dst: int, t: int, source: Optional[SourceLoc]
    ) -> None:
        by_pair = self._by_pair
        if by_pair is not None:
            marker = by_pair.get((src, dst))
        else:
            marker = self.tracker.edge_opened(src, dst)
        if marker is None:
            return
        boundaries = self.boundaries
        if boundaries and boundaries[-1][1] == t:
            # coincident firing: keep the innermost marker, no empty interval
            boundaries[-1] = (boundaries[-1][0], t, marker.marker_id)
        else:
            boundaries.append((self.walker.row, t, marker.marker_id))


def _gather(opens: EdgeOpens, marker_set: MarkerSet) -> List[Tuple[int, int, int]]:
    """The collapsed ``(row, t, phase id)`` firings of *marker_set*.

    Each marker's opens come from the index.  Sorted
    by (row, an edge into a head node first) they are in the walker's
    open order, and an equal-t run collapses as
    :class:`_BoundaryCollector` collapses it: the first row, the last
    (innermost) marker.
    """
    rows: List[np.ndarray] = []
    keys: List[np.ndarray] = []
    ts: List[np.ndarray] = []
    mids: List[np.ndarray] = []
    for marker in marker_set:
        got = opens.of(marker.src, marker.dst, marker.merge_iterations)
        if got is None:
            continue
        r, t = got
        rows.append(r)
        keys.append((r.astype(np.int64) + 1) * 2 + (0 if marker.dst.kind.is_head else 1))
        ts.append(t)
        mids.append(np.full(len(r), marker.marker_id, dtype=np.int64))
    if not rows:
        return []
    o = np.argsort(np.concatenate(keys), kind="stable")
    r = np.concatenate(rows)[o]
    t = np.concatenate(ts)[o]
    m = np.concatenate(mids)[o]
    first = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    last = np.r_[first[1:], len(t)] - 1
    return list(zip(r[first].tolist(), t[first].tolist(), m[last].tolist()))


def _finalize(
    program: Program,
    num_rows: int,
    total: int,
    bounds: List[Tuple[int, int, int]],
) -> IntervalSet:
    """Turn a collapsed boundary list into the :class:`IntervalSet`.

    Applies the rules shared by every split path: firings at
    t == 0 set the first interval's phase id and drop (the prologue
    would be empty), and a firing exactly at end of execution drops its
    empty tail interval.
    """
    # Drop firings at t == 0 by advancing an index — re-slicing the list
    # per firing was quadratic when many coincident t==0 firings piled up.
    first_phase = 0
    i = 0
    n = len(bounds)
    while i < n and bounds[i][1] == 0:
        first_phase = bounds[i][2]
        i += 1
    if i:
        bounds = bounds[i:]

    rows = np.array([0] + [b[0] for b in bounds] + [num_rows], dtype=np.int64)
    start_ts = np.array([0] + [b[1] for b in bounds], dtype=np.int64)
    ends = np.concatenate((start_ts[1:], [total]))
    lengths = (ends - start_ts).astype(np.int64)
    phase_ids = np.array([first_phase] + [b[2] for b in bounds], dtype=np.int64)

    # A marker can fire exactly at end of execution; drop the empty tail.
    if len(lengths) > 1 and lengths[-1] == 0:
        rows = np.concatenate((rows[:-2], rows[-1:]))
        start_ts = start_ts[:-1]
        lengths = lengths[:-1]
        phase_ids = phase_ids[:-1]

    return IntervalSet(program.name, "vli", rows, start_ts, lengths, phase_ids)


#: the fallback reason for a merged marker on an edge into a head node:
#: its every-Nth counter resets on opens into the edge's source, which
#: the index does not count (selection merges only loop head->body edges)
_MERGED_HEAD = "merged_head"


def _indexed(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable],
) -> Union[IntervalSet, str]:
    """The split gathered from *trace*'s span index (built and attached
    if missing), or the reason it cannot be."""
    opens = index_trace(program, trace, table)
    if isinstance(opens, str):
        return opens
    if any(m.merge_iterations > 1 and m.dst.kind.is_head for m in marker_set):
        return _MERGED_HEAD
    return _finalize(program, len(trace), opens.total, _gather(opens, marker_set))


def split_at_markers_prescan(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Optional[IntervalSet]:
    """The split from the span index, or ``None`` if the span builder
    declines the trace (or a merged marker sits on an edge into a head
    node).

    The name is historical: the index replaced the pre-scan this probe
    once ran.  The verify harness and the benchmark tracer probe it to
    tell whether a split was answered from the index.
    """
    got = _indexed(program, trace, marker_set, table)
    return None if isinstance(got, str) else got


def split_at_markers_scalar(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """Marker application through per-event callbacks — the reference.

    One marker-table probe per edge open of a walk: the implementation
    the ``split`` verify check pins the index split against, the split
    of a trace the span builder declines, and the baseline side of
    ``make bench-split``.
    """
    table = table or NodeTable(program)
    walker = ContextWalker(program, table)
    tracker = MarkerTracker(marker_set, table)
    collector = _BoundaryCollector(tracker, walker)
    total = walker.walk(trace, collector)
    return _finalize(program, len(trace), total, collector.boundaries)


def split_at_markers(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """Partition *trace* into VLIs at the executions of *marker_set*.

    Gathers the firings from the trace's span index, building it first
    if the trace has none; a trace the span builder declines takes
    :func:`split_at_markers_scalar`, whose result the index split
    equals (the ``split`` verify check pins this).  Under telemetry it
    counts ``vli.split.spans`` (an indexed split),
    ``vli.split.index_builds`` (the split built the index) and
    ``vli.split.fallback.<reason>`` (a decline).
    """
    tm = get_telemetry()
    if not tm.enabled:
        return _split(program, trace, marker_set, table)
    with tm.span("vli.split", program=program.name):
        if trace.opens is None:
            tm.counter("vli.split.index_builds")
        result = _split(program, trace, marker_set, table)
        tm.counter("vli.split.intervals", len(result.lengths))
    return result


def _split(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable],
) -> IntervalSet:
    if trace.opens is None and table is None:
        table = NodeTable(program)  # shared with a declined trace's walk
    got = _indexed(program, trace, marker_set, table)
    tm = get_telemetry()
    if not isinstance(got, str):
        if tm.enabled:
            tm.counter("vli.split.spans")
        return got
    if tm.enabled:
        tm.counter(f"vli.split.fallback.{got}")
    return split_at_markers_scalar(program, trace, marker_set, table)
