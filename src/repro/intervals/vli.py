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
firings, not the length of the trace.  The split takes the firings from
:func:`~repro.callloop.markers.marker_firings`, which gathers them from
the trace's span index (:class:`~repro.callloop.spans.EdgeOpens`,
``trace.opens``), then collapses and finalizes them.  The profile's
builder pass attaches the index, the trace store spills it with the
row ids, and a split of a trace without one builds it once.

:func:`split_at_markers_scalar` collapses and finalizes the walk
collector's firings instead — the reference the ``split`` verify check
pins the index split against on every fuzz iteration and corpus
workload.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.callloop.graph import NodeTable
from repro.callloop.markers import (
    Firings,
    MarkerSet,
    indexed_firings,
    marker_firings,
    marker_firings_scalar,
)
from repro.callloop.spans import trace_total
from repro.engine.tracing import Trace
from repro.intervals.base import IntervalSet
from repro.ir.program import Program
from repro.telemetry import get_telemetry


def _finalize(
    program: Program, num_rows: int, total: int, firings: Firings
) -> IntervalSet:
    """Turn the firings into the :class:`IntervalSet`.

    An equal-t run of firings collapses to its first row and its last
    (innermost) marker.  A firing at t == 0 then sets the first
    interval's phase id and drops (the prologue would be empty), and a
    firing exactly at end of execution drops its empty tail interval.
    """
    rows, ts, mids = firings
    first = np.ones(len(ts), dtype=bool)
    first[1:] = ts[1:] != ts[:-1]
    last = np.roll(first, -1)  # the next firing starts a run, or none follows
    rows, ts, mids = rows[first], ts[first], mids[last]
    first_phase = 0
    if len(ts) and ts[0] == 0:
        first_phase = int(mids[0])
        rows, ts, mids = rows[1:], ts[1:], mids[1:]

    rows = np.concatenate(([0], rows, [num_rows])).astype(np.int64)
    start_ts = np.concatenate(([0], ts)).astype(np.int64)
    lengths = np.diff(start_ts, append=total)
    phase_ids = np.concatenate(([first_phase], mids)).astype(np.int64)

    # A marker can fire exactly at end of execution; drop the empty tail.
    if len(lengths) > 1 and lengths[-1] == 0:
        rows = np.concatenate((rows[:-2], rows[-1:]))
        start_ts = start_ts[:-1]
        lengths = lengths[:-1]
        phase_ids = phase_ids[:-1]

    return IntervalSet(program.name, "vli", rows, start_ts, lengths, phase_ids)


def split_at_markers_prescan(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Optional[IntervalSet]:
    """The split from the span index, or ``None`` if the index cannot
    answer (the span builder declines the trace, or a merged marker sits
    on an edge into a head node).

    The name is historical: the index replaced the pre-scan this probe
    once ran.  The verify harness and the benchmark tracer probe it to
    tell whether a split was answered from the index.
    """
    got = indexed_firings(program, trace, marker_set, table)
    if isinstance(got, str):
        return None
    return _finalize(program, len(trace), trace.opens.total, got)


def split_at_markers_scalar(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """The split of the walk collector's firings
    (:func:`~repro.callloop.markers.marker_firings_scalar`) — the one
    reference the ``split`` verify check pins the index split against,
    and the split behind the committed pipeline digests
    (``perfbench/make_refs.py``) that the benchmarks check."""
    firings = marker_firings_scalar(program, trace, marker_set, table)
    return _finalize(program, len(trace), trace.total_instructions, firings)


def split_at_markers(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """Partition *trace* into VLIs at the executions of *marker_set*.

    The firings come from
    :func:`~repro.callloop.markers.marker_firings` (the span index, or a
    walk for a trace the index cannot answer, counted as
    ``markers.firings.*``); under telemetry the split is a ``vli.split``
    span that counts ``vli.split.intervals``.
    """
    tm = get_telemetry()
    with tm.span("vli.split", program=program.name):
        firings = marker_firings(program, trace, marker_set, table)
        result = _finalize(program, len(trace), trace_total(trace), firings)
        tm.counter("vli.split.intervals", len(result.lengths))
    return result
