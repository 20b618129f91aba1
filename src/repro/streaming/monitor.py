"""Online phase detection with bounded memory and rolling re-selection.

The paper selects markers offline from a complete trace, but its killer
application is *runtime* reconfiguration (Section 5.3), which means
phase detection has to run against a live stream — bounded memory,
O(1) amortized per-event cost, and markers that adapt when behavior
drifts.

:class:`StreamingPhaseMonitor` composes the pieces:

* the batch :class:`~repro.callloop.walker.ContextWalker`, started once
  with the monitor as its handler, consumes packed rows chunk by chunk
  (the same columns a recorded ``Trace`` stores), each chunk through
  its bulk row loop or, when short, its scalar loop, and reports edge
  spans only;
* every closed edge span folds into a :class:`~repro.streaming.window.
  StreamingWindow` slot of exact integer moments — a back-edge run on
  an edge no marker watches folds in as one batch; slots seal every
  ``slot_instructions`` instructions, cut at the block row that reaches
  the boundary, and only the newest ``window_slots`` are retained;
* the current :class:`~repro.callloop.markers.MarkerSet` is applied
  online: a :class:`~repro.callloop.markers.MarkerTracker` matches each
  edge open, and each firing goes to the
  :class:`~repro.runtime.monitor.PhaseLog` — the hysteresis and dwell
  accounting the batch :class:`~repro.runtime.monitor.PhaseMonitor`
  feeds from the span index;
* when ``drift_threshold`` is set, each slot seal runs the
  :class:`~repro.streaming.drift.DriftDetector` over the windowed CoV
  of the marker edges and, on drift (or when no markers exist yet —
  cold start), re-selects markers from the windowed graph with
  :func:`~repro.callloop.selection.select_markers` and hot-swaps the
  tracker.

**Batch-equivalence guarantee:** with an unbounded window
(``window_slots=0``) and drift disabled (``drift_threshold=None``),
the windowed graph after :meth:`finish` — and therefore
:meth:`select_now` — is bit-identical to the batch
``profile_trace`` + ``select_markers`` path, and the phase-change
sequence matches the batch monitor's exactly.  The ``streaming`` verify
check pins this on every fuzz iteration and across the golden corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.callloop.graph import CallLoopGraph, NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker
from repro.callloop.selection import SelectionParams, SelectionResult, select_markers
from repro.callloop.walker import ContextHandler, ContextWalker, chunk_length
from repro.engine.events import K_BLOCK
from repro.engine.tracing import DEFAULT_CHUNK_ROWS, Trace
from repro.ir.program import Program, SourceLoc
from repro.runtime.monitor import PhaseChange, PhaseLog, PhaseLogView
from repro.streaming.drift import DriftDetector
from repro.streaming.window import StreamingWindow
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs for one streaming session.

    ``drift_threshold=None`` disables rolling re-selection entirely (the
    marker set given at construction is applied unchanged — the
    batch-equivalence configuration); a float enables it, both for CoV
    drift on the current marker edges and for cold-start pickup when the
    session begins with no markers.
    """

    #: instructions per window slot (seal granularity)
    slot_instructions: int = 100_000
    #: sealed slots retained; 0 = unbounded (keep everything)
    window_slots: int = 0
    #: absolute CoV delta that triggers re-selection; None = disabled
    drift_threshold: Optional[float] = None
    #: phase-change hysteresis, as in the batch monitor
    min_interval: int = 0
    #: observations a marker edge needs in-window before its CoV counts
    min_edge_count: int = 2
    #: selection parameters for (re-)selection from the windowed graph
    selection: SelectionParams = field(default_factory=SelectionParams)

    def __post_init__(self) -> None:
        if self.slot_instructions < 1:
            raise ValueError(
                f"slot_instructions must be >= 1, got {self.slot_instructions}"
            )
        if self.window_slots < 0:
            raise ValueError(
                f"window_slots must be >= 0, got {self.window_slots}"
            )
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
        if self.min_interval < 0:
            raise ValueError(
                f"min_interval must be >= 0, got {self.min_interval}"
            )
        if self.min_edge_count < 1:
            raise ValueError(
                f"min_edge_count must be >= 1, got {self.min_edge_count}"
            )


@dataclass(frozen=True)
class Reselection:
    """One rolling re-selection event."""

    t: int  #: instruction count at the triggering slot seal
    slot: int  #: ordinal of the sealed slot that triggered it
    num_markers: int  #: markers in the new set
    drifted_edges: int  #: marker edges that drifted (0 = cold-start pickup)


class StreamingPhaseMonitor(ContextHandler, PhaseLogView):
    """Applies (and adapts) a marker set over a live packed-row stream.

    Parameters
    ----------
    program:
        The binary being streamed.
    marker_set:
        Initial markers; ``None`` starts cold (phase stays 0 until the
        first re-selection picks markers up — requires
        ``drift_threshold``).
    config:
        :class:`StreamingConfig`; defaults to an unbounded window with
        re-selection disabled.
    on_change:
        Called with each :class:`~repro.runtime.monitor.PhaseChange`;
        exceptions propagate.

    Feed with :meth:`feed_rows` (packed column chunks) or
    :meth:`feed_trace`; call :meth:`finish` when the stream ends.
    Memory is bounded by the window (``window_slots`` slot maps, each at
    most one entry per call-loop edge) plus the shadow stack; per-event
    cost is O(1) amortized — slot seals and re-selections are rare and
    touch only window-resident state.
    """

    def __init__(
        self,
        program: Program,
        marker_set: Optional[MarkerSet] = None,
        config: Optional[StreamingConfig] = None,
        on_change: Optional[Callable[[PhaseChange], None]] = None,
        table: Optional[NodeTable] = None,
    ):
        self.program = program
        self.config = config or StreamingConfig()
        self.table = table or NodeTable(program)
        if marker_set is None:
            marker_set = MarkerSet(
                program.name, program.variant, self.config.selection.ilower, None
            )
        self.marker_set = marker_set
        self.tracker = MarkerTracker(marker_set, self.table)
        self.log = PhaseLog(self.config.min_interval, on_change)
        self.window = StreamingWindow(self.config.window_slots)
        self.reselections: List[Reselection] = []
        #: marker-edge drift observations (edges over threshold at a seal)
        self.drift_events = 0
        self.slots_sealed = 0
        self.events_fed = 0
        self._drift = (
            DriftDetector(self.config.drift_threshold)
            if self.config.drift_threshold is not None
            else None
        )
        self._next_slot_t = self.config.slot_instructions
        tm = get_telemetry()
        self._tm = tm if tm.enabled else None
        # last: starting the walk fires the entry-edge opens into this handler
        self._walker = ContextWalker(program, self.table)
        self._walker.start(self)

    # -- ContextHandler -------------------------------------------------------

    def on_edge_open(
        self, src: int, dst: int, t: int, source: Optional[SourceLoc]
    ) -> None:
        marker = self.tracker.edge_opened(src, dst)
        if marker is not None:
            self.log.fire(marker, t)

    def on_edge_close(
        self,
        src: int,
        dst: int,
        t_open: int,
        t_close: int,
        source: Optional[SourceLoc],
    ) -> None:
        self.window.live.on_edge_close(src, dst, t_open, t_close, source)

    def on_edge_iterations(
        self,
        head: int,
        body: int,
        t_prev: int,
        ts: np.ndarray,
        source: Optional[SourceLoc],
    ) -> None:
        if not self.tracker.watches(head, body):
            self.window.live.on_edge_iterations(head, body, t_prev, ts, source)
            return
        # A marker edge: every opening advances the every-Nth cadence
        # and may change phase under hysteresis, so replay per iteration.
        prev = t_prev
        for t in ts.tolist():
            self.on_edge_close(head, body, prev, t, source)
            self.on_edge_open(head, body, t, source)
            prev = t

    # -- windowing + re-selection ---------------------------------------------

    def _seal_through(self, t: int) -> None:
        """Seal every slot whose boundary the instruction count *t* has
        reached (a long block can cross several)."""
        while t >= self._next_slot_t:
            self._next_slot_t += self.config.slot_instructions
            self._seal_slot(t)

    def _seal_slot(self, t: int) -> None:
        evicted = self.window.seal()
        self.slots_sealed += 1
        tm = self._tm
        if tm is not None:
            tm.counter("streaming.slots_sealed")
            if evicted:
                tm.counter("streaming.slots_evicted", evicted)
        if self._drift is None:
            return
        if not self.marker_set.markers:
            # cold start: keep trying until the window yields markers
            self._reselect(t, drifted=0)
            return
        covs = self._marker_covs()
        # marker edges joining the watch list (initial marker set, or
        # reaching min_edge_count late) baseline at first sighting
        self._drift.extend(covs)
        drifted = self._drift.check(covs)
        if not drifted:
            return
        self.drift_events += len(drifted)
        if tm is not None:
            tm.counter("streaming.drift_events", len(drifted))
            tm.instant(
                "streaming.drift",
                tid=tm.lane("streaming"),
                t=t,
                slot=self.slots_sealed,
                edges=len(drifted),
            )
        self._reselect(t, drifted=len(drifted))

    def _marker_pairs(self) -> List[Tuple[int, int]]:
        """The current marker edges as node-id pairs (tracker mapping)."""
        return list(self.tracker._by_pair.keys())

    def _marker_covs(self) -> Dict[Tuple[int, int], float]:
        """Windowed CoV per marker edge with enough observations."""
        moments = self.window.merged_moments(self._marker_pairs())
        return {
            pair: ms.to_running_stats().cov
            for pair, ms in moments.items()
            if ms.count >= self.config.min_edge_count
        }

    def _reselect(self, t: int, drifted: int) -> None:
        result = self.select_now()
        new_set = result.markers
        if not new_set.markers and not self.marker_set.markers:
            return  # still cold: nothing to pick up yet
        self.marker_set = new_set
        self.tracker = MarkerTracker(new_set, self.table)
        self._drift.rebase(self._marker_covs())
        event = Reselection(
            t=t,
            slot=self.slots_sealed,
            num_markers=len(new_set.markers),
            drifted_edges=drifted,
        )
        self.reselections.append(event)
        tm = self._tm
        if tm is not None:
            tm.counter("streaming.reselections")
            tm.instant(
                "streaming.reselection",
                tid=tm.lane("streaming"),
                t=t,
                slot=event.slot,
                markers=event.num_markers,
                drifted=drifted,
            )

    def window_graph(self) -> CallLoopGraph:
        """The call-loop graph of the window's merged moments.

        Slot maps merge in arrival order, so with an unbounded window
        this graph — edge order included — is bit-identical to the
        batch profile of the same stream (see
        :mod:`repro.streaming.window`).
        """
        graph = CallLoopGraph(self.program.name, self.program.variant)
        nodes = self.table.nodes
        for (src, dst), entry in self.window.merged_edges().items():
            edge = graph.edge(nodes[src], nodes[dst])
            edge.stats = edge.stats.merge(entry[0].to_running_stats())
            edge.site_sources |= entry[1]
        graph.total_instructions += self._walker.t
        return graph

    def select_now(self) -> SelectionResult:
        """Run marker selection on the current windowed graph."""
        return select_markers(self.window_graph(), self.config.selection)

    # -- feeding --------------------------------------------------------------

    def feed(self, kind: int, a: int, b: int, c: int) -> None:
        """Feed one packed row."""
        walker = self._walker
        walker.feed(kind, a, b, c)
        if walker.t >= self._next_slot_t:
            self._seal_through(walker.t)
        self.events_fed += 1

    def feed_rows(self, kinds, a, b, c) -> None:
        """Feed one packed-row column chunk.

        The walker replays the chunk in bulk.  A slot seals right after
        the block row whose instruction count reaches the slot boundary,
        exactly where row-at-a-time :meth:`feed` seals it: the chunk's
        block-size ``cumsum`` locates each such row, the walker is fed
        up to and including it, the slot seals (possibly re-selecting
        markers), and feeding continues after it.  Raises ``ValueError``
        before any state changes unless the four columns have equal
        lengths.
        """
        n = chunk_length(kinds, a, b, c)
        walker = self._walker
        if walker.finished:
            raise RuntimeError("monitor already finished; cannot feed rows")
        t_after = walker.t + np.cumsum(np.where(kinds == K_BLOCK, c, 0))
        start = 0
        while True:
            # first row whose count reaches the boundary: always a block
            stop = int(np.searchsorted(t_after, self._next_slot_t)) + 1
            if stop > n:
                break
            walker.feed_rows(kinds[start:stop], a[start:stop], b[start:stop], c[start:stop])
            self._seal_through(int(t_after[stop - 1]))
            start = stop
        if start < n:
            walker.feed_rows(kinds[start:], a[start:], b[start:], c[start:])
        self.events_fed += n

    def feed_trace(self, trace: Trace, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        """Feed a recorded trace chunk-wise (testing / replay driver)."""
        for chunk in trace.iter_chunks(chunk_rows):
            self.feed_rows(*chunk)

    def finish(self) -> int:
        """End the stream: unwind, seal the trailing partial slot, close
        out the final dwell; returns total dynamic instructions."""
        total = self._walker.finish()
        if self.window.current:
            # trailing partial slot: sealed for accounting, but no
            # re-selection — the stream is over
            self.window.seal()
            self.slots_sealed += 1
        self.log.close(total)
        tm = self._tm
        if tm is not None:
            tm.counter("streaming.events", self.events_fed)
            tm.counter("streaming.instructions", total)
            tm.counter("streaming.phase_changes", len(self.changes))
        return total

    @property
    def finished(self) -> bool:
        return self._walker.finished


def stream_trace(
    program: Program,
    trace: Trace,
    marker_set: Optional[MarkerSet] = None,
    config: Optional[StreamingConfig] = None,
    on_change: Optional[Callable[[PhaseChange], None]] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> StreamingPhaseMonitor:
    """Drive a recorded trace through a streaming monitor chunk-wise."""
    monitor = StreamingPhaseMonitor(program, marker_set, config, on_change)
    monitor.feed_trace(trace, chunk_rows)
    monitor.finish()
    return monitor
