"""Online phase monitoring over a live execution stream.

"The most obvious way to use software phase markers is to use them as
triggers for dynamic reconfiguration or optimization" (Section 5.3).
:class:`PhaseMonitor` is that trigger mechanism: it walks the event
stream *as the program runs* and calls back at every marker firing that
opens a new interval, with the phase id, the instruction count, and the
time spent in the previous phase.

Under an enabled telemetry session the monitor also exports a **phase
timeline** into the run's trace: every transition becomes a
``phase_change`` instant event, and every completed stay in a phase
becomes a dwell span on a per-phase lane (``phase <id>``), so the
Chrome-trace view shows phase occupancy as parallel tracks alongside the
pipeline's stage spans (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.callloop.graph import NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker, PhaseMarker
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine.machine import Machine
from repro.engine.tracing import packed_rows
from repro.ir.program import Program, ProgramInput, SourceLoc
from repro.telemetry import Histogram, get_telemetry
from repro.util.tables import Table


@dataclass(frozen=True)
class PhaseChange:
    """One observed phase transition."""

    t: int  #: dynamic instruction count at the transition
    previous_phase: int
    new_phase: int
    marker: PhaseMarker
    time_in_previous: int


class PhaseMonitor(ContextHandler):
    """Fires callbacks at phase changes while an event stream executes.

    Parameters
    ----------
    program / marker_set:
        The binary being run and the (possibly cross-compiled) markers.
    on_change:
        Called with each :class:`PhaseChange`.  Exceptions propagate —
        the monitor is the caller's control loop.
    min_interval:
        Suppress changes that would create an interval shorter than this
        many instructions (hysteresis against marker bursts; 0 = report
        every firing that changes the phase).
    """

    def __init__(
        self,
        program: Program,
        marker_set: MarkerSet,
        on_change: Optional[Callable[[PhaseChange], None]] = None,
        min_interval: int = 0,
    ):
        self.program = program
        self.table = NodeTable(program)
        self.tracker = MarkerTracker(marker_set, self.table)
        self.on_change = on_change
        self.min_interval = min_interval
        self.current_phase = 0
        self.phase_start_t = 0
        self.changes: List[PhaseChange] = []
        self.time_in_phase: Dict[int, int] = {}
        #: (phase, dwell) per completed stay in a phase, in order
        self.dwells: List[Tuple[int, int]] = []
        self._walker = ContextWalker(program, self.table)
        # phase-timeline export (set up in run() iff telemetry is on)
        self._tm = None
        self._phase_wall_ns = 0

    # -- ContextHandler ------------------------------------------------------

    def on_edge_open(
        self, src: int, dst: int, t: int, source: Optional[SourceLoc]
    ) -> None:
        marker = self.tracker.edge_opened(src, dst)
        if marker is None:
            return
        if marker.marker_id == self.current_phase:
            return
        if t - self.phase_start_t < self.min_interval:
            return
        change = PhaseChange(
            t=t,
            previous_phase=self.current_phase,
            new_phase=marker.marker_id,
            marker=marker,
            time_in_previous=t - self.phase_start_t,
        )
        self.time_in_phase[self.current_phase] = (
            self.time_in_phase.get(self.current_phase, 0) + change.time_in_previous
        )
        self.dwells.append((self.current_phase, change.time_in_previous))
        self.current_phase = marker.marker_id
        self.phase_start_t = t
        self.changes.append(change)
        if self._tm is not None:
            self._emit_phase_timeline(change)
        if self.on_change is not None:
            self.on_change(change)

    def _emit_phase_timeline(self, change: PhaseChange) -> None:
        """One transition's trace events: the dwell span for the phase
        just left (on its ``phase <id>`` lane) and a ``phase_change``
        instant at the transition itself."""
        tm = self._tm
        now = time.monotonic_ns()
        tm.emit_span(
            "phase.dwell",
            self._phase_wall_ns,
            now,
            tid=tm.lane(f"phase {change.previous_phase}"),
            phase=change.previous_phase,
            instructions=change.time_in_previous,
        )
        tm.instant(
            "phase_change",
            tid=tm.lane(f"phase {change.new_phase}"),
            previous_phase=change.previous_phase,
            new_phase=change.new_phase,
            marker=change.marker.marker_id,
            t=change.t,
        )
        self._phase_wall_ns = now

    # -- driving --------------------------------------------------------------

    def _reset_run_state(self) -> None:
        """Fresh per-run accounting: each :meth:`run` is independent."""
        self.current_phase = 0
        self.phase_start_t = 0
        self.changes = []
        self.time_in_phase = {}
        self.dwells = []
        self.tracker.reset()

    def run(self, events: Iterable) -> int:
        """Consume a live event stream to completion.

        Each call is an independent run: phase accounting (current
        phase, change list, dwell records, merged-marker counters) is
        reset on entry, so reusing a monitor never double-counts the
        previous stream.  Returns the total dynamic instructions
        observed and closes out the final phase's time accounting
        (including its dwell record).  If the stream — or an
        ``on_change`` callback — raises mid-walk, the exception
        propagates, but only after the accounting is closed at the last
        observed instruction count, so ``dwells`` still covers exactly
        what was seen.
        """
        tm = get_telemetry()
        self._reset_run_state()
        self._tm = tm if tm.enabled else None
        self._phase_wall_ns = time.monotonic_ns()
        walker = self._walker
        total: Optional[int] = None
        try:
            with tm.span("runtime.monitor", program=self.program.name):
                walker.start(self)
                walker.feed_packed(packed_rows(events))
                total = walker.finish()
                if self._tm is not None:
                    # close out the final phase's dwell track
                    tm.emit_span(
                        "phase.dwell",
                        self._phase_wall_ns,
                        time.monotonic_ns(),
                        tid=tm.lane(f"phase {self.current_phase}"),
                        phase=self.current_phase,
                        instructions=total - self.phase_start_t,
                    )
        finally:
            self._tm = None
            # Close the final dwell even on a mid-stream exception, at
            # the count the walker reached (the last processed row).
            end_t = total if total is not None else walker.t
            final_dwell = end_t - self.phase_start_t
            self.time_in_phase[self.current_phase] = (
                self.time_in_phase.get(self.current_phase, 0) + final_dwell
            )
            self.dwells.append((self.current_phase, final_dwell))
        if tm.enabled:
            tm.counter("callloop.walk.events", walker.row)
            tm.counter("callloop.walk.instructions", total)
            tm.counter("monitor.phase_changes", len(self.changes))
            for _, dwell in self.dwells:
                tm.observe("monitor.dwell_instructions", dwell)
        return total

    @property
    def phase_sequence(self) -> List[int]:
        """Phase ids in observation order (starting with phase 0)."""
        return [0] + [c.new_phase for c in self.changes]

    # -- dwell-time histogram -------------------------------------------------

    def dwell_histograms(self) -> Dict[int, Histogram]:
        """Per-phase histogram of dwell times (instructions spent in the
        phase per visit), in power-of-two instruction-count buckets."""
        hists: Dict[int, Histogram] = {}
        for phase, dwell in self.dwells:
            hist = hists.get(phase)
            if hist is None:
                hist = hists[phase] = Histogram()
            hist.observe(dwell)
        return hists

    def dwell_table(self) -> Table:
        """The per-phase dwell-time histogram as a report table."""
        table = Table(
            "Per-phase dwell-time histogram (instructions per visit)",
            ["phase", "dwell bucket", "visits"],
        )
        hists = self.dwell_histograms()
        for phase in sorted(hists):
            for label, count in hists[phase].rows():
                table.add_row([phase, label, count])
        return table


def monitor_run(
    program: Program,
    program_input: ProgramInput,
    marker_set: MarkerSet,
    on_change: Optional[Callable[[PhaseChange], None]] = None,
    min_interval: int = 0,
) -> PhaseMonitor:
    """Execute *program* under a :class:`PhaseMonitor`; returns the monitor."""
    monitor = PhaseMonitor(program, marker_set, on_change, min_interval)
    monitor.run(Machine(program, program_input).run())
    return monitor
