"""Phase monitoring: phase-change callbacks over a run's marker firings.

"The most obvious way to use software phase markers is to use them as
triggers for dynamic reconfiguration or optimization" (Section 5.3).
:class:`PhaseMonitor` is that trigger mechanism: over a recorded run's
marker firings it calls back at every firing that opens a new
interval, with the phase id, the instruction count, and the time spent
in the previous phase.

:class:`PhaseLog` holds the phase hysteresis and dwell accounting, and
it is the one copy of them: :class:`PhaseMonitor` feeds it the firings
:func:`~repro.callloop.markers.marker_firings` gathers from the trace's
span index, and :class:`~repro.streaming.StreamingPhaseMonitor` feeds
it each firing as a live stream produces it.

Under an enabled telemetry session :class:`PhaseMonitor` also exports a
**phase timeline** into the run's trace: every transition becomes a
``phase_change`` instant event, and every completed stay in a phase
becomes a dwell span on a per-phase lane (``phase <id>``).  The dwell
spans tile the monitor's pass over the firings (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.callloop.graph import NodeTable
from repro.callloop.markers import MarkerSet, PhaseMarker, marker_firings
from repro.callloop.spans import trace_total
from repro.engine.machine import Machine
from repro.engine.tracing import Trace, record_trace
from repro.ir.program import Program, ProgramInput
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


class PhaseLog:
    """Phase hysteresis and dwell accounting over marker firings.

    :meth:`fire` takes the firings in order.  A firing of the current
    phase's marker changes nothing, and neither does one less than
    ``min_interval`` instructions into the current phase (hysteresis
    against marker bursts; 0 = report every firing that changes the
    phase).  Any other firing records a :class:`PhaseChange`, closes
    the dwell of the phase it leaves and calls ``on_change``, whose
    exceptions propagate.  :meth:`close` ends the last dwell.
    """

    def __init__(
        self,
        min_interval: int = 0,
        on_change: Optional[Callable[[PhaseChange], None]] = None,
    ):
        self.min_interval = min_interval
        self.on_change = on_change
        self.current_phase = 0
        self.phase_start_t = 0
        self.changes: List[PhaseChange] = []
        self.time_in_phase: Dict[int, int] = {}
        #: (phase, dwell) per completed stay in a phase, in order
        self.dwells: List[Tuple[int, int]] = []

    def fire(self, marker: PhaseMarker, t: int) -> None:
        """*marker* fired at instruction count *t*."""
        dwell = t - self.phase_start_t
        if marker.marker_id == self.current_phase or dwell < self.min_interval:
            return
        change = PhaseChange(t, self.current_phase, marker.marker_id, marker, dwell)
        self._dwell(dwell)
        self.current_phase = marker.marker_id
        self.phase_start_t = t
        self.changes.append(change)
        if self.on_change is not None:
            self.on_change(change)

    def close(self, t: int) -> None:
        """End the current phase's dwell at instruction count *t*."""
        self._dwell(t - self.phase_start_t)

    def _dwell(self, dwell: int) -> None:
        phase = self.current_phase
        self.time_in_phase[phase] = self.time_in_phase.get(phase, 0) + dwell
        self.dwells.append((phase, dwell))

    @property
    def phase_sequence(self) -> List[int]:
        """Phase ids in observation order (starting with phase 0)."""
        return [0] + [c.new_phase for c in self.changes]


class PhaseLogView:
    """A monitor's accounting, read off its :class:`PhaseLog` (``log``)."""

    log: PhaseLog

    @property
    def changes(self) -> List[PhaseChange]:
        return self.log.changes

    @property
    def dwells(self) -> List[Tuple[int, int]]:
        return self.log.dwells

    @property
    def time_in_phase(self) -> Dict[int, int]:
        return self.log.time_in_phase

    @property
    def phase_sequence(self) -> List[int]:
        return self.log.phase_sequence


class PhaseMonitor(PhaseLogView):
    """Fires callbacks at phase changes over a recorded run.

    Parameters
    ----------
    program / marker_set:
        The binary that ran and the (possibly cross-compiled) markers.
    on_change:
        Called with each :class:`PhaseChange`.  Exceptions propagate —
        the monitor is the caller's control loop.
    min_interval:
        :class:`PhaseLog`'s hysteresis: suppress changes that would
        create an interval shorter than this many instructions.

    Each :meth:`run` fills a fresh :class:`PhaseLog`; ``changes``,
    ``dwells``, ``time_in_phase`` and ``phase_sequence`` read the last
    run's.
    """

    def __init__(
        self,
        program: Program,
        marker_set: MarkerSet,
        on_change: Optional[Callable[[PhaseChange], None]] = None,
        min_interval: int = 0,
    ):
        self.program = program
        self.marker_set = marker_set
        self.table = NodeTable(program)
        self.on_change = on_change
        self.min_interval = min_interval
        self.log = PhaseLog(min_interval)
        # phase-timeline export (set up in run() iff telemetry is on)
        self._tm = None
        self._phase_wall_ns = 0

    def _changed(self, change: PhaseChange) -> None:
        tm = self._tm
        if tm is not None:
            # the phase just left gets its dwell span, the transition an
            # instant on the new phase's lane
            self._dwell_span(change.previous_phase, change.time_in_previous)
            tm.instant(
                "phase_change",
                tid=tm.lane(f"phase {change.new_phase}"),
                previous_phase=change.previous_phase,
                new_phase=change.new_phase,
                marker=change.marker.marker_id,
                t=change.t,
            )
        if self.on_change is not None:
            self.on_change(change)

    def _dwell_span(self, phase: int, instructions: int) -> None:
        """A ``phase <id>`` lane's span for a phase visit ending now."""
        now = time.monotonic_ns()
        self._tm.emit_span(
            "phase.dwell",
            self._phase_wall_ns,
            now,
            tid=self._tm.lane(f"phase {phase}"),
            phase=phase,
            instructions=instructions,
        )
        self._phase_wall_ns = now

    def run(self, trace: Trace) -> int:
        """Monitor the recorded run *trace*; returns its total dynamic
        instructions.

        The firings come from
        :func:`~repro.callloop.markers.marker_firings`.  Each call is an
        independent run on a fresh :class:`PhaseLog`, whose last dwell
        closes at the end of the trace.  If ``on_change`` raises, the
        exception propagates after the accounting is closed at that
        firing's instruction count, so ``dwells`` covers exactly what
        was seen.
        """
        tm = get_telemetry()
        log = self.log = PhaseLog(self.min_interval, self._changed)
        by_id = {m.marker_id: m for m in self.marker_set}
        with tm.span("runtime.monitor", program=self.program.name):
            _, ts, mids = marker_firings(
                self.program, trace, self.marker_set, self.table
            )
            total = trace_total(trace)
            self._tm = tm if tm.enabled else None
            self._phase_wall_ns = time.monotonic_ns()
            t = 0
            try:
                for t, mid in zip(ts.tolist(), mids.tolist()):
                    log.fire(by_id[mid], t)
                t = total
                if self._tm is not None:
                    self._dwell_span(log.current_phase, total - log.phase_start_t)
            finally:
                self._tm = None
                log.close(t)
        tm.counter("monitor.phase_changes", len(log.changes))
        for _, dwell in log.dwells:
            tm.observe("monitor.dwell_instructions", dwell)
        return total

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
    """Record *program* on *program_input* and run a
    :class:`PhaseMonitor` over the trace; returns the monitor."""
    monitor = PhaseMonitor(program, marker_set, on_change, min_interval)
    monitor.run(record_trace(Machine(program, program_input)))
    return monitor
