"""Unit tests for the online phase monitor."""

import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.engine import Machine
from repro.intervals import split_at_markers
from repro.engine.tracing import record_trace
from repro.runtime import PhaseMonitor, monitor_run


@pytest.fixture
def toy_markers(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    return select_markers(graph, SelectionParams(ilower=500)).markers


def test_callback_invoked_per_change(toy_program, toy_input, toy_markers):
    seen = []
    monitor_run(toy_program, toy_input, toy_markers, on_change=seen.append)
    assert seen
    assert all(c.new_phase != c.previous_phase for c in seen)


def test_changes_match_offline_vli(toy_program, toy_input, toy_markers):
    """Online monitoring and offline VLI splitting see the same phases."""
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    trace = record_trace(Machine(toy_program, toy_input).run())
    intervals = split_at_markers(toy_program, trace, toy_markers)
    online_phases = [c.new_phase for c in monitor.changes]
    offline_phases = [
        int(p) for p in intervals.phase_ids if p != 0
    ]
    # offline collapses coincident firings; online reports each distinct
    # phase change — the offline sequence must be a subsequence of online
    it = iter(online_phases)
    assert all(p in it for p in offline_phases) or online_phases == offline_phases


def test_time_accounting_sums_to_total(toy_program, toy_input, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    total = monitor.run(Machine(toy_program, toy_input).run())
    assert sum(monitor.time_in_phase.values()) == total


def test_min_interval_suppresses_bursts(toy_program, toy_input, toy_markers):
    eager = monitor_run(toy_program, toy_input, toy_markers, min_interval=0)
    lazy = monitor_run(toy_program, toy_input, toy_markers, min_interval=2000)
    assert len(lazy.changes) <= len(eager.changes)
    assert all(c.time_in_previous >= 2000 for c in lazy.changes)


def test_hysteresis_does_not_rewind_merged_cadence(
    toy_program, toy_input, toy_markers
):
    """min_interval suppression must not reset every-Nth counters: each
    reported change still lands on a raw tracker firing point."""
    import dataclasses

    from repro.callloop.graph import NodeKind, NodeTable
    from repro.callloop.markers import MarkerSet, MarkerTracker
    from repro.callloop.walker import ContextHandler, ContextWalker

    loop_marker = next(
        m
        for m in toy_markers
        if m.src.kind == NodeKind.LOOP_HEAD and m.dst.kind == NodeKind.LOOP_BODY
    )
    other = next(m for m in toy_markers if m.edge_key != loop_marker.edge_key)
    markers = MarkerSet(
        toy_program.name, toy_program.variant, 500.0, None,
        [
            dataclasses.replace(loop_marker, marker_id=1, merge_iterations=5),
            dataclasses.replace(other, marker_id=2, merge_iterations=1),
        ],
    )

    class _FiringLog(ContextHandler):
        def __init__(self):
            self.table = NodeTable(toy_program)
            self.tracker = MarkerTracker(markers, self.table)
            self.fired = []

        def on_edge_open(self, src, dst, t, source):
            marker = self.tracker.edge_opened(src, dst)
            if marker is not None:
                self.fired.append((marker.marker_id, t))

    raw = _FiringLog()
    trace = record_trace(Machine(toy_program, toy_input))
    ContextWalker(toy_program, raw.table).walk_scalar(trace, raw)

    eager = monitor_run(toy_program, toy_input, markers, min_interval=0)
    lazy = monitor_run(toy_program, toy_input, markers, min_interval=3000)
    assert len(eager.changes) > 2
    raw_points = set(raw.fired)
    assert all((c.marker.marker_id, c.t) in raw_points for c in eager.changes)
    assert all((c.marker.marker_id, c.t) in raw_points for c in lazy.changes)
    assert len(lazy.changes) < len(eager.changes)
    assert all(c.time_in_previous >= 3000 for c in lazy.changes)


def test_phase_sequence_starts_at_zero(toy_program, toy_input, toy_markers):
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    seq = monitor.phase_sequence
    assert seq[0] == 0
    assert len(seq) == len(monitor.changes) + 1


def test_same_phase_refire_not_reported(toy_program, toy_input, toy_markers):
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    for change in monitor.changes:
        assert change.new_phase != change.previous_phase


def test_callback_exception_propagates(toy_program, toy_input, toy_markers):
    def boom(change):
        raise RuntimeError("controller failed")

    with pytest.raises(RuntimeError, match="controller failed"):
        monitor_run(toy_program, toy_input, toy_markers, on_change=boom)


def test_dwell_records_cover_total_time(toy_program, toy_input, toy_markers):
    """Every instruction lands in exactly one dwell record."""
    monitor = PhaseMonitor(toy_program, toy_markers)
    total = monitor.run(Machine(toy_program, toy_input).run())
    assert sum(dwell for _, dwell in monitor.dwells) == total
    # one dwell per completed stay: every change plus the final phase
    assert len(monitor.dwells) == len(monitor.changes) + 1


def test_dwell_histograms_per_phase(toy_program, toy_input, toy_markers):
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    hists = monitor.dwell_histograms()
    assert set(hists) == {phase for phase, _ in monitor.dwells}
    assert sum(h.total for h in hists.values()) == len(monitor.dwells)
    # histogram totals agree with the per-phase time accounting
    for phase, hist in hists.items():
        dwells = [d for p, d in monitor.dwells if p == phase]
        assert hist.total == len(dwells)


def test_dwell_table_renders(toy_program, toy_input, toy_markers):
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    text = monitor.dwell_table().render()
    assert "Per-phase dwell-time histogram" in text
    assert "dwell bucket" in text
    # buckets are power-of-two instruction ranges
    assert "[" in text and ")" in text


# -- run() lifecycle ----------------------------------------------------------


def test_rerun_matches_fresh_monitor(toy_program, toy_input, toy_markers):
    """A second run() starts from a clean slate (regression: stale
    current_phase/phase_start_t/dwells double-counted dwell accounting
    and phase changes on monitor reuse)."""
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(Machine(toy_program, toy_input).run())
    first = (
        list(monitor.changes),
        list(monitor.dwells),
        dict(monitor.time_in_phase),
    )
    total = monitor.run(Machine(toy_program, toy_input).run())
    assert (
        list(monitor.changes),
        list(monitor.dwells),
        dict(monitor.time_in_phase),
    ) == first
    assert sum(monitor.time_in_phase.values()) == total
    fresh = monitor_run(toy_program, toy_input, toy_markers)
    assert monitor.changes == fresh.changes
    assert monitor.dwells == fresh.dwells


def test_midstream_exception_closes_accounting(
    toy_program, toy_input, toy_markers
):
    """A stream that dies mid-walk still gets its final dwell closed at
    the last observed instruction count, and the monitor stays reusable."""
    events = list(Machine(toy_program, toy_input).run())

    def truncated():
        for ev in events[: len(events) // 2]:
            yield ev
        raise IOError("stream lost")

    monitor = PhaseMonitor(toy_program, toy_markers)
    with pytest.raises(IOError, match="stream lost"):
        monitor.run(truncated())
    # accounting is closed: one dwell per stay, totals consistent
    assert len(monitor.dwells) == len(monitor.changes) + 1
    assert sum(d for _, d in monitor.dwells) == sum(
        monitor.time_in_phase.values()
    )
    # reuse after the failure behaves like a fresh monitor
    total = monitor.run(iter(events))
    fresh = monitor_run(toy_program, toy_input, toy_markers)
    assert monitor.changes == fresh.changes
    assert monitor.dwells == fresh.dwells
    assert sum(monitor.time_in_phase.values()) == total


# -- phase-timeline export ----------------------------------------------------


def test_phase_timeline_exported_to_telemetry(
    toy_program, toy_input, toy_markers
):
    from repro.telemetry import telemetry_session

    with telemetry_session() as tm:
        monitor = monitor_run(toy_program, toy_input, toy_markers)

    instants = [i for i in tm.instants if i.name == "phase_change"]
    assert len(instants) == len(monitor.changes)
    for inst, change in zip(instants, monitor.changes):
        assert inst.attrs["previous_phase"] == change.previous_phase
        assert inst.attrs["new_phase"] == change.new_phase
        assert inst.attrs["t"] == change.t
        assert tm.lane_labels[inst.tid] == f"phase {change.new_phase}"

    dwells = [s for s in tm.spans if s.name == "phase.dwell"]
    # one dwell span per completed stay, including the final close-out
    assert len(dwells) == len(monitor.dwells)
    for span, (phase, dwell) in zip(dwells, monitor.dwells):
        assert span.attrs["phase"] == phase
        assert span.attrs["instructions"] == dwell
        assert tm.lane_labels[span.tid] == f"phase {phase}"
    # dwell spans parent inside the runtime.monitor stage subtree
    assert all(s.parent_id is not None for s in dwells)
    assert all(s.path.startswith("runtime.monitor/") for s in dwells)
    # dwell tracks tile the monitored run: wall-clock ordered, adjacent
    times = [(s.start_us, s.start_us + s.duration_us) for s in dwells]
    for (_, prev_end), (start, _) in zip(times, times[1:]):
        assert start == pytest.approx(prev_end, abs=1e3)


def test_phase_timeline_absent_when_telemetry_off(
    toy_program, toy_input, toy_markers
):
    monitor = monitor_run(toy_program, toy_input, toy_markers)
    assert monitor._tm is None  # never retained outside run()
