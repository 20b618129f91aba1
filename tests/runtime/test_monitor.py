"""Unit tests for the phase monitor and the phase log it shares with the
streaming monitor."""

import dataclasses

import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.callloop.graph import NodeKind
from repro.callloop.markers import MarkerSet, marker_firings_scalar
from repro.engine import Machine
from repro.engine.tracing import record_trace
from repro.intervals import split_at_markers
from repro.runtime import PhaseMonitor, monitor_run
from repro.runtime.monitor import PhaseChange, PhaseLog
from repro.streaming import StreamingConfig, stream_trace


@pytest.fixture
def toy_markers(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    return select_markers(graph, SelectionParams(ilower=500)).markers


@pytest.fixture
def toy_trace(toy_program, toy_input):
    return record_trace(Machine(toy_program, toy_input))


@pytest.fixture
def merged_markers(toy_program, toy_markers):
    """A merged (every-5th) loop marker and a plain one."""
    loop_marker = next(
        m
        for m in toy_markers
        if m.src.kind == NodeKind.LOOP_HEAD and m.dst.kind == NodeKind.LOOP_BODY
    )
    other = next(m for m in toy_markers if m.edge_key != loop_marker.edge_key)
    return MarkerSet(
        toy_program.name, toy_program.variant, 500.0, None,
        [
            dataclasses.replace(loop_marker, marker_id=1, merge_iterations=5),
            dataclasses.replace(other, marker_id=2, merge_iterations=1),
        ],
    )


def test_callback_invoked_per_change(toy_program, toy_input, toy_markers):
    seen = []
    monitor_run(toy_program, toy_input, toy_markers, on_change=seen.append)
    assert seen
    assert all(c.new_phase != c.previous_phase for c in seen)


def test_changes_match_offline_vli(toy_program, toy_trace, toy_markers):
    """Online monitoring and offline VLI splitting see the same phases."""
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    intervals = split_at_markers(toy_program, toy_trace, toy_markers)
    online_phases = [c.new_phase for c in monitor.changes]
    offline_phases = [
        int(p) for p in intervals.phase_ids if p != 0
    ]
    # offline collapses coincident firings; online reports each distinct
    # phase change — the offline sequence must be a subsequence of online
    it = iter(online_phases)
    assert all(p in it for p in offline_phases) or online_phases == offline_phases


def test_time_accounting_sums_to_total(toy_program, toy_trace, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    total = monitor.run(toy_trace)
    assert total == toy_trace.total_instructions
    assert sum(monitor.time_in_phase.values()) == total


def test_min_interval_suppresses_bursts(toy_program, toy_trace, toy_markers):
    eager = PhaseMonitor(toy_program, toy_markers, min_interval=0)
    lazy = PhaseMonitor(toy_program, toy_markers, min_interval=2000)
    eager.run(toy_trace)
    lazy.run(toy_trace)
    assert len(lazy.changes) <= len(eager.changes)
    assert all(c.time_in_previous >= 2000 for c in lazy.changes)


def test_hysteresis_does_not_rewind_merged_cadence(
    toy_program, toy_trace, merged_markers
):
    """min_interval suppression must not reset every-Nth counters: each
    reported change still lands on a raw tracker firing point."""
    _, ts, mids = marker_firings_scalar(toy_program, toy_trace, merged_markers)
    raw_points = set(zip(mids.tolist(), ts.tolist()))
    eager = PhaseMonitor(toy_program, merged_markers, min_interval=0)
    lazy = PhaseMonitor(toy_program, merged_markers, min_interval=3000)
    eager.run(toy_trace)
    lazy.run(toy_trace)
    assert len(eager.changes) > 2
    assert all((c.marker.marker_id, c.t) in raw_points for c in eager.changes)
    assert all((c.marker.marker_id, c.t) in raw_points for c in lazy.changes)
    assert len(lazy.changes) < len(eager.changes)
    assert all(c.time_in_previous >= 3000 for c in lazy.changes)


def test_phase_sequence_starts_at_zero(toy_program, toy_trace, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    seq = monitor.phase_sequence
    assert seq[0] == 0
    assert len(seq) == len(monitor.changes) + 1


def test_same_phase_refire_not_reported(toy_program, toy_trace, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    for change in monitor.changes:
        assert change.new_phase != change.previous_phase


def test_callback_exception_propagates(toy_program, toy_trace, toy_markers):
    def boom(change):
        raise RuntimeError("controller failed")

    monitor = PhaseMonitor(toy_program, toy_markers, on_change=boom)
    with pytest.raises(RuntimeError, match="controller failed"):
        monitor.run(toy_trace)


def test_dwell_records_cover_total_time(toy_program, toy_trace, toy_markers):
    """Every instruction lands in exactly one dwell record."""
    monitor = PhaseMonitor(toy_program, toy_markers)
    total = monitor.run(toy_trace)
    assert sum(dwell for _, dwell in monitor.dwells) == total
    # one dwell per completed stay: every change plus the final phase
    assert len(monitor.dwells) == len(monitor.changes) + 1


def test_dwell_histograms_per_phase(toy_program, toy_trace, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    hists = monitor.dwell_histograms()
    assert set(hists) == {phase for phase, _ in monitor.dwells}
    assert sum(h.total for h in hists.values()) == len(monitor.dwells)
    # histogram totals agree with the per-phase time accounting
    for phase, hist in hists.items():
        dwells = [d for p, d in monitor.dwells if p == phase]
        assert hist.total == len(dwells)


def test_dwell_table_renders(toy_program, toy_trace, toy_markers):
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    text = monitor.dwell_table().render()
    assert "Per-phase dwell-time histogram" in text
    assert "dwell bucket" in text
    # buckets are power-of-two instruction ranges
    assert "[" in text and ")" in text


# -- the shared phase log --------------------------------------------------------


def test_phase_log_pins_the_shared_hysteresis(toy_markers):
    """A hand-built firing sequence through the one hysteresis both
    monitors use: two firings at t = 0, a same-phase refire, a burst
    inside ``min_interval``, a firing exactly ``min_interval`` into its
    phase and one at the last instruction."""
    m = {i: dataclasses.replace(toy_markers.markers[0], marker_id=i) for i in (1, 2, 3)}
    firings = [
        (1, 0), (2, 0), (2, 50), (3, 120), (1, 150), (3, 160), (1, 220), (1, 400), (2, 1000)
    ]

    def logged(min_interval):
        seen = []
        log = PhaseLog(min_interval, seen.append)
        for mid, t in firings:
            log.fire(m[mid], t)
        log.close(1000)
        assert seen == log.changes
        return log

    def change(t, prev, new, dwell):
        return PhaseChange(t, prev, new, m[new], dwell)

    eager = logged(0)
    assert eager.changes == [
        change(0, 0, 1, 0),
        change(0, 1, 2, 0),
        change(120, 2, 3, 120),
        change(150, 3, 1, 30),
        change(160, 1, 3, 10),
        change(220, 3, 1, 60),
        change(1000, 1, 2, 780),
    ]
    assert eager.dwells == [
        (0, 0), (1, 0), (2, 120), (3, 30), (1, 10), (3, 60), (1, 780), (2, 0)
    ]
    assert eager.time_in_phase == {0: 0, 1: 790, 2: 120, 3: 90}
    assert eager.phase_sequence == [0, 1, 2, 3, 1, 3, 1, 2]

    lazy = logged(100)
    assert lazy.changes == [
        change(120, 0, 3, 120),
        change(220, 3, 1, 100),
        change(1000, 1, 2, 780),
    ]
    assert lazy.dwells == [(0, 120), (3, 100), (1, 780), (2, 0)]
    assert lazy.time_in_phase == {0: 120, 3: 100, 1: 780, 2: 0}
    assert lazy.phase_sequence == [0, 3, 1, 2]


def test_both_monitors_keep_one_phase_log(toy_program, toy_trace, merged_markers):
    """The recorded-trace monitor and the streaming monitor fill the same
    kind of log from the same firings."""
    batch = PhaseMonitor(toy_program, merged_markers, min_interval=3000)
    batch.run(toy_trace)
    streaming = stream_trace(
        toy_program, toy_trace, merged_markers, StreamingConfig(min_interval=3000)
    )
    assert type(batch.log) is type(streaming.log) is PhaseLog
    assert batch.changes == streaming.changes
    assert batch.dwells == streaming.dwells
    assert batch.time_in_phase == streaming.time_in_phase


# -- run() lifecycle ----------------------------------------------------------


def test_rerun_matches_fresh_monitor(toy_program, toy_trace, toy_markers):
    """A second run() starts from a clean slate (regression: stale
    current_phase/phase_start_t/dwells double-counted dwell accounting
    and phase changes on monitor reuse)."""
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    first = (
        list(monitor.changes),
        list(monitor.dwells),
        dict(monitor.time_in_phase),
    )
    total = monitor.run(toy_trace)
    assert (
        list(monitor.changes),
        list(monitor.dwells),
        dict(monitor.time_in_phase),
    ) == first
    assert sum(monitor.time_in_phase.values()) == total
    fresh = PhaseMonitor(toy_program, toy_markers)
    fresh.run(toy_trace)
    assert monitor.changes == fresh.changes
    assert monitor.dwells == fresh.dwells


def test_rerun_restarts_merged_cadence(toy_program, toy_trace, merged_markers):
    """A merged marker's every-Nth cadence starts over with each run."""
    monitor = PhaseMonitor(toy_program, merged_markers)
    monitor.run(toy_trace)
    first = list(monitor.changes)
    monitor.run(toy_trace)
    assert monitor.changes == first
    fresh = PhaseMonitor(toy_program, merged_markers)
    fresh.run(toy_trace)
    assert fresh.changes == first


def test_midstream_exception_closes_accounting(toy_program, toy_trace, toy_markers):
    """An ``on_change`` that raises on the k-th change still leaves the
    accounting closed, at that firing's instruction count, and the
    monitor stays reusable."""
    fresh = PhaseMonitor(toy_program, toy_markers)
    total = fresh.run(toy_trace)
    k = 3
    assert len(fresh.changes) > k
    seen = []

    def flaky(change):
        seen.append(change)
        if len(seen) == k:
            raise RuntimeError("controller failed")

    monitor = PhaseMonitor(toy_program, toy_markers, on_change=flaky)
    with pytest.raises(RuntimeError, match="controller failed"):
        monitor.run(toy_trace)
    kth = fresh.changes[k - 1]
    assert monitor.changes == fresh.changes[:k] == seen
    # closed at the k-th change's t: the new phase's dwell is empty
    assert monitor.dwells == fresh.dwells[:k] + [(kth.new_phase, 0)]
    assert sum(monitor.time_in_phase.values()) == kth.t
    # reuse after the failure behaves like a fresh monitor
    monitor.on_change = None
    assert monitor.run(toy_trace) == total
    assert monitor.changes == fresh.changes
    assert monitor.dwells == fresh.dwells
    assert monitor.time_in_phase == fresh.time_in_phase


# -- phase-timeline export ----------------------------------------------------


def test_phase_timeline_exported_to_telemetry(
    toy_program, toy_trace, toy_markers
):
    from repro.telemetry import telemetry_session

    monitor = PhaseMonitor(toy_program, toy_markers)
    with telemetry_session() as tm:
        monitor.run(toy_trace)

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
    # dwell tracks tile the pass over the firings: wall-clock ordered, adjacent
    times = [(s.start_us, s.start_us + s.duration_us) for s in dwells]
    for (_, prev_end), (start, _) in zip(times, times[1:]):
        assert start == pytest.approx(prev_end, abs=1e3)
    # the firings came from the span index, not a walk
    assert tm.metrics.counters["markers.firings.spans"] == 1
    assert not any(k.startswith("callloop.walk") for k in tm.metrics.counters)


def test_phase_timeline_absent_when_telemetry_off(
    toy_program, toy_trace, toy_markers
):
    monitor = PhaseMonitor(toy_program, toy_markers)
    monitor.run(toy_trace)
    assert monitor._tm is None  # never retained outside run()
