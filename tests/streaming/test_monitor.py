"""StreamingPhaseMonitor: batch equivalence, bounded memory, re-selection."""

import dataclasses

import numpy as np
import pytest

from repro.callloop import SelectionParams, select_markers
from repro.callloop.graph import NodeKind, NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker, PhaseMarker
from repro.callloop.profiler import CallLoopProfiler
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.callloop.serialization import graph_to_dict, marker_set_to_dict
from repro.engine.events import K_BLOCK
from repro.engine.machine import Machine
from repro.engine.tracing import Trace, record_trace
from repro.ir import ProgramBuilder
from repro.runtime import PhaseMonitor
from repro.streaming import (
    StreamingConfig,
    StreamingPhaseMonitor,
    stream_trace,
)

PARAMS = SelectionParams(ilower=500)


@pytest.fixture
def toy_trace(toy_program, toy_input):
    return record_trace(Machine(toy_program, toy_input))


@pytest.fixture
def toy_batch(toy_program, toy_trace):
    graph = CallLoopProfiler(toy_program).profile_trace(toy_trace)
    return graph, select_markers(graph, PARAMS)


def _equiv_config(**overrides):
    """Unbounded window, drift disabled: the batch-equivalence setup."""
    defaults = dict(
        slot_instructions=1000,
        window_slots=0,
        drift_threshold=None,
        selection=PARAMS,
    )
    defaults.update(overrides)
    return StreamingConfig(**defaults)


@pytest.mark.parametrize("chunk_rows", [64, 4096])
def test_unbounded_stream_is_bit_identical_to_batch(
    toy_program, toy_trace, toy_batch, chunk_rows
):
    """The tentpole guarantee: unbounded window + drift off => windowed
    graph, selection, and phase changes all equal the batch path."""
    graph, selection = toy_batch
    monitor = stream_trace(
        toy_program,
        toy_trace,
        marker_set=selection.markers,
        config=_equiv_config(),
        chunk_rows=chunk_rows,
    )
    assert graph_to_dict(monitor.window_graph()) == graph_to_dict(graph)
    assert marker_set_to_dict(monitor.select_now().markers) == marker_set_to_dict(
        selection.markers
    )
    batch = PhaseMonitor(toy_program, selection.markers)
    total = batch.run(toy_trace)
    assert monitor.changes == batch.changes
    assert monitor.dwells == batch.dwells
    assert monitor.time_in_phase == batch.time_in_phase
    assert sum(monitor.time_in_phase.values()) == total


def test_slot_partitioning_is_irrelevant_to_the_merge(
    toy_program, toy_trace, toy_batch
):
    """Any slot size folds to the same unbounded-window graph."""
    graph, _ = toy_batch
    for slot in (500, 3000, 10**9):
        monitor = stream_trace(
            toy_program,
            toy_trace,
            config=_equiv_config(slot_instructions=slot),
        )
        assert graph_to_dict(monitor.window_graph()) == graph_to_dict(graph)


def test_bounded_window_bounds_slot_count(toy_program, toy_trace):
    config = StreamingConfig(
        slot_instructions=1000, window_slots=4, selection=PARAMS
    )
    monitor = stream_trace(toy_program, toy_trace, config=config)
    assert monitor.window.num_slots <= 4
    assert monitor.window.evicted_slots > 0  # the stream outran the window
    assert monitor.slots_sealed > 4


def test_cold_start_picks_up_markers(toy_program, toy_trace):
    """No initial markers: the first slot seals, selection runs on the
    window, and phase tracking starts mid-stream."""
    config = StreamingConfig(
        slot_instructions=2000,
        window_slots=4,
        drift_threshold=0.25,
        selection=PARAMS,
    )
    monitor = stream_trace(toy_program, toy_trace, config=config)
    assert monitor.reselections, "cold start never picked up markers"
    first = monitor.reselections[0]
    assert first.drifted_edges == 0  # pickup, not drift
    assert first.num_markers == len(monitor.marker_set.markers) or len(
        monitor.reselections
    ) > 1
    assert monitor.marker_set.markers
    assert monitor.changes  # phases were actually tracked after pickup


def test_drift_disabled_never_reselects(toy_program, toy_trace, toy_batch):
    _, selection = toy_batch
    monitor = stream_trace(
        toy_program, toy_trace, marker_set=selection.markers, config=_equiv_config()
    )
    assert monitor.reselections == []
    assert monitor.drift_events == 0
    assert monitor.marker_set is selection.markers  # never swapped


def test_tiny_drift_threshold_triggers_reselection(
    toy_program, toy_trace, toy_batch
):
    """A hair-trigger threshold must observe drift on a stochastic
    workload and hot-swap the marker set."""
    _, selection = toy_batch
    config = StreamingConfig(
        slot_instructions=1000,
        window_slots=4,
        drift_threshold=1e-9,
        min_edge_count=1,
        selection=PARAMS,
    )
    monitor = stream_trace(
        toy_program, toy_trace, marker_set=selection.markers, config=config
    )
    assert monitor.drift_events > 0
    assert monitor.reselections
    assert all(r.drifted_edges > 0 for r in monitor.reselections)


def test_streaming_is_deterministic(toy_program, toy_trace):
    config = StreamingConfig(
        slot_instructions=1000,
        window_slots=4,
        drift_threshold=0.25,
        selection=PARAMS,
    )
    a = stream_trace(toy_program, toy_trace, config=config)
    b = stream_trace(toy_program, toy_trace, config=config)
    assert a.changes == b.changes
    assert a.reselections == b.reselections
    assert a.drift_events == b.drift_events
    assert marker_set_to_dict(a.marker_set) == marker_set_to_dict(b.marker_set)


def test_finish_closes_dwell_accounting(toy_program, toy_trace, toy_batch):
    _, selection = toy_batch
    monitor = StreamingPhaseMonitor(
        toy_program, selection.markers, _equiv_config()
    )
    monitor.feed_trace(toy_trace)
    total = monitor.finish()
    assert total == toy_trace.total_instructions
    assert sum(monitor.time_in_phase.values()) == total
    assert len(monitor.dwells) == len(monitor.changes) + 1
    assert monitor.phase_sequence[0] == 0


def test_on_change_callback_fires_and_propagates(toy_program, toy_trace, toy_batch):
    _, selection = toy_batch
    seen = []
    stream_trace(
        toy_program,
        toy_trace,
        marker_set=selection.markers,
        config=_equiv_config(),
        on_change=seen.append,
    )
    assert seen and all(c.new_phase != c.previous_phase for c in seen)

    def boom(change):
        raise RuntimeError("controller failed")

    with pytest.raises(RuntimeError, match="controller failed"):
        stream_trace(
            toy_program,
            toy_trace,
            marker_set=selection.markers,
            config=_equiv_config(),
            on_change=boom,
        )


def test_telemetry_counters_and_lane(toy_program, toy_trace):
    from repro.telemetry import telemetry_session

    config = StreamingConfig(
        slot_instructions=1000,
        window_slots=4,
        drift_threshold=0.25,
        selection=PARAMS,
    )
    with telemetry_session() as tm:
        monitor = stream_trace(toy_program, toy_trace, config=config)
    counters = tm.metrics.counters
    assert counters["streaming.slots_sealed"] >= monitor.window.num_slots
    assert counters["streaming.events"] == monitor.events_fed
    assert counters["streaming.reselections"] == len(monitor.reselections)
    instants = [i for i in tm.instants if i.name == "streaming.reselection"]
    assert len(instants) == len(monitor.reselections)
    assert all(
        tm.lane_labels[i.tid] == "streaming" for i in instants
    )


def test_config_validation():
    with pytest.raises(ValueError):
        StreamingConfig(slot_instructions=0)
    with pytest.raises(ValueError):
        StreamingConfig(window_slots=-1)
    with pytest.raises(ValueError):
        StreamingConfig(drift_threshold=0.0)
    with pytest.raises(ValueError):
        StreamingConfig(min_interval=-1)
    with pytest.raises(ValueError):
        StreamingConfig(min_edge_count=0)


# -- merged-iteration markers under hysteresis (satellite) --------------------


def _merged_loop_marker_set(program, selection, merge_iterations=5):
    """A two-marker set: one loop head->body marker rewritten to fire
    every Nth iteration, plus one ordinary marker so phases alternate."""
    loop_marker = next(
        m
        for m in selection.markers
        if m.src.kind == NodeKind.LOOP_HEAD and m.dst.kind == NodeKind.LOOP_BODY
    )
    other = next(
        m for m in selection.markers if m.edge_key != loop_marker.edge_key
    )
    merged = dataclasses.replace(
        loop_marker, marker_id=1, merge_iterations=merge_iterations
    )
    plain = dataclasses.replace(other, marker_id=2, merge_iterations=1)
    return MarkerSet(
        program.name, program.variant, PARAMS.ilower, None, [merged, plain]
    )


class _FiringLog(ContextHandler):
    """Every (marker_id, t) a fresh tracker fires, with no monitor on
    top — the raw cadence, unaffected by phase/hysteresis suppression."""

    def __init__(self, program, markers):
        self.table = NodeTable(program)
        self.tracker = MarkerTracker(markers, self.table)
        self.fired = []

    def on_edge_open(self, src, dst, t, source):
        marker = self.tracker.edge_opened(src, dst)
        if marker is not None:
            self.fired.append((marker.marker_id, t))


def test_streaming_hysteresis_does_not_rewind_merged_cadence(
    toy_program, toy_trace, toy_batch
):
    """min_interval suppression must not reset the every-Nth counter:
    every reported change still lands on a raw-cadence firing point."""
    _, selection = toy_batch
    markers = _merged_loop_marker_set(toy_program, selection)
    raw = _FiringLog(toy_program, markers)
    ContextWalker(toy_program, raw.table).walk_scalar(toy_trace, raw)
    eager = stream_trace(
        toy_program, toy_trace, marker_set=markers, config=_equiv_config()
    )
    lazy = stream_trace(
        toy_program,
        toy_trace,
        marker_set=markers,
        config=_equiv_config(min_interval=3000),
    )
    # the two markers alternate, so the merged cadence keeps re-firing
    assert len(eager.changes) > 2
    raw_points = set(raw.fired)
    assert all((c.marker.marker_id, c.t) in raw_points for c in eager.changes)
    assert all((c.marker.marker_id, c.t) in raw_points for c in lazy.changes)
    # hysteresis suppressed some changes but never invented or shifted one
    assert len(lazy.changes) < len(eager.changes)
    assert all(c.time_in_previous >= 3000 for c in lazy.changes)
    # the tracker's counters kept advancing through suppressed firings
    assert sum(lazy.tracker._counters.values()) > 0


def test_streaming_matches_batch_monitor_with_merged_markers(
    toy_program, toy_trace, toy_batch
):
    _, selection = toy_batch
    markers = _merged_loop_marker_set(toy_program, selection)
    for min_interval in (0, 3000):
        streaming = stream_trace(
            toy_program,
            toy_trace,
            marker_set=markers,
            config=_equiv_config(min_interval=min_interval),
        )
        batch = PhaseMonitor(toy_program, markers, min_interval=min_interval)
        batch.run(toy_trace)
        assert streaming.changes == batch.changes
        assert streaming.dwells == batch.dwells


# -- bulk chunk feeding vs row-at-a-time feed ----------------------------------

#: cold start, bounded window, drift re-selection, slots of ~350 rows
DRIFT_CONFIG = StreamingConfig(
    slot_instructions=1000,
    window_slots=4,
    drift_threshold=0.25,
    selection=PARAMS,
)


def _outcome(monitor):
    """Everything a stream's consumer can observe after finish()."""
    return {
        "reselections": monitor.reselections,
        "changes": monitor.changes,
        "dwells": monitor.dwells,
        "time_in_phase": monitor.time_in_phase,
        "slots": (
            monitor.slots_sealed,
            monitor.window.evicted_slots,
            monitor.drift_events,
        ),
        "events": monitor.events_fed,
        "markers": marker_set_to_dict(monitor.marker_set),
        "graph": graph_to_dict(monitor.window_graph()),
    }


def _rowwise(program, trace, markers, config):
    monitor = StreamingPhaseMonitor(program, markers, config)
    for row in trace.iter_packed():
        monitor.feed(*row)
    monitor.finish()
    return monitor


class _Trail(StreamingPhaseMonitor):
    """Logs edge callbacks, batched runs and seals in arrival order."""

    def __init__(self, *args, **kwargs):
        self.trail = []  # first: construction fires the entry opens
        super().__init__(*args, **kwargs)

    def on_edge_open(self, src, dst, t, source):
        self.trail.append(("open", src, dst))
        super().on_edge_open(src, dst, t, source)

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.trail.append(("close", src, dst))
        super().on_edge_close(src, dst, t_open, t_close, source)

    def on_edge_iterations(self, head, body, t_prev, ts, source):
        watched = self.tracker.watches(head, body)
        self.trail.append(("run", head, body, len(ts), watched))
        super().on_edge_iterations(head, body, t_prev, ts, source)

    def _seal_slot(self, t):
        self.trail.append(("seal", t))
        super()._seal_slot(t)


@pytest.mark.parametrize("chunk_rows", [1, 7, 257, 4096])
def test_chunked_feed_matches_rowwise_feed(toy_program, toy_trace, chunk_rows):
    chunked = stream_trace(
        toy_program, toy_trace, config=DRIFT_CONFIG, chunk_rows=chunk_rows
    )
    rowwise = _rowwise(toy_program, toy_trace, None, DRIFT_CONFIG)
    assert rowwise.reselections and rowwise.changes  # the stream did adapt
    assert _outcome(chunked) == _outcome(rowwise)


def test_seal_inside_a_batched_back_edge_run(toy_program, toy_trace):
    """A slot boundary inside a long loop splits its back-edge run: the
    batch before the seal ends at the boundary row, and the run resumes
    on the same edge after it."""
    chunked = _Trail(toy_program, None, DRIFT_CONFIG)
    chunked.feed_trace(toy_trace, chunk_rows=4096)
    chunked.finish()
    trail = chunked.trail
    split = [
        i
        for i, entry in enumerate(trail)
        if entry[0] == "seal"
        and trail[i - 1][0] == "run"
        and next(e for e in trail[i + 1 :] if e[0] != "seal")[1:3]
        == trail[i - 1][1:3]
    ]
    assert split, "no seal landed inside a batched back-edge run"
    rowwise = _rowwise(toy_program, toy_trace, None, DRIFT_CONFIG)
    assert _outcome(chunked) == _outcome(rowwise)


def _inner_loop_marker_set(program, graph, merge_iterations):
    """A merged marker on ``work``'s 200-trip inner loop head->body edge
    (runs long enough to batch) plus one on the call into ``emit``, so
    the phase keeps alternating."""
    loop_edge = next(
        e
        for e in graph.edges
        if e.src.kind == NodeKind.LOOP_HEAD
        and e.dst.kind == NodeKind.LOOP_BODY
        and e.src.proc == "work"
    )
    call_edge = next(
        e
        for e in graph.edges
        if e.dst.kind == NodeKind.PROC_HEAD and e.dst.proc == "emit"
    )
    markers = [
        PhaseMarker(1, loop_edge.src, loop_edge.dst, 10.0, 0.0, 10.0, merge_iterations),
        PhaseMarker(2, call_edge.src, call_edge.dst, 500.0, 0.0, 500.0),
    ]
    return MarkerSet(program.name, program.variant, PARAMS.ilower, None, markers)


@pytest.mark.parametrize("min_interval", [0, 300])
def test_merged_marker_inside_a_batched_run(
    toy_program, toy_trace, toy_batch, min_interval
):
    """A back-edge run on a merged every-Nth marker replays per
    iteration: the cadence and the hysteresis match row-at-a-time feed."""
    graph, _ = toy_batch
    markers = _inner_loop_marker_set(toy_program, graph, merge_iterations=7)
    config = _equiv_config(min_interval=min_interval, window_slots=4)
    chunked = _Trail(toy_program, markers, config)
    chunked.feed_trace(toy_trace, chunk_rows=4096)
    chunked.finish()
    runs = [e for e in chunked.trail if e[0] == "run"]
    assert any(watched for *_, watched in runs)  # the marker edge batched
    assert any(not watched for *_, watched in runs)  # plain runs batched too
    rowwise = _rowwise(toy_program, toy_trace, markers, config)
    assert len(rowwise.changes) > 10
    assert _outcome(chunked) == _outcome(rowwise)


def test_reselection_swaps_tracker_mid_chunk(toy_program, toy_trace):
    """The first cold-start pickup lands inside a chunk; the rest of that
    chunk is tracked with the new markers, exactly as row by row."""
    chunk_rows = 4096
    chunked = stream_trace(
        toy_program, toy_trace, config=DRIFT_CONFIG, chunk_rows=chunk_rows
    )
    sizes = np.where(toy_trace.kinds == K_BLOCK, toy_trace.c, 0)
    chunk_ends = set(np.cumsum(sizes)[chunk_rows - 1 :: chunk_rows].tolist())
    first = chunked.reselections[0]
    assert first.t not in chunk_ends
    assert first.t < chunked.changes[0].t < max(chunk_ends)
    rowwise = _rowwise(toy_program, toy_trace, None, DRIFT_CONFIG)
    assert _outcome(chunked) == _outcome(rowwise)


def test_interleaved_feed_and_feed_rows(toy_program, toy_trace):
    monitor = StreamingPhaseMonitor(toy_program, None, DRIFT_CONFIG)
    cols = (toy_trace.kinds, toy_trace.a, toy_trace.b, toy_trace.c)
    n = len(toy_trace.kinds)
    start, step = 0, 0
    while start < n:
        stop = min(n, start + (1500 if step % 2 == 0 else 37))
        if step % 2 == 0:
            monitor.feed_rows(*(col[start:stop] for col in cols))
        else:
            for row in zip(*(col[start:stop].tolist() for col in cols)):
                monitor.feed(*row)
        start, step = stop, step + 1
    monitor.finish()
    rowwise = _rowwise(toy_program, toy_trace, None, DRIFT_CONFIG)
    assert _outcome(monitor) == _outcome(rowwise)


def test_unknown_address_chunk_takes_scalar_fallback(toy_program, toy_trace):
    from repro.telemetry import telemetry_session

    b = toy_trace.b.copy()
    blocks = np.nonzero(toy_trace.kinds == K_BLOCK)[0]
    b[blocks[len(blocks) // 3]] = 0x7FFF_FFFF  # no such block address
    bogus = Trace.from_columns(toy_trace.kinds, toy_trace.a, b, toy_trace.c)
    with telemetry_session() as tm:
        chunked = stream_trace(toy_program, bogus, config=DRIFT_CONFIG)
    counters = tm.metrics.counters
    assert counters["callloop.walk.scalar.unknown_address"] == 1
    assert counters["callloop.walk.bulk"] > 1
    rowwise = _rowwise(toy_program, bogus, None, DRIFT_CONFIG)
    assert _outcome(chunked) == _outcome(rowwise)


@pytest.mark.parametrize("short", ["kinds", "a", "b", "c"])
def test_unequal_columns_rejected_before_any_state_change(
    toy_program, toy_trace, short
):
    monitor = StreamingPhaseMonitor(toy_program, None, DRIFT_CONFIG)
    monitor.feed_trace(toy_trace)
    cols = {name: getattr(toy_trace, name)[:10] for name in ("kinds", "a", "b", "c")}
    cols[short] = cols[short][:6]
    before = _outcome(monitor)
    walker_state = (monitor._walker.row, monitor._walker.t)
    with pytest.raises(ValueError, match="equal lengths"):
        monitor.feed_rows(cols["kinds"], cols["a"], cols["b"], cols["c"])
    assert (monitor._walker.row, monitor._walker.t) == walker_state
    assert _outcome(monitor) == before


def _rare_calls_program():
    """A long loop that now and then calls one of two procedures: the
    iterations between calls are back-edge runs long enough to batch."""
    b = ProgramBuilder("rare")
    with b.proc("main"):
        with b.loop("l", trips=3000):
            b.code(3)
            with b.if_(0.01):
                b.call("left")
            with b.if_(0.01):
                b.call("right")
    for name in ("left", "right"):
        with b.proc(name):
            b.code(5)
    return b.build()


def test_batched_run_resets_merged_counters_of_its_body(toy_input):
    """A merged marker leaving a loop body restarts its every-Nth count
    on every iteration's head->body open — batched runs included."""
    program = _rare_calls_program()
    trace = record_trace(Machine(program, toy_input))
    graph = CallLoopProfiler(program).profile_trace(trace)
    calls = {
        e.dst.proc: e
        for e in graph.edges
        if e.src.kind == NodeKind.LOOP_BODY and e.dst.kind == NodeKind.PROC_HEAD
    }
    left, right = calls["left"], calls["right"]
    markers = MarkerSet(program.name, program.variant, PARAMS.ilower, None, [
        PhaseMarker(1, left.src, left.dst, 100.0, 0.0, 100.0, merge_iterations=2),
        PhaseMarker(2, right.src, right.dst, 100.0, 0.0, 100.0),
    ])
    # one chunk, one slot: nothing splits a run into per-iteration pieces
    config = _equiv_config(slot_instructions=10**9)
    chunked = _Trail(program, markers, config)
    chunked.feed_trace(trace, chunk_rows=len(trace))
    chunked.finish()
    body = chunked.table.index(left.src)
    assert any(e[0] == "run" and e[2] == body for e in chunked.trail)
    rowwise = _rowwise(program, trace, markers, config)
    assert len(rowwise.changes) > 10
    assert _outcome(chunked) == _outcome(rowwise)
