"""The VLI split from the span index: equal to the scalar splitter.

The split gathers marker firings from the trace's edge-open index
(``trace.opens``) and must be bit-identical to the scalar per-event
splitter, whether the split builds the index, reuses a profile's, or
reads one back from a trace-store spill; a trace the span builder
declines takes the scalar splitter.  These tests pin the corner cases
the corpus-level ``split`` verify check cannot target deterministically.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.callloop import (
    CallLoopProfiler,
    SelectionParams,
    build_call_loop_graph,
    select_markers,
)
from repro.callloop.graph import Node, NodeKind
from repro.callloop.markers import (
    MarkerSet,
    PhaseMarker,
    marker_firings,
    marker_firings_scalar,
)
from repro.callloop.spans import index_trace
from repro.engine import Machine, Trace, record_trace
from repro.engine.events import K_BLOCK, K_CALL, K_RETURN
from repro.intervals import (
    split_at_markers,
    split_at_markers_prescan,
    split_at_markers_scalar,
)
from repro.intervals.vli import _finalize
from repro.ir import ProgramBuilder
from repro.ir.program import ProgramInput
from repro.runner.traces import TraceStore
from repro.telemetry import telemetry_session
from tests.callloop.test_spans import _nest, block_named, with_block_row, without_block


def columns(intervals):
    return (
        intervals.row_bounds.tolist(),
        intervals.start_ts.tolist(),
        intervals.lengths.tolist(),
        intervals.phase_ids.tolist(),
    )


def bare(trace):
    """The trace's ids and table without its span index."""
    return Trace(trace.ids, trace.table)


def declined(program, trace, markers):
    """The split of a trace the span builder declined: the scalar path."""
    forced = bare(trace)
    forced.opens = "forced"
    return split_at_markers(program, forced, markers)


def split_counters(program, trace, markers):
    """``(intervals, markers.firings.* counters)``."""
    with telemetry_session() as tm:
        got = split_at_markers(program, trace, markers)
    counters = {
        k: v
        for k, v in tm.metrics.counters.items()
        if k.startswith("markers.firings.")
    }
    return got, counters


def assert_all_arms_match(program, trace, markers, tmp_path=None):
    """Split from a fresh index, from the attached one, from a spill
    reloaded off a trace store, and through the scalar fallback: each
    equals the scalar splitter, and the index's uncollapsed firings equal
    the walk collector's."""
    want = columns(split_at_markers_scalar(program, trace, markers))
    fresh = bare(trace)
    want_firings = [c.tolist() for c in marker_firings_scalar(program, trace, markers)]
    got_firings = marker_firings(program, fresh, markers)
    assert [c.tolist() for c in got_firings] == want_firings
    assert all(c.dtype == np.int64 for c in got_firings)
    assert columns(split_at_markers(program, fresh, markers)) == want
    assert fresh.opens is not None and not isinstance(fresh.opens, str)
    assert columns(split_at_markers(program, fresh, markers)) == want
    indexed = split_at_markers_prescan(program, fresh, markers)
    assert indexed is not None and columns(indexed) == want
    if tmp_path is not None:
        store = TraceStore(tmp_path / "traces")
        reloaded = store.store("ab" * 32, fresh, program).load()
        assert columns(split_at_markers(program, reloaded, markers)) == want
    assert columns(declined(program, trace, markers)) == want
    return want


def marker(marker_id, src, dst, merge=1):
    return PhaseMarker(
        marker_id=marker_id,
        src=src,
        dst=dst,
        avg_interval=1000.0,
        cov=0.0,
        max_interval=1000.0,
        merge_iterations=merge,
    )


def marker_set(name, *markers):
    return MarkerSet(name, "base", 100.0, None, list(markers))


def head(proc):
    return Node(NodeKind.PROC_HEAD, proc, label=proc)


def body(proc):
    return Node(NodeKind.PROC_BODY, proc, label=proc)


def loop_nodes(program, label):
    graph = build_call_loop_graph(program, [ProgramInput("i", seed=1)])
    (edge,) = [
        e
        for e in graph.edges
        if e.src.kind == NodeKind.LOOP_HEAD
        and e.dst.kind == NodeKind.LOOP_BODY
        and e.dst.label == label
    ]
    return edge.src, edge.dst


@pytest.fixture
def toy_split(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    graph = build_call_loop_graph(toy_program, [toy_input])
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    return trace, markers


# -- every path vs the scalar splitter ----------------------------------------


def test_all_paths_match_scalar(toy_program, toy_split, tmp_path):
    trace, markers = toy_split
    assert_all_arms_match(toy_program, trace, markers, tmp_path)


def test_candidate_free_segment(tmp_path):
    """A long candidate-free stretch of the trace followed by one late
    firing: the split must find exactly that boundary."""
    b = ProgramBuilder("onefire")
    with b.proc("main"):
        with b.loop("big", trips=400):
            b.code(10)
        b.call("finish")
    with b.proc("finish"):
        b.code(5)
    program = b.build()
    trace = record_trace(Machine(program, ProgramInput("i", seed=2)).run())
    single = marker_set("onefire", marker(1, body("main"), head("finish")))
    want = assert_all_arms_match(program, trace, single, tmp_path)
    assert len(want[0]) == 3  # prologue + the one late interval


def test_one_row_trace_matches_scalar(toy_program, toy_split):
    trace, markers = toy_split
    tiny = Trace(trace.ids[:1], trace.table)
    assert_all_arms_match(toy_program, tiny, markers)


def test_merged_markers_match_scalar(loop_only_program):
    """Merged (every-Nth-iteration) markers: the index's positions since
    the loop's last entry reproduce the scalar splitter's counter."""
    inp = ProgramInput("i", seed=3)
    trace = record_trace(Machine(loop_only_program, inp).run())
    graph = build_call_loop_graph(loop_only_program, [inp])
    selected = select_markers(graph, SelectionParams(ilower=400)).markers
    loop_marker = next(
        m
        for m in selected
        if m.src.kind == NodeKind.LOOP_HEAD and m.dst.kind == NodeKind.LOOP_BODY
    )
    markers = MarkerSet(
        selected.program_name,
        selected.variant,
        selected.ilower,
        None,
        [dataclasses.replace(loop_marker, merge_iterations=5)],
    )
    want = assert_all_arms_match(loop_only_program, trace, markers)
    assert len(want[0]) > 3


# -- prologue drop regression ------------------------------------------------


def test_prologue_drop_handles_piles_of_coincident_t0_firings(toy_program):
    """Many t==0 firings (deeply nested entry opens) once re-sliced the
    boundary list per firing — quadratic.  The array collapse keeps it
    linear and the innermost (last) marker still names the first phase."""
    n = 200_000
    rows = np.r_[np.zeros(n, dtype=np.int64), 50]
    ts = np.r_[np.zeros(n, dtype=np.int64), 700]
    mids = np.r_[np.arange(1, n + 1, dtype=np.int64), 7]
    start = time.perf_counter()
    intervals = _finalize(toy_program, 100, 1000, (rows, ts, mids))
    elapsed = time.perf_counter() - start
    assert intervals.phase_ids.tolist() == [n, 7]
    assert intervals.start_ts.tolist() == [0, 700]
    assert intervals.lengths.tolist() == [700, 300]
    assert intervals.row_bounds.tolist() == [0, 50, 100]
    # the quadratic re-slice copied ~2e10 elements here; the collapse
    # is comfortably under a second even on a loaded machine
    assert elapsed < 2.0


# -- recursion -----------------------------------------------------------------


def _recloop():
    b = ProgramBuilder("recloop")
    with b.proc("main"):
        with b.loop("calls", trips=6):
            b.call("r")
    with b.proc("r"):
        with b.loop("spin", trips=40):
            b.code(8)
        with b.if_(0.5):
            b.call("r")
    return b.build()


def test_loops_in_recursive_procedures_split_from_the_index():
    """A marked loop inside a recursive procedure is split from the
    index (the pre-scan used to decline it); a block address outside
    the program makes the builder decline, and the split falls back to
    the scalar splitter.  Both count what they did."""
    program = _recloop()
    inp = ProgramInput("i", seed=11)
    trace = record_trace(Machine(program, inp).run())
    graph = build_call_loop_graph(program, [inp])
    markers = select_markers(graph, SelectionParams(ilower=100)).markers
    # only meaningful if selection marked the loop inside the recursion
    assert any(m.dst.kind.is_loop and m.dst.label == "spin" for m in markers)
    want = columns(split_at_markers_scalar(program, trace, markers))
    got, counters = split_counters(program, trace, markers)
    assert columns(got) == want
    assert counters == {"markers.firings.index_builds": 1, "markers.firings.spans": 1}
    assert columns(split_at_markers_prescan(program, trace, markers)) == want

    b = trace.b.copy()
    b[np.nonzero(trace.kinds == K_BLOCK)[0][-1]] = 0x7FFF_FFFF
    bogus = Trace.from_columns(trace.kinds, trace.a, b, trace.c)
    want = columns(split_at_markers_scalar(program, bogus, markers))
    got, counters = split_counters(program, bogus, markers)
    assert columns(got) == want
    assert counters == {
        "markers.firings.index_builds": 1,
        "markers.firings.fallback.unknown_address": 1,
    }
    assert bogus.opens == "unknown_address"
    assert split_at_markers_prescan(program, bogus, markers) is None
    # the decline is kept: the next split neither builds nor walks twice
    _, counters = split_counters(program, bogus, markers)
    assert counters == {"markers.firings.fallback.unknown_address": 1}


def test_prescan_handles_recursive_call_markers(recursive_program, tmp_path):
    """Call markers on/into recursive procedures: only an outermost
    activation opens the head edge, every activation the body edge."""
    inp = ProgramInput("i", seed=5)
    trace = record_trace(Machine(recursive_program, inp).run())
    graph = build_call_loop_graph(recursive_program, [inp])
    markers = select_markers(graph, SelectionParams(ilower=50)).markers
    assert_all_arms_match(recursive_program, trace, markers, tmp_path)
    both = marker_set(
        "rec",
        marker(1, Node(NodeKind.LOOP_BODY, "main", "main:calls", "calls"), head("fib")),
        marker(2, head("fib"), body("fib"), merge=3),
    )
    assert_all_arms_match(recursive_program, trace, both, tmp_path)


def test_merged_loop_marker_inside_a_recursive_procedure(tmp_path):
    """Every-Nth counting resets on each entry of the loop, a recursive
    activation's included, and the outer activation's iterations count
    on from there — as the scalar splitter's counter does."""
    b = ProgramBuilder("recmerge")
    with b.proc("main"):
        with b.loop("calls", trips=5):
            b.call("r")
    with b.proc("r"):
        with b.loop("spin", trips=7):
            b.code(6)
            with b.if_(0.1):
                b.call("r")
        b.code(3)
    program = b.build()
    trace = record_trace(Machine(program, ProgramInput("i", seed=4)))
    assert (trace.kinds == K_CALL).sum() > 5  # it did recurse
    src, dst = loop_nodes(program, "spin")
    for n in (2, 3, 4):
        merged = marker_set("recmerge", marker(1, src, dst, merge=n))
        assert_all_arms_match(program, trace, merged, tmp_path / str(n))


# -- same-t firings, the ends of the run, edges that never open --------------


def edge_into(graph, kind, label):
    (edge,) = [e for e in graph.edges if e.dst.kind == kind and e.dst.label == label]
    return edge


def test_call_and_loop_entry_firing_at_the_same_t():
    """f opens with its loop, so each CALL row and the entry of f's loop
    share their t: the two firings collapse to the later (innermost)
    marker, at the CALL row."""
    b = ProgramBuilder("sameT")
    with b.proc("main"):
        with b.loop("outer", trips=6):
            b.code(3)
            b.call("f")
    with b.proc("f"):
        with b.loop("fl", trips=4):
            b.code(5)
    program = b.build()
    inp = ProgramInput("i", seed=1)
    trace = record_trace(Machine(program, inp))
    graph = build_call_loop_graph(program, [inp])
    call = edge_into(graph, NodeKind.PROC_HEAD, "f")
    entry = edge_into(graph, NodeKind.LOOP_HEAD, "fl")
    markers = marker_set(
        "sameT", marker(1, call.src, call.dst), marker(2, entry.src, entry.dst)
    )
    want = assert_all_arms_match(program, trace, markers)
    rows, _, _, phases = want
    assert len(rows) == 8  # prologue + one interval per call
    assert phases[1:] == [2] * 6
    assert (trace.kinds[rows[1:-1]] == K_CALL).all()


def test_firings_at_t0_and_at_the_end_of_the_trace(tmp_path):
    """The entry procedure's edges open at t = 0 (row -1): the last of
    them names the prologue.  A trace cut right after a CALL row opens
    the callee's edges at t = total: that firing's empty interval goes."""
    program = _nest()
    trace = record_trace(Machine(program, ProgramInput("i", seed=1)))
    last_call = int(np.flatnonzero(trace.kinds == K_CALL)[-1])
    cut = Trace(trace.ids[: last_call + 1], trace.table)
    graph = CallLoopProfiler(program).profile_trace(bare(trace))
    call = edge_into(graph, NodeKind.PROC_HEAD, "f")
    markers = marker_set(
        "nest",
        marker(1, Node(NodeKind.ROOT, proc=""), head("main")),
        marker(2, head("main"), body("main")),
        marker(3, call.src, call.dst),
    )
    rows, starts, lengths, phases = assert_all_arms_match(
        program, cut, markers, tmp_path
    )
    assert phases[0] == 2 and starts[0] == 0
    assert all(n > 0 for n in lengths)
    assert starts[-1] + lengths[-1] == int(cut.total_instructions)
    assert rows[-1] == len(cut) and rows[-2] < last_call


def test_marked_edge_the_trace_never_opens(toy_program, toy_split, tmp_path):
    """A marker on an edge of the program that the run never opens
    (main's body calling main) fires nowhere and changes nothing."""
    trace, markers = toy_split
    never = marker(99, body("main"), head("main"))
    with_never = MarkerSet(
        markers.program_name,
        markers.variant,
        markers.ilower,
        None,
        [*markers, never],
    )
    want = assert_all_arms_match(toy_program, trace, with_never, tmp_path)
    assert want == columns(split_at_markers_scalar(toy_program, trace, markers))
    fresh = bare(trace)
    index_trace(toy_program, fresh)
    assert fresh.opens.of(never.src, never.dst) is None


def test_prescan_empty_trace(toy_program, toy_split, tmp_path):
    """An empty trace still has the entry procedure's opens at t = 0."""
    _, markers = toy_split
    trace = record_trace(Machine(toy_program, ProgramInput("e", seed=1)).run())
    empty = Trace(trace.ids[:0], trace.table)
    want = assert_all_arms_match(toy_program, empty, markers, tmp_path)
    assert want[:3] == ([0, 0], [0], [0])  # one empty interval
    _, counters = split_counters(toy_program, bare(empty), markers)
    assert counters == {"markers.firings.index_builds": 1, "markers.firings.spans": 1}


def test_merged_marker_on_an_edge_into_a_head_falls_back(toy_program, toy_split):
    """Selection merges only loop head->body edges; a merged marker on
    an edge into a head node counts opens since the last open into its
    source, which the index does not hold: the scalar splitter runs."""
    trace, markers = toy_split
    call = next(m for m in markers if m.dst.kind == NodeKind.PROC_HEAD)
    merged = MarkerSet(
        markers.program_name,
        markers.variant,
        markers.ilower,
        None,
        [dataclasses.replace(m, merge_iterations=2) if m is call else m for m in markers],
    )
    want = columns(split_at_markers_scalar(toy_program, trace, merged))
    got, counters = split_counters(toy_program, bare(trace), merged)
    assert columns(got) == want
    assert counters == {
        "markers.firings.index_builds": 1,
        "markers.firings.fallback.merged_head": 1,
    }
    assert split_at_markers_prescan(toy_program, bare(trace), merged) is None


# -- declines and index reuse ----------------------------------------------------


def _stray_return(trace):
    return Trace.from_columns(
        np.append(trace.kinds, K_RETURN),
        np.append(trace.a, 0),
        np.append(trace.b, 0),
        np.append(trace.c, 0),
    )


def _unknown_address(trace):
    return with_block_row(trace, 5, b=0x7FFF_FFFF)


def _huge_block(trace):
    return with_block_row(trace, -3, c=2**32)


@pytest.mark.parametrize(
    "reason, spoil",
    [
        ("unknown_address", _unknown_address),
        ("off_header", "inner.header"),
        ("unbalanced", _stray_return),
        ("overflow", _huge_block),
    ],
)
def test_each_decline_falls_back_to_the_scalar_split(reason, spoil, tmp_path):
    program = _nest()
    trace = record_trace(Machine(program, ProgramInput("i", seed=1)))
    graph = CallLoopProfiler(program).profile_trace(bare(trace))
    markers = select_markers(graph, SelectionParams(ilower=20)).markers
    assert len(markers) > 1
    if isinstance(spoil, str):
        spoiled = without_block(trace, block_named(program, spoil), 0)
    else:
        spoiled = spoil(trace)
    want = columns(split_at_markers_scalar(program, spoiled, markers))
    got, counters = split_counters(program, spoiled, markers)
    assert columns(got) == want
    assert counters == {
        "markers.firings.index_builds": 1,
        f"markers.firings.fallback.{reason}": 1,
    }
    # the decline is spilled in place of an index, and read back
    reloaded = TraceStore(tmp_path).store("cd" * 32, spoiled, program).load()
    assert reloaded.opens == reason
    got, counters = split_counters(program, reloaded, markers)
    assert columns(got) == want
    assert counters == {f"markers.firings.fallback.{reason}": 1}


def test_split_after_a_profile_builds_nothing(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    graph = CallLoopProfiler(toy_program).profile_trace(trace)
    assert trace.opens is not None
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    got, counters = split_counters(toy_program, trace, markers)
    assert counters == {"markers.firings.spans": 1}
    assert columns(got) == columns(split_at_markers_scalar(toy_program, trace, markers))
