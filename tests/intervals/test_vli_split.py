"""Sparsity-aware VLI split: pre-scan, batched fallback, edge cases.

The split's contract is that both fast paths — the vectorized candidate
pre-scan and the batched-collector walk it falls back to — are
bit-identical to the scalar per-event splitter.  These tests pin the
fallback triggers and corner cases the corpus-level ``split`` verify
check cannot target deterministically.
"""

import time
from unittest import mock

import numpy as np
import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.callloop.markers import MarkerSet
from repro.engine import Machine, Trace, record_trace
from repro.engine.events import K_BLOCK
from repro.intervals import (
    split_at_markers,
    split_at_markers_prescan,
    split_at_markers_scalar,
    vli,
)
from repro.intervals.vli import _finalize
from repro.ir import ProgramBuilder
from repro.ir.program import ProgramInput
from repro.telemetry import telemetry_session


def columns(intervals):
    return (
        intervals.row_bounds.tolist(),
        intervals.start_ts.tolist(),
        intervals.lengths.tolist(),
        intervals.phase_ids.tolist(),
    )


def walked(program, trace, markers):
    """The default path with the pre-scan declining: the batched walk."""
    with mock.patch.object(vli, "_prescan_boundaries", lambda *args: "forced"):
        return split_at_markers(program, trace, markers)


@pytest.fixture
def toy_split(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    graph = build_call_loop_graph(toy_program, [toy_input])
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    return trace, markers


# -- every path vs the scalar oracle ----------------------------------------


def test_all_paths_match_scalar(toy_program, toy_split):
    trace, markers = toy_split
    want = columns(split_at_markers_scalar(toy_program, trace, markers))
    assert columns(split_at_markers(toy_program, trace, markers)) == want
    prescan = split_at_markers_prescan(toy_program, trace, markers)
    assert prescan is not None
    assert columns(prescan) == want
    assert columns(walked(toy_program, trace, markers)) == want


def test_candidate_free_segment():
    """A long candidate-free stretch of the trace followed by one late
    firing: the split must find exactly that boundary."""
    from repro.callloop.graph import Node, NodeKind
    from repro.callloop.markers import PhaseMarker

    # one marker that fires exactly once, at the very end of the run:
    # everything before it is candidate-free
    b = ProgramBuilder("onefire")
    with b.proc("main"):
        with b.loop("big", trips=400):
            b.code(10)
        b.call("finish")
    with b.proc("finish"):
        b.code(5)
    program = b.build()
    trace = record_trace(Machine(program, ProgramInput("i", seed=2)).run())
    single = MarkerSet(
        "onefire",
        "base",
        100.0,
        None,
        [
            PhaseMarker(
                marker_id=1,
                src=Node(NodeKind.PROC_BODY, "main", label="main"),
                dst=Node(NodeKind.PROC_HEAD, "finish", label="finish"),
                avg_interval=1000.0,
                cov=0.0,
                max_interval=1000.0,
            )
        ],
    )
    want = columns(split_at_markers_scalar(program, trace, single))
    assert len(want[0]) == 3  # prologue + the one late interval
    assert columns(split_at_markers(program, trace, single)) == want
    assert columns(walked(program, trace, single)) == want


def test_one_row_trace_matches_scalar(toy_program, toy_split):
    trace, markers = toy_split
    tiny = Trace(trace.kinds[:1], trace.a[:1], trace.b[:1], trace.c[:1])
    want = columns(split_at_markers_scalar(toy_program, tiny, markers))
    assert columns(split_at_markers(toy_program, tiny, markers)) == want
    assert columns(walked(toy_program, tiny, markers)) == want


def test_merged_markers_match_scalar(loop_only_program):
    """Merged (every-Nth-iteration) markers: the pre-scan's modular
    arithmetic and the batched collector's run counters both reproduce
    the scalar splitter's per-event counter."""
    import dataclasses

    from repro.callloop.graph import NodeKind

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
    assert any(m.merge_iterations > 1 for m in markers)
    want = columns(split_at_markers_scalar(loop_only_program, trace, markers))
    assert columns(split_at_markers(loop_only_program, trace, markers)) == want
    assert columns(walked(loop_only_program, trace, markers)) == want


# -- prologue drop regression ------------------------------------------------


def test_prologue_drop_handles_piles_of_coincident_t0_firings(toy_program):
    """Many t==0 firings (deeply nested entry opens) once re-sliced the
    boundary list per firing — quadratic.  The index advance keeps it
    linear and the innermost (last) marker still names the first phase."""
    n = 200_000
    bounds = [(0, 0, mid) for mid in range(1, n + 1)]
    bounds.append((50, 700, 7))
    start = time.perf_counter()
    intervals = _finalize(toy_program, 100, 1000, bounds)
    elapsed = time.perf_counter() - start
    assert intervals.phase_ids.tolist() == [n, 7]
    assert intervals.start_ts.tolist() == [0, 700]
    assert intervals.lengths.tolist() == [700, 300]
    assert intervals.row_bounds.tolist() == [0, 50, 100]
    # the quadratic re-slice copied ~2e10 elements here; the index
    # advance is comfortably under a second even on a loaded machine
    assert elapsed < 2.0


# -- pre-scan fallback triggers ----------------------------------------------


def test_prescan_declines_loops_in_recursive_procedures():
    """A marked loop inside a recursive procedure breaks the pre-scan's
    static activation mapping; it must decline, and the shipping path
    must fall back with identical output."""
    b = ProgramBuilder("recloop")
    with b.proc("main"):
        with b.loop("calls", trips=6):
            b.call("r")
    with b.proc("r"):
        with b.loop("spin", trips=40):
            b.code(8)
        with b.if_(0.5):
            b.call("r")
    program = b.build()
    inp = ProgramInput("i", seed=11)
    trace = record_trace(Machine(program, inp).run())
    graph = build_call_loop_graph(program, [inp])
    markers = select_markers(graph, SelectionParams(ilower=100)).markers
    # only meaningful if selection marked the loop inside the recursion
    assert any(m.dst.kind.is_loop and m.dst.label == "spin" for m in markers)
    # one more input: a block address outside the program
    bogus = Trace(trace.kinds.copy(), trace.a.copy(), trace.b.copy(), trace.c.copy())
    bogus.b[np.nonzero(bogus.kinds == K_BLOCK)[0][-1]] = 0x7FFF_FFFF
    for walked_trace, reason in ((trace, "recursive_loop"), (bogus, "unknown_address")):
        assert split_at_markers_prescan(program, walked_trace, markers) is None
        want = columns(split_at_markers_scalar(program, walked_trace, markers))
        with telemetry_session() as tm:
            assert columns(split_at_markers(program, walked_trace, markers)) == want
        declines = {
            k: v
            for k, v in tm.metrics.counters.items()
            if k.startswith("vli.split.prescan")
        }
        assert declines == {
            "vli.split.prescan_fallbacks": 1,
            f"vli.split.prescan_fallbacks.{reason}": 1,
        }


def test_prescan_handles_recursive_call_markers(recursive_program):
    """Call markers on/into recursive procedures stay vectorizable (the
    outermost-activation mask handles re-entry); only loops inside the
    recursion force the fallback."""
    inp = ProgramInput("i", seed=5)
    trace = record_trace(Machine(recursive_program, inp).run())
    graph = build_call_loop_graph(recursive_program, [inp])
    markers = select_markers(graph, SelectionParams(ilower=50)).markers
    want = columns(split_at_markers_scalar(recursive_program, trace, markers))
    prescan = split_at_markers_prescan(recursive_program, trace, markers)
    if prescan is not None:
        assert columns(prescan) == want
    assert columns(split_at_markers(recursive_program, trace, markers)) == want


def test_prescan_empty_trace(toy_program, toy_split):
    _, markers = toy_split
    trace = record_trace(Machine(toy_program, ProgramInput("e", seed=1)).run())
    empty = Trace(trace.kinds[:0], trace.a[:0], trace.b[:0], trace.c[:0])
    want = columns(split_at_markers_scalar(toy_program, empty, markers))
    assert columns(split_at_markers(toy_program, empty, markers)) == want
