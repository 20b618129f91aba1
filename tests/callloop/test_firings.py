"""marker_firings: the span-index gather equals the walk collector.

Every consumer of marker firings — the VLI split, the cross-binary
marker trace and the phase monitor — reads them from
:func:`~repro.callloop.markers.marker_firings`.  These tests pin the
gather against :func:`~repro.callloop.markers.marker_firings_scalar`,
bit for bit and uncollapsed, on the bundled ref traces with the plain
and the max-limit marker sets (the latter's merged loop markers fire
every Nth iteration), on recompiled builds with mapped markers, and
through both fallbacks.
"""

import dataclasses

import numpy as np
import pytest

from repro.callloop import (
    CallLoopProfiler,
    LimitParams,
    SelectionParams,
    map_markers,
    select_markers,
    select_markers_with_limit,
)
from repro.callloop.graph import NodeKind
from repro.callloop.markers import MarkerSet, marker_firings, marker_firings_scalar
from repro.engine import Machine, Trace, record_trace
from repro.engine.events import K_BLOCK
from repro.ir.linker import ALPHA_O0, ALPHA_PEAK, X86_LINUX, link
from repro.telemetry import telemetry_session
from repro.workloads import all_workloads, get_workload

NAMES = [w.name for w in all_workloads()]


def marker_sets(graph):
    """The plain selection and the max-limit selection."""
    return [
        select_markers(graph, SelectionParams(ilower=10_000)).markers,
        select_markers_with_limit(
            graph, LimitParams(ilower=10_000, max_limit=200_000)
        ).markers,
    ]


def assert_gather_matches_walk(program, trace, markers):
    """The gather from a fresh index equals the walk, dtypes included."""
    bare = Trace(trace.ids, trace.table)
    got = marker_firings(program, bare, markers)
    want = marker_firings_scalar(program, trace, markers)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert g.tobytes() == w.tobytes()
    return got


def firing_counters(program, trace, markers):
    with telemetry_session() as tm:
        got = marker_firings(program, trace, markers)
    counters = {
        k: v for k, v in tm.metrics.counters.items() if k.startswith("markers.firings.")
    }
    return got, counters


@pytest.fixture(scope="module")
def ref_runs():
    """(program, ref trace, [plain, limit]) per workload, built once."""
    cache = {}

    def get(name):
        if name not in cache:
            wl = get_workload(name)
            program = wl.build()
            trace = record_trace(Machine(program, wl.ref_input))
            graph = CallLoopProfiler(program).profile_trace(trace)
            cache[name] = (program, trace, marker_sets(graph))
        return cache[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_gather_equals_walk_on_ref_traces(ref_runs, name):
    program, trace, sets = ref_runs(name)
    for markers in sets:
        rows, ts, _ = assert_gather_matches_walk(program, trace, markers)
        assert len(ts) > 0
        assert (np.diff(ts) >= 0).all()  # execution order
        assert (rows >= -1).all() and (rows < len(trace)).all()


def test_limit_sets_exercise_merged_markers(ref_runs):
    merged = [
        m for name in NAMES for m in ref_runs(name)[2][1] if m.merge_iterations > 1
    ]
    assert merged and all(m.dst.kind == NodeKind.LOOP_BODY for m in merged)


@pytest.mark.parametrize(
    "variant", [ALPHA_O0, ALPHA_PEAK, X86_LINUX], ids=lambda v: v.name
)
def test_gather_equals_walk_on_recompiled_builds(ref_runs, variant):
    """Markers selected on the base binary, mapped onto a recompilation,
    fire in the same order there — from the index as from the walk."""
    for name in NAMES:
        program, trace, sets = ref_runs(name)
        target = link(program, variant)
        target_trace = record_trace(Machine(target, get_workload(name).ref_input))
        for markers in sets:
            mapped = map_markers(markers, target).markers
            _, _, got = assert_gather_matches_walk(target, target_trace, mapped)
            _, _, base = marker_firings(program, trace, markers)
            assert got.tolist() == base.tolist()


def test_an_indexed_trace_counts_spans(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    graph = CallLoopProfiler(toy_program).profile_trace(trace)
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    _, counters = firing_counters(toy_program, trace, markers)
    assert counters == {"markers.firings.spans": 1}
    bare = Trace(trace.ids, trace.table)
    _, counters = firing_counters(toy_program, bare, markers)
    assert counters == {"markers.firings.index_builds": 1, "markers.firings.spans": 1}


def test_a_declined_trace_walks_and_counts_its_reason(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    graph = CallLoopProfiler(toy_program).profile_trace(trace)
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    b = trace.b.copy()
    b[np.flatnonzero(trace.kinds == K_BLOCK)[-1]] = 0x7FFF_FFFF
    bogus = Trace.from_columns(trace.kinds, trace.a, b, trace.c)
    want = marker_firings_scalar(toy_program, bogus, markers)
    got, counters = firing_counters(toy_program, bogus, markers)
    assert counters == {
        "markers.firings.index_builds": 1,
        "markers.firings.fallback.unknown_address": 1,
    }
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    _, counters = firing_counters(toy_program, bogus, markers)
    assert counters == {"markers.firings.fallback.unknown_address": 1}


def test_a_merged_marker_into_a_head_walks_and_counts_its_reason(
    toy_program, toy_input
):
    """Selection merges only loop head->body edges; a merged marker on
    an edge into a head node counts opens since the last open into its
    source, which the index does not hold: the walk answers."""
    trace = record_trace(Machine(toy_program, toy_input))
    graph = CallLoopProfiler(toy_program).profile_trace(trace)
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    call = next(m for m in markers if m.dst.kind == NodeKind.PROC_HEAD)
    merged = MarkerSet(
        markers.program_name,
        markers.variant,
        markers.ilower,
        None,
        [dataclasses.replace(m, merge_iterations=2) if m is call else m for m in markers],
    )
    want = marker_firings_scalar(toy_program, trace, merged)
    got, counters = firing_counters(toy_program, trace, merged)
    assert counters == {"markers.firings.fallback.merged_head": 1}
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


def test_no_marker_fires_on_an_empty_set(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    empty = MarkerSet(toy_program.name, toy_program.variant, 500.0, None, [])
    for got in (
        marker_firings(toy_program, trace, empty),
        marker_firings_scalar(toy_program, trace, empty),
    ):
        assert [c.dtype for c in got] == [np.dtype(np.int64)] * 3
        assert [len(c) for c in got] == [0, 0, 0]
