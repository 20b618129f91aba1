"""Split verify wiring: clean on real code, loud on a broken fast path."""

import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.callloop.graph import NodeKind
from repro.callloop.markers import MarkerSet, PhaseMarker
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.callloop import markers as marker_module
from repro.intervals.vli import split_at_markers_prescan
from repro.ir import ProgramBuilder
from repro.ir.program import ProgramInput
from repro.verify import check_split_corpus, diff_split


@pytest.fixture
def toy_split(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input))
    graph = build_call_loop_graph(toy_program, [toy_input])
    markers = select_markers(graph, SelectionParams(ilower=500)).markers
    return trace, markers


@pytest.fixture
def drop_last_prescan_firing(monkeypatch):
    """Break the firing gather: it forgets the last marker firing."""
    real = marker_module._gather

    def broken(*args):
        return tuple(col[:-1] for col in real(*args))

    monkeypatch.setattr(marker_module, "_gather", broken)


def _labels(mismatches):
    return {m.key.split()[0] for m in mismatches}


def test_diff_split_clean_on_fixture(toy_program, toy_split):
    trace, markers = toy_split
    assert split_at_markers_prescan(toy_program, trace, markers) is not None
    assert diff_split(toy_program, trace, markers) == []


def test_diff_split_detects_broken_prescan(
    toy_program, toy_split, drop_last_prescan_firing
):
    trace, markers = toy_split
    mismatches = diff_split(toy_program, trace, markers)
    assert mismatches
    assert all(m.kind == "split" for m in mismatches)
    assert _labels(mismatches) == {"bare", "reloaded"}
    # both the uncollapsed firings and the split made of them diverge
    keys = {m.key.split(" ", 1)[1] for m in mismatches}
    assert {"firing rows", "firing ts", "firing marker_ids"} <= keys


def _recloop_with_marked_spin():
    """A marked loop inside a recursive procedure (the case the pre-scan
    declined) and its trace."""
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
    trace = record_trace(Machine(program, inp))
    graph = build_call_loop_graph(program, [inp])
    edge = next(
        e
        for e in graph.edges
        if e.src.kind == NodeKind.LOOP_HEAD
        and e.dst.kind == NodeKind.LOOP_BODY
        and e.dst.label == "spin"
    )
    markers = MarkerSet(
        program.name,
        program.variant,
        1.0,
        None,
        [
            PhaseMarker(
                marker_id=1,
                src=edge.src,
                dst=edge.dst,
                avg_interval=edge.avg,
                cov=0.0,
                max_interval=edge.max,
                merge_iterations=3,
            )
        ],
    )
    return program, trace, markers


def test_diff_split_detects_a_broken_stored_index(monkeypatch):
    """The ``reloaded`` arm reads the index back from a trace-store
    spill: rows that do not survive the round trip show up there and
    nowhere else."""
    from repro.runner import traces

    program, trace, markers = _recloop_with_marked_spin()
    assert split_at_markers_prescan(program, trace, markers) is not None
    assert diff_split(program, trace, markers) == []

    real = traces._read

    def shifted(path):
        got = real(path)
        got.opens.rows = got.opens.rows + 1  # every open one row late
        return got

    monkeypatch.setattr(traces, "_read", shifted)
    mismatches = diff_split(program, trace, markers)
    assert mismatches
    assert _labels(mismatches) == {"reloaded"}
    assert "reloaded firing rows" in {m.key for m in mismatches}


def test_check_split_corpus_clean():
    result = check_split_corpus(["gzip"])
    assert result.ok, result.describe()
    assert result.checked == ["gzip"]
    assert result.indexed == ["gzip"]
    assert "1 workload(s) match" in result.describe()
    assert "(1 via span index)" in result.describe()


def test_check_split_corpus_reports_divergence(drop_last_prescan_firing):
    result = check_split_corpus(["gzip"])
    assert not result.ok
    assert result.failed == ["gzip"]
    assert result.details["gzip"]
    assert "DIVERGED gzip" in result.describe()
