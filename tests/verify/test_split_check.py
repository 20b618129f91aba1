"""Split verify wiring: clean on real code, loud on a broken fast path."""

import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.callloop.graph import NodeKind
from repro.callloop.markers import MarkerSet, PhaseMarker
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.intervals import vli
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
    """Break the pre-scan: it forgets the last marker firing."""
    real = vli._prescan_boundaries

    def broken(*args):
        got = real(*args)
        if isinstance(got, str):
            return got
        bounds, total = got
        return bounds[:-1], total

    monkeypatch.setattr(vli, "_prescan_boundaries", broken)


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
    assert _labels(mismatches) == {"default", "prescan"}


def test_diff_split_detects_broken_batched_fallback(monkeypatch):
    """A marked loop inside a recursive procedure makes the pre-scan
    decline, so the default path is the batched-collector walk; a hook
    that forgets marked back-edge runs must show up as a ``default``
    mismatch."""
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
    # mark spin's iterations: 40-trip runs reach the batched hook
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
            )
        ],
    )
    assert split_at_markers_prescan(program, trace, markers) is None
    assert diff_split(program, trace, markers) == []

    monkeypatch.setattr(
        vli._FastBoundaryCollector,
        "on_edge_iterations",
        lambda self, head, body, t_prev, ts, source: None,
    )
    mismatches = diff_split(program, trace, markers)
    assert mismatches
    assert _labels(mismatches) == {"default"}


def test_check_split_corpus_clean():
    result = check_split_corpus(["gzip"])
    assert result.ok, result.describe()
    assert result.checked == ["gzip"]
    assert result.prescanned == ["gzip"]
    assert "1 workload(s) match" in result.describe()


def test_check_split_corpus_reports_divergence(drop_last_prescan_firing):
    result = check_split_corpus(["gzip"])
    assert not result.ok
    assert result.failed == ["gzip"]
    assert result.details["gzip"]
    assert "DIVERGED gzip" in result.describe()
