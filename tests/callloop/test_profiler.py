"""Unit tests for call-loop graph construction from traces."""

import pytest

from repro.callloop import CallLoopProfiler, build_call_loop_graph
from repro.callloop.graph import NodeKind, NodeTable
from repro.callloop.profiler import _MomentBuilder
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine import Machine, record_trace
from repro.ir.program import ProgramInput


def test_graph_totals(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    trace = record_trace(Machine(toy_program, toy_input).run())
    assert graph.total_instructions == trace.total_instructions


def test_head_body_identical_for_nonrecursive(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    for proc in ("work", "emit"):
        head = next(n for n in graph.nodes if n.kind == NodeKind.PROC_HEAD and n.proc == proc)
        body = next(n for n in graph.nodes if n.kind == NodeKind.PROC_BODY and n.proc == proc)
        head_in = graph.in_edges(head)
        hb = graph.find_edge(head, body)
        assert hb is not None
        # non-recursive: head in-count equals head->body count
        assert sum(e.count for e in head_in) == hb.count
        assert hb.avg == pytest.approx(
            sum(e.total for e in head_in) / hb.count
        )


def test_loop_head_body_edge_counts(loop_only_program):
    inp = ProgramInput("i", seed=3)
    graph = build_call_loop_graph(loop_only_program, [inp])
    for node in graph.nodes:
        if node.kind == NodeKind.LOOP_HEAD:
            entries = sum(e.count for e in graph.in_edges(node))
            body_edge = graph.out_edges(node)[0]
            # iterations >= entries (each entry iterates at least once)
            assert body_edge.count >= entries


def test_multiple_inputs_merge(toy_program):
    inputs = [ProgramInput("a", seed=1), ProgramInput("b", seed=2)]
    graph = build_call_loop_graph(toy_program, inputs)
    single = build_call_loop_graph(toy_program, inputs[:1])
    root_edge_multi = next(e for e in graph.edges if e.src.kind == NodeKind.ROOT)
    root_edge_single = next(e for e in single.edges if e.src.kind == NodeKind.ROOT)
    assert root_edge_multi.count == 2
    assert root_edge_single.count == 1
    assert graph.total_instructions > single.total_instructions


def test_no_inputs_rejected(toy_program):
    with pytest.raises(ValueError):
        build_call_loop_graph(toy_program, [])


def test_profiler_incremental(toy_program, toy_input):
    profiler = CallLoopProfiler(toy_program)
    g1 = profiler.profile_input(toy_input)
    count_after_one = g1.find_edge(
        next(n for n in g1.nodes if n.kind == NodeKind.ROOT),
        next(n for n in g1.nodes if n.kind == NodeKind.PROC_HEAD and n.proc == "main"),
    ).count
    g2 = profiler.profile_input(toy_input.with_seed(99))
    assert g2 is g1  # same graph object accumulates
    root = next(n for n in g2.nodes if n.kind == NodeKind.ROOT)
    main_head = next(
        n for n in g2.nodes if n.kind == NodeKind.PROC_HEAD and n.proc == "main"
    )
    assert g2.find_edge(root, main_head).count == count_after_one + 1


def test_edge_conservation(toy_program, toy_input):
    """Total hierarchical instructions on the root edge == program total."""
    graph = build_call_loop_graph(toy_program, [toy_input])
    root_edge = next(e for e in graph.edges if e.src.kind == NodeKind.ROOT)
    assert root_edge.total == graph.total_instructions


def test_site_sources_recorded(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    call_edges = [
        e
        for e in graph.edges
        if e.dst.kind == NodeKind.PROC_HEAD and e.src.kind != NodeKind.ROOT
    ]
    assert call_edges
    assert all(e.site_sources for e in call_edges)


def test_summary_mentions_counts(toy_program, toy_input):
    graph = build_call_loop_graph(toy_program, [toy_input])
    text = graph.summary()
    assert "toy" in text and "edges" in text


def test_batched_iteration_hook_matches_per_close(toy_program, toy_input):
    """The vectorized back-edge batches accumulate the same moments as
    per-iteration close callbacks."""

    class Unbatched(_MomentBuilder):
        # Restoring the base hook makes the walker dispatch per-close.
        on_edge_iterations = ContextHandler.on_edge_iterations

    trace = record_trace(Machine(toy_program, toy_input))
    table = NodeTable(toy_program)
    batched, unbatched = _MomentBuilder(), Unbatched()
    ContextWalker(toy_program, table).walk(trace, batched, bulk=True)
    ContextWalker(toy_program, table).walk(trace, unbatched, bulk=True)
    assert batched.edges.keys() == unbatched.edges.keys()
    for key, entry in batched.edges.items():
        other = unbatched.edges[key]
        assert (entry[0].count, entry[0].total, entry[0].sumsq) == (
            other[0].count, other[0].total, other[0].sumsq
        )
        assert entry[1] == other[1]
