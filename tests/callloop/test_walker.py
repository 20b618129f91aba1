"""Invariant tests for the shadow-stack trace walker."""

from collections import defaultdict

import pytest

from repro.callloop.graph import NodeKind, NodeTable
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine import Machine, record_trace
from repro.ir import ProgramBuilder, NormalTrips
from repro.ir.program import ProgramInput


class SpanRecorder(ContextHandler):
    """Records every open/close and checks pairing on the fly."""

    def __init__(self):
        self.open_spans = defaultdict(list)  # (src,dst) -> [t_open]
        self.closed = []  # (src, dst, t_open, t_close)

    def on_edge_open(self, src, dst, t, source):
        self.open_spans[(src, dst)].append(t)

    def on_edge_close(self, src, dst, t_open, t_close, source):
        stack = self.open_spans[(src, dst)]
        assert stack, f"close without open on edge {(src, dst)}"
        expected = stack.pop()
        assert expected == t_open, "spans must close LIFO per edge"
        assert t_close >= t_open
        self.closed.append((src, dst, t_open, t_close))


def walk(program, inp):
    trace = record_trace(Machine(program, inp).run())
    table = NodeTable(program)
    rec = SpanRecorder()
    total = ContextWalker(program, table).walk(trace, rec)
    return trace, table, rec, total


def test_all_spans_closed(toy_program, toy_input):
    _, _, rec, _ = walk(toy_program, toy_input)
    assert all(not spans for spans in rec.open_spans.values())


def test_total_matches_trace(toy_program, toy_input):
    trace, _, rec, total = walk(toy_program, toy_input)
    assert total == trace.total_instructions


def test_root_edge_spans_whole_run(toy_program, toy_input):
    trace, table, rec, total = walk(toy_program, toy_input)
    head_main = table.proc_head["main"]
    spans = [s for s in rec.closed if s[0] == 0 and s[1] == head_main]
    assert spans == [(0, head_main, 0, total)]


def test_loop_iterations_counted(loop_only_program):
    inp = ProgramInput("i", seed=3)
    trace, table, rec, _ = walk(loop_only_program, inp)
    # loop "t" runs 30 times; each iteration of t enters loops i and j once
    by_edge = defaultdict(int)
    for src, dst, _, _ in rec.closed:
        by_edge[(src, dst)] += 1
    heads = {
        table.node(k).label: (table.loop_head[h], table.loop_body[h])
        for h, k in zip(table.loop_head, table.loop_head.values())
    }
    # find loop t's head->body edge: 30 iterations
    label_of = {}
    for header, head_id in table.loop_head.items():
        label_of[table.node(head_id).label] = (head_id, table.loop_body[header])
    t_head, t_body = label_of["t"]
    i_head, i_body = label_of["i"]
    assert by_edge[(t_head, t_body)] == 30
    # loop i entered once per t iteration
    assert by_edge[(t_body, i_head)] == 30
    # ~100 iterations per entry, 30 entries
    assert 2500 < by_edge[(i_head, i_body)] < 3500


def test_hierarchical_counts_nest(toy_program, toy_input):
    """A parent edge's span covers the sum of its children's spans."""
    trace, table, rec, total = walk(toy_program, toy_input)
    head_main = table.proc_head["main"]
    body_main = table.proc_body["main"]
    # main body's hierarchical count == whole program
    spans = [s for s in rec.closed if (s[0], s[1]) == (head_main, body_main)]
    assert len(spans) == 1
    assert spans[0][3] - spans[0][2] == total


def test_call_edge_counts(toy_program, toy_input):
    trace, table, rec, _ = walk(toy_program, toy_input)
    work_head = table.proc_head["work"]
    spans = [s for s in rec.closed if s[1] == work_head]
    assert len(spans) == 20  # called once per outer-loop iteration


def test_recursion_head_body_semantics(recursive_program):
    inp = ProgramInput("i", seed=11)
    trace, table, rec, _ = walk(recursive_program, inp)
    fib_head = table.proc_head["fib"]
    fib_body = table.proc_body["fib"]
    head_spans = [s for s in rec.closed if s[1] == fib_head]
    body_spans = [s for s in rec.closed if (s[0], s[1]) == (fib_head, fib_body)]
    # top-level called 10 times; recursion adds body activations only
    assert len(head_spans) == 10
    assert len(body_spans) >= 10
    # head spans cover their recursive body spans
    assert sum(s[3] - s[2] for s in body_spans) >= sum(
        s[3] - s[2] for s in head_spans
    )


def test_sibling_loops_pop_correctly():
    b = ProgramBuilder("p")
    with b.proc("main"):
        with b.loop("first", trips=3):
            b.code(5)
        with b.loop("second", trips=4):
            b.code(5)
    prog = b.build()
    trace, table, rec, _ = walk(prog, ProgramInput("i"))
    counts = defaultdict(int)
    for src, dst, _, _ in rec.closed:
        counts[(table.node(src).label, table.node(dst).label)] += 1
    assert counts[("first", "first")] == 3  # head->body iterations
    assert counts[("second", "second")] == 4
    assert counts[("main", "first")] == 1  # one entry each
    assert counts[("main", "second")] == 1


def test_loop_followed_by_call_pops_loop():
    b = ProgramBuilder("p")
    with b.proc("main"):
        with b.loop("l", trips=2):
            b.code(3)
        b.call("f")
    with b.proc("f"):
        b.code(2)
    prog = b.build()
    trace, table, rec, _ = walk(prog, ProgramInput("i"))
    # the call edge must come from main's *body*, not from inside the loop
    f_head = table.proc_head["f"]
    body_main = table.proc_body["main"]
    spans = [s for s in rec.closed if s[1] == f_head]
    assert spans[0][0] == body_main


def test_call_inside_loop_attributed_to_loop_body(toy_program, toy_input):
    trace, table, rec, _ = walk(toy_program, toy_input)
    work_head = table.proc_head["work"]
    spans = [s for s in rec.closed if s[1] == work_head]
    src_kinds = {table.node(s[0]).kind for s in spans}
    assert src_kinds == {NodeKind.LOOP_BODY}
