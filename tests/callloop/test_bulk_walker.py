"""Bulk trace replay vs the scalar walker (the trace-pipeline tentpole)."""

import numpy as np
import pytest

from repro.callloop.graph import NodeTable
from repro.callloop.walker import BULK_MIN_CHUNK_ROWS, ContextHandler, ContextWalker
from repro.engine import Machine, record_trace
from repro.engine.events import K_BLOCK
from repro.engine.tracing import Trace


class EdgeLog(ContextHandler):
    """Every edge callback, tagged with the walker's row cursor."""

    def __init__(self, walker):
        self.walker = walker
        self.log = []

    def on_edge_open(self, src, dst, t, source):
        self.log.append(("open", src, dst, t, str(source), self.walker.row))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.log.append(
            ("close", src, dst, t_open, t_close, str(source), self.walker.row)
        )


def both_walks(program, trace, handler_cls=EdgeLog):
    table = NodeTable(program)
    scalar_walker = ContextWalker(program, table)
    scalar_log = handler_cls(scalar_walker)
    scalar_total = scalar_walker.walk_scalar(trace, scalar_log)
    bulk_walker = ContextWalker(program, table)
    bulk_log = handler_cls(bulk_walker)
    bulk_total = bulk_walker.walk(trace, bulk_log, bulk=True)
    return (scalar_total, scalar_log, scalar_walker), (bulk_total, bulk_log, bulk_walker)


@pytest.mark.parametrize("handler_cls", [EdgeLog])
@pytest.mark.parametrize(
    "fixture", ["toy_program", "recursive_program", "loop_only_program"]
)
def test_bulk_matches_scalar(request, toy_input, fixture, handler_cls):
    program = request.getfixturevalue(fixture)
    trace = record_trace(Machine(program, toy_input))
    (s_total, s_log, s_w), (b_total, b_log, b_w) = both_walks(
        program, trace, handler_cls
    )
    assert b_total == s_total
    assert b_log.log == s_log.log
    assert b_w.row == s_w.row


def test_bulk_matches_scalar_on_truncated_trace(toy_program, toy_input):
    """A cap-truncated trace (open frames unwound at trace end) replays
    identically through both paths."""
    trace = record_trace(Machine(toy_program, toy_input, max_instructions=3000))
    (s_total, s_log, _), (b_total, b_log, _) = both_walks(toy_program, trace)
    assert b_total == s_total
    assert b_log.log == s_log.log


def test_empty_trace_bulk(toy_program):
    trace = record_trace([])
    table = NodeTable(toy_program)
    walker = ContextWalker(toy_program, table)
    log = EdgeLog(walker)
    total = walker.walk(trace, log, bulk=True)
    walker2 = ContextWalker(toy_program, table)
    log2 = EdgeLog(walker2)
    assert total == walker2.walk_scalar(trace, log2)
    assert log.log == log2.log  # entry open/close pairs still fire


def test_unknown_address_falls_back_to_scalar(toy_program, toy_input):
    """Rows referencing addresses outside the program replay through the
    scalar fallback rather than crashing or diverging."""
    trace = record_trace(Machine(toy_program, toy_input))
    b = trace.b.copy()
    rows = np.nonzero(trace.kinds == K_BLOCK)[0]
    b[rows[len(rows) // 2]] = 0x7FFF_FFFF  # no such block address
    bogus = Trace.from_columns(trace.kinds, trace.a, b, trace.c)
    (s_total, s_log, _), (b_total, b_log, _) = both_walks(toy_program, bogus)
    assert b_total == s_total
    assert b_log.log == s_log.log


def test_dispatch_threshold(toy_program, toy_input):
    """Default dispatch: long traces go bulk, short ones scalar — and
    both agree with the scalar loop regardless."""
    trace = record_trace(Machine(toy_program, toy_input))
    assert len(trace) >= BULK_MIN_CHUNK_ROWS  # the fixture run is long enough
    table = NodeTable(toy_program)
    for n in (len(trace), BULK_MIN_CHUNK_ROWS - 1):
        walked = Trace(trace.ids[:n], trace.table)
        walker = ContextWalker(toy_program, table)
        auto = EdgeLog(walker)
        total_auto = walker.walk(walked, auto)
        walker2 = ContextWalker(toy_program, table)
        scalar = EdgeLog(walker2)
        total_scalar = walker2.walk_scalar(walked, scalar)
        assert total_auto == total_scalar
        assert auto.log == scalar.log


def test_scalar_fallbacks_are_counted_with_their_reason(toy_program, toy_input):
    """Under telemetry every walk, one chunk, counts either
    ``callloop.walk.bulk`` or one ``callloop.walk.scalar.<reason>``."""
    from repro.telemetry import telemetry_session

    trace = record_trace(Machine(toy_program, toy_input))
    b = trace.b.copy()
    b[np.nonzero(trace.kinds == K_BLOCK)[0][0]] = 0x7FFF_FFFF
    bogus = Trace.from_columns(trace.kinds, trace.a, b, trace.c)
    n = BULK_MIN_CHUNK_ROWS - 1
    short = Trace(trace.ids[:n], trace.table)
    table = NodeTable(toy_program)
    with telemetry_session() as tm:
        for walked in (trace, short, bogus):
            walker = ContextWalker(toy_program, table)
            walker.walk(walked, EdgeLog(walker))
    paths = {
        k: v
        for k, v in tm.metrics.counters.items()
        if k.startswith(("callloop.walk.bulk", "callloop.walk.scalar"))
    }
    assert paths == {
        "callloop.walk.bulk": 1,
        "callloop.walk.scalar.short_chunk": 1,
        "callloop.walk.scalar.unknown_address": 1,
    }
