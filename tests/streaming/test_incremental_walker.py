"""A walk pushed in chunks vs the whole-trace scalar walk: callback-for-
callback parity, through the bulk row loop and the scalar loop."""

import numpy as np
import pytest

from repro.callloop.graph import NodeTable
from repro.callloop.walker import BULK_MIN_CHUNK_ROWS, ContextHandler, ContextWalker
from repro.engine.events import K_BLOCK
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.ir.program import ProgramInput
from repro.telemetry import telemetry_session


class _Log(ContextHandler):
    """Records every edge callback verbatim, without the row cursor."""

    def __init__(self):
        self.events = []

    def on_edge_open(self, src, dst, t, source):
        self.events.append(("open", src, dst, t, str(source)))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.events.append(("close", src, dst, t_open, t_close, str(source)))


class _EdgeLog(ContextHandler):
    """Edge callbacks, tagged with the row cursor of the walker that
    :func:`_walker` attaches as ``cursor``."""

    def __init__(self):
        self.events = []

    def on_edge_open(self, src, dst, t, source):
        self.events.append(("open", src, dst, t, str(source), self.cursor.row))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.events.append(
            ("close", src, dst, t_open, t_close, str(source), self.cursor.row)
        )


class _RunLog(_Log):
    """A :class:`_Log` that takes back-edge runs in batches and expands
    them into the per-iteration closes and opens."""

    def __init__(self):
        super().__init__()
        self.batches = 0

    def on_edge_iterations(self, head, body, t_prev, ts, source):
        self.batches += 1
        for t in ts.tolist():
            self.on_edge_close(head, body, t_prev, t, source)
            self.on_edge_open(head, body, t, source)
            t_prev = t


def _record(program, seed=7):
    return record_trace(Machine(program, ProgramInput("test", {}, seed=seed)))


def _walker(program, handler):
    """A walker started into *handler*, attached first as its cursor."""
    walker = ContextWalker(program, NodeTable(program))
    handler.cursor = walker
    walker.start(handler)
    return walker


def _batch_log(program, trace, handler_cls=_Log):
    log = handler_cls()
    walker = ContextWalker(program, NodeTable(program))
    log.cursor = walker
    total = walker.walk_scalar(trace, log)
    return log, total, walker.row


def _stream_log(program, trace, chunk_rows, handler_cls=_Log):
    log = handler_cls()
    walker = _walker(program, log)
    for chunk in trace.iter_chunks(chunk_rows):
        walker.feed_rows(*chunk)
    total = walker.finish()
    return log, total, walker.row


@pytest.mark.parametrize(
    "chunk_rows, handler_cls",
    [
        pytest.param(n, cls, id=f"{n}{suffix}")
        for cls, suffix in ((_EdgeLog, "-edges"), (_RunLog, "-runs"))
        for n in sorted(
            {1, 7, 64, BULK_MIN_CHUNK_ROWS - 1, BULK_MIN_CHUNK_ROWS, 257, 1 << 20}
        )
    ],
)
@pytest.mark.parametrize(
    "fixture", ["toy_program", "recursive_program", "loop_only_program"]
)
def test_chunked_feed_matches_batch_walk(request, fixture, chunk_rows, handler_cls):
    """Any chunking of the stream produces the scalar batch walk's exact
    callback sequence, total, and final row cursor — through the scalar
    loop (short chunks) and the bulk row loop alike, with the row cursor
    exact at every callback, and batched back-edge runs expanding to
    the per-iteration callbacks."""
    program = request.getfixturevalue(fixture)
    trace = _record(program)
    batch, batch_total, batch_row = _batch_log(program, trace, handler_cls)
    stream, stream_total, stream_row = _stream_log(
        program, trace, chunk_rows, handler_cls
    )
    assert stream.events == batch.events
    assert stream_total == batch_total == trace.total_instructions
    assert stream_row == batch_row == len(trace.kinds)


def test_bulk_feed_batches_back_edge_runs(loop_only_program):
    """Whole-trace chunks hand long back-edge runs to the batch hook."""
    trace = _record(loop_only_program)
    log, _, _ = _stream_log(loop_only_program, trace, 1 << 20, _RunLog)
    assert log.batches > 0


def _counters(program, handler, chunks):
    with telemetry_session() as tm:
        walker = _walker(program, handler)
        for chunk in chunks:
            walker.feed_rows(*chunk)
        walker.finish()
    return {
        k: v
        for k, v in tm.metrics.counters.items()
        if k.startswith(("callloop.walk.bulk", "callloop.walk.scalar"))
    }


def test_feed_counters_name_the_path_each_chunk_took(toy_program):
    trace = _record(toy_program)
    chunks = list(trace.iter_chunks(4096))
    chunks.append(tuple(col[:BULK_MIN_CHUNK_ROWS - 1] for col in chunks[0]))
    assert _counters(toy_program, _EdgeLog(), chunks) == {
        "callloop.walk.bulk": len(chunks) - 1,
        "callloop.walk.scalar.short_chunk": 1,
    }
    kinds, a, b, c = (col.copy() for col in chunks[0])
    b[np.nonzero(kinds == K_BLOCK)[0][-1]] = 0x7FFF_FFFF  # no such block
    got = _counters(toy_program, _EdgeLog(), [(kinds, a, b, c)])
    assert got == {"callloop.walk.scalar.unknown_address": 1}


def test_unknown_address_chunk_falls_back_to_scalar(toy_program):
    """A chunk holding an address outside the program steps row by row;
    the chunks around it stay bulk, and the callbacks still match."""
    trace = _record(toy_program)
    kinds, a, b, c = (col.copy() for col in (trace.kinds, trace.a, trace.b, trace.c))
    blocks = np.nonzero(kinds == K_BLOCK)[0]
    b[blocks[len(blocks) // 2]] = 0x7FFF_FFFF
    scalar = _EdgeLog()
    walker = _walker(toy_program, scalar)
    for row in zip(kinds.tolist(), a.tolist(), b.tolist(), c.tolist()):
        walker.feed(*row)
    scalar_total = walker.finish()
    bulk = _EdgeLog()
    walker = _walker(toy_program, bulk)
    for start in range(0, len(kinds), 1000):
        stop = start + 1000
        walker.feed_rows(kinds[start:stop], a[start:stop], b[start:stop], c[start:stop])
    assert walker.finish() == scalar_total
    assert bulk.events == scalar.events


@pytest.mark.parametrize("short", ["kinds", "a", "b", "c"])
def test_unequal_columns_rejected_before_any_state_change(toy_program, short):
    """zip() would silently walk the shortest column; the chunk must be
    refused whole instead."""
    trace = _record(toy_program)
    cols = {name: getattr(trace, name)[:10] for name in ("kinds", "a", "b", "c")}
    cols[short] = cols[short][:6]
    handler = _EdgeLog()
    walker = _walker(toy_program, handler)
    before = list(handler.events)
    with pytest.raises(ValueError, match="equal lengths"):
        walker.feed_rows(cols["kinds"], cols["a"], cols["b"], cols["c"])
    assert (walker.row, walker.t, walker.depth) == (-1, 0, 1)
    assert handler.events == before


class _Bomb(ContextHandler):
    """Raises at the *fuse*-th edge open."""

    def __init__(self, fuse):
        self.fuse = fuse

    def on_edge_open(self, src, dst, t, source):
        self.fuse -= 1
        if self.fuse == 0:
            raise RuntimeError("handler failed")


def test_handler_raising_mid_chunk_leaves_cursor_at_last_row(toy_program):
    """Both loops keep ``t`` in a local; a handler raising mid-chunk
    leaves ``walker.row`` at the row being processed and ``walker.t`` at
    the count before that row (the count the failing open carries),
    whether the chunk took the bulk loop (one whole-trace chunk) or the
    scalar loop (short chunks)."""
    trace = _record(toy_program)
    fuse = 500
    ref, _, _ = _batch_log(toy_program, trace, _EdgeLog)
    _, _, _, t, _, row = [e for e in ref.events if e[0] == "open"][fuse - 1]
    assert t > 0 and BULK_MIN_CHUNK_ROWS < row < len(trace) - BULK_MIN_CHUNK_ROWS
    for chunk_rows in (len(trace), 64):
        walker = _walker(toy_program, _Bomb(fuse))
        with pytest.raises(RuntimeError, match="handler failed"):
            for chunk in trace.iter_chunks(chunk_rows):
                walker.feed_rows(*chunk)
        assert (walker.row, walker.t) == (row, t)


def test_scalar_feed_matches_chunked(toy_program):
    trace = _record(toy_program)
    chunked, chunked_total, _ = _stream_log(toy_program, trace, 64)
    log = _Log()
    walker = _walker(toy_program, log)
    for kind, a, b, c in trace.iter_packed():
        walker.feed(kind, a, b, c)
    assert walker.finish() == chunked_total
    assert log.events == chunked.events


def test_entry_edges_open_at_start(toy_program):
    log = _Log()
    _walker(toy_program, log)
    # root -> main.head and main.head -> main.body, both at t=0
    assert [e[:2] for e in log.events[:2]] == [("open", 0), ("open", 1)]
    assert all(e[3] == 0 for e in log.events[:2])


def test_finished_walker_rejects_feeds(toy_program):
    trace = _record(toy_program)
    walker = _walker(toy_program, _Log())
    for chunk in trace.iter_chunks(4096):
        walker.feed_rows(*chunk)
    walker.finish()
    assert walker.finished
    with pytest.raises(RuntimeError, match="finished"):
        walker.feed(0, 0, 0, 0)
    with pytest.raises(RuntimeError, match="finished"):
        walker.feed_rows(trace.kinds, trace.a, trace.b, trace.c)
    with pytest.raises(RuntimeError, match="finished"):
        walker.finish()


def test_finish_unwinds_open_frames(toy_program):
    """A stream cut mid-run still closes every open span at finish()."""
    trace = _record(toy_program)
    cut = len(trace.kinds) // 2
    log = _Log()
    walker = _walker(toy_program, log)
    walker.feed_rows(trace.kinds[:cut], trace.a[:cut], trace.b[:cut], trace.c[:cut])
    walker.finish()
    opens = [e[1:3] for e in log.events if e[0] == "open"]
    closes = [e[1:3] for e in log.events if e[0] == "close"]
    # every opened edge span is closed (pairwise multiset equality)
    assert sorted(opens) == sorted(closes)


def test_depth_tracks_call_stack(recursive_program):
    trace = _record(recursive_program)
    walker = _walker(recursive_program, _Log())
    max_depth = 0
    for kind, a, b, c in trace.iter_packed():
        walker.feed(kind, a, b, c)
        max_depth = max(max_depth, walker.depth)
    assert max_depth > 1  # recursion actually nested
    walker.finish()
    assert walker.depth == 0


def test_iter_chunks_covers_trace(toy_program):
    trace = _record(toy_program)
    chunks = list(trace.iter_chunks(100))
    assert sum(len(k) for k, _, _, _ in chunks) == len(trace.kinds)
    assert all(len(k) <= 100 for k, _, _, _ in chunks)
    with pytest.raises(ValueError):
        list(trace.iter_chunks(0))
