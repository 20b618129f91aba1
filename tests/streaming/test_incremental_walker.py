"""IncrementalWalker vs the batch walker: callback-for-callback parity."""

import numpy as np
import pytest

from repro.callloop.graph import NodeTable
from repro.callloop.walker import BULK_MIN_CHUNK_ROWS, ContextHandler, ContextWalker
from repro.engine.events import K_BLOCK
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.ir.program import ProgramInput
from repro.streaming import IncrementalWalker
from repro.telemetry import telemetry_session


class _Log(ContextHandler):
    """Records every edge callback (and the block count) verbatim.

    Overrides ``on_block``, so chunk feeds take the scalar loop."""

    def __init__(self):
        self.events = []
        self.blocks = 0

    def on_edge_open(self, src, dst, t, source):
        self.events.append(("open", src, dst, t, str(source)))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.events.append(("close", src, dst, t_open, t_close, str(source)))

    def on_block(self, block_id, size, t):
        self.blocks += 1

    def on_branch(self, address, target, taken):
        self.events.append(("branch", address, target, taken))


class _EdgeLog(ContextHandler):
    """Edge callbacks only, tagged with the walker's row cursor.

    Leaves ``on_block`` alone, so chunk feeds take the bulk row loop.
    ``cursor`` is attached once the walker exists: an incremental
    walker fires its entry opens while it is being constructed, where
    the cursor reads -1 — as a fresh batch walker's does.
    """

    def __init__(self):
        self.events = []
        self.cursor = None

    def _row(self):
        return -1 if self.cursor is None else self.cursor.row

    def on_edge_open(self, src, dst, t, source):
        self.events.append(("open", src, dst, t, str(source), self._row()))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.events.append(
            ("close", src, dst, t_open, t_close, str(source), self._row())
        )


class _RunLog(_EdgeLog):
    """An :class:`_EdgeLog` that takes back-edge runs in batches and
    expands them at the rows ``iter_rows`` reports."""

    def __init__(self):
        super().__init__()
        self.batches = 0

    def on_edge_iterations(self, head, body, t_prev, ts, source):
        self.batches += 1
        rows = self.cursor.iter_rows
        assert len(rows) == len(ts)
        for t, row in zip(ts.tolist(), rows.tolist()):
            self.events.append(("close", head, body, t_prev, t, str(source), row))
            self.events.append(("open", head, body, t, str(source), row))
            t_prev = t


def _record(program, seed=7):
    return record_trace(Machine(program, ProgramInput("test", {}, seed=seed)))


def _batch_log(program, trace, handler_cls=_Log):
    table = NodeTable(program)
    log = handler_cls()
    walker = ContextWalker(program, table)
    log.cursor = walker
    total = walker.walk_scalar(trace, log)
    return log, total, walker.row


def _stream_log(program, trace, chunk_rows, handler_cls=_Log):
    table = NodeTable(program)
    log = handler_cls()
    walker = IncrementalWalker(program, table, handler=log)
    log.cursor = walker
    for chunk in trace.iter_chunks(chunk_rows):
        walker.feed_rows(*chunk)
    total = walker.finish()
    return log, total, walker.row


@pytest.mark.parametrize(
    "chunk_rows, handler_cls",
    [
        pytest.param(n, cls, id=f"{n}{suffix}")
        for cls, suffix in ((_Log, ""), (_EdgeLog, "-edges"), (_RunLog, "-runs"))
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
    loop (a block observer or a short chunk) and the bulk row loop
    alike, with the row cursor exact at every callback."""
    program = request.getfixturevalue(fixture)
    trace = _record(program)
    batch, batch_total, batch_row = _batch_log(program, trace, handler_cls)
    stream, stream_total, stream_row = _stream_log(
        program, trace, chunk_rows, handler_cls
    )
    assert stream.events == batch.events
    assert getattr(stream, "blocks", None) == getattr(batch, "blocks", None)
    assert stream_total == batch_total == trace.total_instructions
    assert stream_row == batch_row == len(trace.kinds)


def test_bulk_feed_batches_back_edge_runs(loop_only_program):
    """Whole-trace chunks hand long back-edge runs to the batch hook."""
    trace = _record(loop_only_program)
    log, _, _ = _stream_log(loop_only_program, trace, 1 << 20, _RunLog)
    assert log.batches > 0


def _counters(program, handler, chunks):
    with telemetry_session() as tm:
        walker = IncrementalWalker(program, handler=handler)
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
    assert _counters(toy_program, _Log(), chunks) == {
        "callloop.walk.scalar.on_block": len(chunks),
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
    walker = IncrementalWalker(toy_program, handler=scalar)
    scalar.cursor = walker
    for row in zip(kinds.tolist(), a.tolist(), b.tolist(), c.tolist()):
        walker.feed(*row)
    scalar_total = walker.finish()
    bulk = _EdgeLog()
    walker = IncrementalWalker(toy_program, handler=bulk)
    bulk.cursor = walker
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
    for handler in (_Log(), _EdgeLog()):
        walker = IncrementalWalker(toy_program, handler=handler)
        before = list(handler.events)
        with pytest.raises(ValueError, match="equal lengths"):
            walker.feed_rows(cols["kinds"], cols["a"], cols["b"], cols["c"])
        assert (walker.row, walker.t, walker.depth) == (-1, 0, 1)
        assert handler.events == before


class _Bomb(_Log):
    """A block observer that raises at the *fuse*-th block callback."""

    def __init__(self, fuse):
        super().__init__()
        self.fuse = fuse

    def on_block(self, block_id, size, t):
        super().on_block(block_id, size, t)
        if self.blocks == self.fuse:
            raise RuntimeError("handler failed")


def test_handler_raising_mid_chunk_leaves_cursor_at_last_row(toy_program):
    """The scalar loop keeps ``t`` in a local; a handler raising mid-chunk
    still leaves ``walker.row`` at the row it was processing and
    ``walker.t`` at the count before that row."""
    trace = _record(toy_program)
    fuse = trace.num_block_events // 2
    block_rows = np.nonzero(trace.kinds == K_BLOCK)[0]
    row = int(block_rows[fuse - 1])
    walker = IncrementalWalker(toy_program, handler=_Bomb(fuse))
    with pytest.raises(RuntimeError, match="handler failed"):
        for chunk in trace.iter_chunks(1000):
            walker.feed_rows(*chunk)
    assert walker.row == row
    assert walker.t == int(trace.c[block_rows[: fuse - 1]].sum())


def test_scalar_feed_matches_chunked(toy_program):
    trace = _record(toy_program)
    chunked, chunked_total, _ = _stream_log(toy_program, trace, 64)
    log = _Log()
    walker = IncrementalWalker(toy_program, handler=log)
    for kind, a, b, c in trace.iter_packed():
        walker.feed(kind, a, b, c)
    assert walker.finish() == chunked_total
    assert log.events == chunked.events


def test_entry_edges_open_at_construction(toy_program):
    log = _Log()
    IncrementalWalker(toy_program, handler=log)
    # root -> main.head and main.head -> main.body, both at t=0
    assert [e[:2] for e in log.events[:2]] == [("open", 0), ("open", 1)]
    assert all(e[3] == 0 for e in log.events[:2])


def test_finished_walker_rejects_feeds(toy_program):
    trace = _record(toy_program)
    walker = IncrementalWalker(toy_program, handler=_Log())
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
    walker = IncrementalWalker(toy_program, handler=log)
    walker.feed_rows(trace.kinds[:cut], trace.a[:cut], trace.b[:cut], trace.c[:cut])
    walker.finish()
    opens = [e[1:3] for e in log.events if e[0] == "open"]
    closes = [e[1:3] for e in log.events if e[0] == "close"]
    # every opened edge span is closed (pairwise multiset equality)
    assert sorted(opens) == sorted(closes)


def test_depth_tracks_call_stack(recursive_program):
    trace = _record(recursive_program)
    walker = IncrementalWalker(recursive_program, handler=_Log())
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
