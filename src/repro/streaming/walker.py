"""Push-based incremental shadow-stack walking of a live event stream.

The batch :class:`~repro.callloop.walker.ContextWalker` *pulls* a
complete trace through its loop and unwinds the shadow stack when the
iterator is exhausted; a live stream has no end until the producer says
so.  :class:`IncrementalWalker` keeps the identical state machine —
frames, per-frame loop stacks, outermost-activation call accounting —
as *instance* state instead of loop locals: packed rows arrive through
:meth:`feed` / :meth:`feed_rows` (the same ``(kind, a, b, c)`` column
representation a recorded :class:`~repro.engine.tracing.Trace` stores
and :meth:`~repro.engine.tracing.Trace.iter_chunks` serves, so recording
and streaming share one column format), and the unwind happens only on
:meth:`finish`.

A column chunk replays through the batch walker's bulk row loop
(:meth:`~repro.callloop.walker.ContextWalker._replay_rows`) with this
walker's frames as the shadow stack, so the state machine only sees the
rows that can move it.  Row-at-a-time :meth:`feed` keeps the scalar
:meth:`_step`, which is also the fallback for a chunk when the handler
observes individual blocks (overrides ``on_block``), the chunk is
shorter than :data:`BULK_MIN_CHUNK_ROWS`, or it holds a block address
outside the program.

Callback-for-callback equivalence with the batch walker — same
``on_edge_open`` / ``on_edge_close`` sequence, same row cursor, same
total — is pinned by the ``streaming`` verify check on every fuzz
iteration (:func:`repro.verify.diff.diff_streaming`), for a block
observer and an edge-only handler alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.callloop.graph import NodeTable
from repro.callloop.walker import ContextHandler, ContextWalker, _Frame, _LoopSpan
from repro.engine.events import K_BLOCK, K_BRANCH, K_CALL, K_RETURN
from repro.ir.program import Program
from repro.telemetry import get_telemetry

#: chunks shorter than this step row by row through :meth:`_step`.  The
#: bulk loop's numpy preprocessing costs ~30 µs per chunk whatever its
#: length, which the per-row saving repays only from about 64 rows on
#: (gzip and gcc train traces, 2-CPU Xeon VM: bulk at 64-row chunks
#: costs 1.0-1.5x the scalar step, at 128 rows 0.5-0.7x, at 4096 rows
#: 0.15-0.3x)
BULK_MIN_CHUNK_ROWS = 64


def chunk_length(kinds, a, b, c) -> int:
    """Rows in a packed-row column chunk; ``ValueError`` unless all four
    columns have the same length."""
    n = len(kinds)
    if not len(a) == len(b) == len(c) == n:
        raise ValueError(
            "packed-row columns must have equal lengths, got "
            f"kinds={n}, a={len(a)}, b={len(b)}, c={len(c)}"
        )
    return n


class IncrementalWalker:
    """Consumes packed rows one chunk at a time, reporting edge spans.

    Construction opens the entry procedure's edges (exactly as the batch
    walker does before its first row); each :meth:`feed` processes one
    packed row in O(1); :meth:`finish` unwinds whatever is still active
    and returns the total dynamic instruction count.  A finished walker
    rejects further rows.

    The handler contract is :class:`~repro.callloop.walker.ContextHandler`;
    ``walker.row`` is the row currently being processed, mirroring the
    batch walker's cursor, and ``walker.iter_rows`` holds the absolute
    rows of a batched back-edge run during ``on_edge_iterations``.
    """

    def __init__(
        self,
        program: Program,
        table: Optional[NodeTable] = None,
        handler: Optional[ContextHandler] = None,
    ):
        self.program = program
        self.table = table or NodeTable(program)
        self.handler = handler if handler is not None else ContextHandler()
        # Borrow the batch walker's static lookup state (source maps and
        # loop regions) so both walkers resolve identically; its bulk
        # row loop replays whole chunks.
        base = self._base = ContextWalker(program, self.table)
        self._site_source = base._site_source
        self._proc_source = base._proc_source
        self._loop_source = base._loop_source
        self._loops_by_header = base.loops_by_header
        self._proc_head = self.table.proc_head
        self._proc_body = self.table.proc_body
        self._loop_head_ids = self.table.loop_head
        self._loop_body_ids = self.table.loop_body
        self._proc_by_id = base._proc_by_id
        cls = type(self.handler)
        self._bulk_ok = cls.on_block is ContextHandler.on_block
        self._need_branch = cls.on_branch is not ContextHandler.on_branch

        #: dynamic instruction count so far
        self.t = 0
        #: row currently being processed (batch-walker cursor semantics)
        self.row = -1
        #: absolute rows of the current batched back-edge run (valid only
        #: inside an ``on_edge_iterations`` callback)
        self.iter_rows = None
        self._finished = False
        self._active: Dict[int, int] = {}

        # Open the entry procedure as if called from the root context.
        entry = program.procedures[program.entry]
        root = 0
        main_frame = _Frame(
            entry.proc_id,
            self._proc_head[entry.name],
            self._proc_body[entry.name],
            self.t,
            outermost=True,
            head_parent=root,
            site_source=self._proc_source.get(entry.proc_id),
        )
        self._active[entry.proc_id] = 1
        self.handler.on_edge_open(
            root, main_frame.head_node, self.t, main_frame.site_source
        )
        self.handler.on_edge_open(
            main_frame.head_node, main_frame.body_node, self.t, None
        )
        self._frames: List[_Frame] = [main_frame]

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def depth(self) -> int:
        """Current call depth (frames on the shadow stack)."""
        return len(self._frames)

    # -- feeding --------------------------------------------------------------

    def feed(self, kind: int, a: int, b: int, c: int) -> None:
        """Process one packed row."""
        if self._finished:
            raise RuntimeError("walker already finished; cannot feed rows")
        self._step(kind, a, b, c)

    def feed_rows(self, kinds, a, b, c) -> None:
        """Process one packed-row column chunk (``int8`` kinds + three
        ``int64`` operand columns, as stored in a recorded ``Trace`` and
        served by ``Trace.iter_chunks``).

        Raises ``ValueError`` — before any state changes — unless the
        four columns have equal lengths.
        """
        if self._finished:
            raise RuntimeError("walker already finished; cannot feed rows")
        n = chunk_length(kinds, a, b, c)
        tm = get_telemetry()
        if not self._bulk_ok:
            reason = "on_block"
        elif n < BULK_MIN_CHUNK_ROWS:
            reason = "short_chunk"
        else:
            base = self._base
            selected = base._interesting_rows(kinds, b, c, self._need_branch, self.t)
            if selected is not None:
                rows, ts, total = selected
                row0 = self.row + 1
                base._replay_rows(
                    self, self.handler, kinds, a, b, c,
                    rows, ts, row0, self._frames, self._active,
                )
                self.t = total
                self.row = row0 + n - 1
                if tm.enabled:
                    tm.counter("streaming.feed.bulk")
                return
            reason = "unknown_address"
        if tm.enabled:
            tm.counter(f"streaming.feed.scalar.{reason}")
        step = self._step
        for row in zip(kinds.tolist(), a.tolist(), b.tolist(), c.tolist()):
            step(*row)

    def _step(self, kind: int, a: int, b: int, c: int) -> None:
        handler = self.handler
        t = self.t
        frames = self._frames
        self.row += 1
        if kind == K_BLOCK:
            addr = b
            frame = frames[-1]
            ls = frame.loop_stack
            on_close = handler.on_edge_close
            # Leave loops whose static region no longer covers us.
            while ls:
                span = ls[-1]
                if span.header <= addr <= span.latch:
                    break
                ls.pop()
                on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
                on_close(span.parent_ctx, span.head_node, span.head_open_t, t, span.source)
            loop = self._loops_by_header.get(addr)
            if loop is not None:
                if ls and ls[-1].header == addr:
                    # back-edge arrival: iteration boundary
                    span = ls[-1]
                    on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
                    span.iter_open_t = t
                    handler.on_edge_open(span.head_node, span.body_node, t, span.source)
                else:
                    parent_ctx = ls[-1].body_node if ls else frame.body_node
                    head_node = self._loop_head_ids[addr]
                    body_node = self._loop_body_ids[addr]
                    source = self._loop_source.get(addr)
                    span = _LoopSpan(
                        addr,
                        loop.latch_branch_address,
                        head_node,
                        body_node,
                        parent_ctx,
                        t,
                        source,
                    )
                    ls.append(span)
                    handler.on_edge_open(parent_ctx, head_node, t, source)
                    handler.on_edge_open(head_node, body_node, t, source)
            handler.on_block(a, c, t)
            self.t = t + c
        elif kind == K_BRANCH:
            handler.on_branch(a, b, bool(c))
        elif kind == K_CALL:
            site_addr, callee_id = a, b
            proc = self._proc_by_id[callee_id]
            frame = frames[-1]
            ls = frame.loop_stack
            parent_ctx = ls[-1].body_node if ls else frame.body_node
            active = self._active
            outermost = active.get(callee_id, 0) == 0
            active[callee_id] = active.get(callee_id, 0) + 1
            source = self._site_source.get(site_addr)
            head_node = self._proc_head[proc.name]
            body_node = self._proc_body[proc.name]
            new_frame = _Frame(
                callee_id, head_node, body_node, t, outermost, parent_ctx, source
            )
            if outermost:
                handler.on_edge_open(parent_ctx, head_node, t, source)
            handler.on_edge_open(head_node, body_node, t, source)
            frames.append(new_frame)
        elif kind == K_RETURN:
            frame = frames.pop()
            ContextWalker._close_frame(frame, t, handler.on_edge_close)
            self._active[frame.proc_id] -= 1

    # -- end of stream --------------------------------------------------------

    def finish(self) -> int:
        """Unwind the remaining shadow stack; total dynamic instructions.

        Mirrors the batch walker's end-of-run unwind: every still-open
        frame and loop span closes at the final instruction count.
        """
        if self._finished:
            raise RuntimeError("walker already finished")
        self._finished = True
        self.row += 1
        t = self.t
        on_close = self.handler.on_edge_close
        frames = self._frames
        while frames:
            frame = frames.pop()
            ContextWalker._close_frame(frame, t, on_close)
            self._active[frame.proc_id] -= 1
        return t
