"""Shadow call/loop stack walking of execution traces (paper Section 4.2).

This is the paper's profiling mechanism: "we keep track of a call stack
and a loop stack" while the instrumented program runs, and every push or
pop corresponds to traversing an edge of the call-loop graph.  Both the
call-loop profiler (which *builds* the annotated graph) and the
variable-length-interval splitter (which *applies* a marker set at run
time) need the same machinery: track, from the raw event stream, when
each call-loop graph edge opens and closes, maintaining per-frame loop
stacks driven purely by block addresses and statically discovered loop
regions — the information binary instrumentation has.

The walker reports edge spans, and nothing else, to a handler:

* ``on_edge_open(src, dst, t, source)`` — the edge begins a span at
  dynamic instruction count *t*;
* ``on_edge_close(src, dst, t_open, t_close, source)`` — the span ends;
  ``t_close - t_open`` is the edge's *hierarchical instruction count*;
* ``on_edge_iterations(head, body, t_prev, ts, source)`` — optionally,
  a run of loop back-edge arrivals in one call.

Per-block and per-branch statistics (BBVs, CPI, cache and branch
behaviour) are array passes over the trace columns, not walks.  Edge
endpoints are integer node ids from a :class:`NodeTable`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.callloop.graph import NodeTable
from repro.callloop.loops import StaticLoop
from repro.engine.events import K_BLOCK, K_CALL, K_RETURN
from repro.engine.tracing import Trace
from repro.ir.program import Program, SourceLoc
from repro.telemetry import get_telemetry

#: chunks (a whole trace is one) shorter than this take the scalar loop:
#: the bulk loop's numpy preprocessing costs tens of microseconds per
#: chunk whatever its length, which its per-row saving repays only on
#: longer chunks (measurements in docs/PERFORMANCE.md)
BULK_MIN_CHUNK_ROWS = 192

#: minimum back-edge run length routed through ``on_edge_iterations``;
#: shorter runs fire the per-iteration callbacks directly.  The batch's
#: ``np.diff`` plus four reductions beat per-iteration callbacks only
#: past a few dozen iterations: over the corpus profile stage, 32 beats
#: 8 (perlbmk's strcopy runs, vortex's short loops) and 1024 (runs that
#: would batch well go per iteration); graphs are identical at every value
BATCH_MIN_RUN = 32

_NOT_WALKING = "walker not started or already finished"


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


class ContextHandler:
    """Edge-span callback interface; subclass and override what you need."""

    def on_edge_open(self, src: int, dst: int, t: int, source: Optional[SourceLoc]) -> None:
        pass

    def on_edge_close(
        self,
        src: int,
        dst: int,
        t_open: int,
        t_close: int,
        source: Optional[SourceLoc],
    ) -> None:
        pass

    def on_edge_iterations(
        self,
        head: int,
        body: int,
        t_prev: int,
        ts: np.ndarray,
        source: Optional[SourceLoc],
    ) -> None:
        """Optional batch form of a loop back-edge run.

        Equivalent to, for each ``t`` in the int64 array ``ts`` (in
        order): ``on_edge_close(head, body, prev, t, source)`` then
        ``on_edge_open(head, body, t, source)`` with ``prev`` starting
        at *t_prev* — i.e. ``np.diff(ts, prepend=t_prev)`` are the
        per-iteration hierarchical instruction counts.  The bulk loop
        routes consecutive back-edge arrivals of one loop span here
        *only when the handler class overrides this method*; handlers
        that rely on per-iteration callbacks (or on ``walker.row``
        advancing per iteration) simply leave it alone.
        """
        pass  # pragma: no cover - _replay_rows checks the override


class _LoopSpan:
    """An active loop on a frame's loop stack."""

    __slots__ = (
        "header",
        "latch",
        "head_node",
        "body_node",
        "parent_ctx",
        "head_open_t",
        "iter_open_t",
        "source",
    )

    def __init__(self, header, latch, head_node, body_node, parent_ctx, t, source):
        self.header = header
        self.latch = latch
        self.head_node = head_node
        self.body_node = body_node
        self.parent_ctx = parent_ctx
        self.head_open_t = t
        self.iter_open_t = t
        self.source = source


class _Frame:
    """An active procedure invocation."""

    __slots__ = (
        "proc_id",
        "head_node",
        "body_node",
        "body_open_t",
        "outermost",
        "head_parent",
        "head_open_t",
        "site_source",
        "loop_stack",
    )

    def __init__(self, proc_id, head_node, body_node, t, outermost, head_parent, site_source):
        self.proc_id = proc_id
        self.head_node = head_node
        self.body_node = body_node
        self.body_open_t = t
        self.outermost = outermost
        self.head_parent = head_parent
        self.head_open_t = t
        self.site_source = site_source
        self.loop_stack: List[_LoopSpan] = []


class ContextWalker:
    """Walks traces, reporting edge spans to a handler.

    The walker reproduces the paper's node semantics:

    * a call to procedure P from context X opens the edge ``X -> P.head``
      only for the *outermost* activation (recursion keeps the head span
      open) and the edge ``P.head -> P.body`` for *every* activation;
    * executing the header block of loop L for the first time (loop entry)
      opens ``ctx -> L.head`` and ``L.head -> L.body``; re-executing it via
      the back-edge closes and reopens the head->body span (one per
      iteration); leaving the static loop region closes both.

    The walk state (frames, activation counts, ``t``, ``row``) lives on
    the walker, so one walk can be pushed in pieces: :meth:`start`
    resets it and opens the entry procedure's edges, :meth:`feed_rows`
    (a column chunk), :meth:`feed` (one row) and :meth:`feed_packed`
    (an iterable of rows) advance it, and :meth:`finish` unwinds it.
    :meth:`walk` is that sequence over a whole trace.  Two loops drive
    the state machine: the bulk row loop (:meth:`_interesting_rows` +
    :meth:`_replay_rows`), which sees only the rows that can move the
    shadow stack, and the scalar loop (:meth:`feed_packed`), which sees
    every row; :meth:`feed_rows` picks between them per chunk.
    """

    def __init__(self, program: Program, table: NodeTable):
        self.program = program
        self.table = table
        #: the handler of the walk in progress (``None`` before
        #: :meth:`start` and after :meth:`finish`)
        self.handler: Optional[ContextHandler] = None
        #: dynamic instruction count so far (updated once per fed chunk)
        self.t = 0
        #: trace row currently being processed (readable from handlers)
        self.row = -1
        self._frames: List[_Frame] = []
        self._active: Dict[int, int] = {}
        self.loops_by_header: Dict[int, StaticLoop] = table.loops
        self._site_source = table.site_source
        self._proc_source: Dict[int, SourceLoc] = {
            p.proc_id: p.source for p in program.procedures.values()
        }
        self._loop_source = table.loop_source
        self._proc_by_id = {p.proc_id: p for p in program.procedures.values()}

    @property
    def finished(self) -> bool:
        """No walk in progress (never started, or finished)."""
        return self.handler is None

    @property
    def depth(self) -> int:
        """Current call depth (frames on the shadow stack)."""
        return len(self._frames)

    # -- one walk: start, feed, finish ---------------------------------------

    def start(self, handler: ContextHandler) -> None:
        """Begin a walk into *handler*: reset the walk state and open the
        entry procedure's edges, as if it were called from the root."""
        self.handler = handler
        self.t = 0
        self.row = -1
        program = self.program
        entry = program.procedures[program.entry]
        root = 0
        main_frame = _Frame(
            entry.proc_id,
            self.table.proc_head[entry.name],
            self.table.proc_body[entry.name],
            0,
            outermost=True,
            head_parent=root,
            site_source=self._proc_source.get(entry.proc_id),
        )
        self._frames = [main_frame]
        self._active = {entry.proc_id: 1}
        handler.on_edge_open(root, main_frame.head_node, 0, main_frame.site_source)
        handler.on_edge_open(main_frame.head_node, main_frame.body_node, 0, None)

    def feed_rows(self, kinds, a, b, c, bulk: bool = False) -> None:
        """Process one packed-row column chunk (``int8`` kinds + three
        ``int64`` operand columns, as a recorded ``Trace`` derives them
        and ``Trace.iter_chunks`` serves them).

        A chunk of at least :data:`BULK_MIN_CHUNK_ROWS` rows replays
        through the bulk row loop: instruction counts come from one
        ``cumsum`` over the block-size column, and the shadow stack sees
        only the *interesting* rows.  A shorter chunk, or one holding a
        block address outside the program, takes the scalar loop.  Under
        telemetry each chunk counts ``callloop.walk.bulk`` or
        ``callloop.walk.scalar.<reason>``.
        Both loops fire identical callbacks at identical rows (pinned by
        the ``trace-pipeline`` and ``streaming`` verify checks).
        ``bulk=True`` runs the bulk loop on short chunks too (verify
        uses it to exercise that loop on tiny fuzz traces).

        Raises ``ValueError`` — before any state changes — unless the
        four columns have equal lengths.
        """
        if self.handler is None:
            raise RuntimeError(_NOT_WALKING)
        n = chunk_length(kinds, a, b, c)
        tm = get_telemetry()
        if n < BULK_MIN_CHUNK_ROWS and not bulk:
            reason = "short_chunk"
        else:
            selected = self._interesting_rows(kinds, b, c, self.t)
            if selected is not None:
                rows, ts, total = selected
                row0 = self.row + 1
                self._replay_rows(kinds, a, b, rows, ts, row0)
                self.t = total
                self.row = row0 + n - 1
                if tm.enabled:
                    tm.counter("callloop.walk.bulk")
                return
            reason = "unknown_address"
        if tm.enabled:
            tm.counter(f"callloop.walk.scalar.{reason}")
        self.feed_packed(zip(kinds.tolist(), a.tolist(), b.tolist(), c.tolist()))

    def feed(self, kind: int, a: int, b: int, c: int) -> None:
        """Process one packed row through the scalar loop."""
        self.feed_packed(((kind, a, b, c),))

    def finish(self) -> int:
        """End the walk: close every still-open frame and loop span at the
        final instruction count, which is returned."""
        handler = self.handler
        if handler is None:
            raise RuntimeError(_NOT_WALKING)
        self.handler = None
        self.row += 1
        t = self.t
        on_close = handler.on_edge_close
        frames = self._frames
        while frames:
            self._close_frame(frames.pop(), t, on_close)
        return t

    def walk(self, trace: Trace, handler: ContextHandler, bulk: bool = False) -> int:
        """Process *trace* as one chunk; returns total dynamic instructions.

        :meth:`start`, one :meth:`feed_rows` and :meth:`finish`, so the
        whole trace takes the bulk loop unless that chunk declines it;
        ``bulk`` is passed through.
        """
        tm = get_telemetry()
        # Bulk-granularity instrumentation: one span around the whole
        # walk, event totals counted once after it — never per event.
        with tm.span("callloop.walk", events=len(trace)):
            self.start(handler)
            self.feed_rows(trace.kinds, trace.a, trace.b, trace.c, bulk)
            total = self.finish()
        if tm.enabled:
            tm.counter("callloop.walk.events", len(trace))
            tm.counter("callloop.walk.instructions", total)
        return total

    def walk_scalar(self, trace: Trace, handler: ContextHandler) -> int:
        """Process *trace* through the scalar loop — the bulk loop's
        reference."""
        self.start(handler)
        self.feed_packed(trace.iter_packed())
        return self.finish()

    def feed_packed(self, packed: Iterable[Tuple[int, int, int, int]]) -> None:
        """Step the state machine through packed ``(kind, a, b, c)`` rows:
        the scalar loop, which looks at every row.

        The walk state is loaded into locals once per call and written
        back in a ``finally``: if the handler (or *packed*) raises, ``row``
        is the row being processed and ``t`` the count before it.
        """
        handler = self.handler
        if handler is None:
            raise RuntimeError(_NOT_WALKING)
        proc_head = self.table.proc_head
        proc_body = self.table.proc_body
        loop_head_ids = self.table.loop_head
        loop_body_ids = self.table.loop_body
        loops_by_header = self.loops_by_header
        proc_by_id = self._proc_by_id
        frames = self._frames
        active = self._active
        on_open = handler.on_edge_open
        on_close = handler.on_edge_close
        t = self.t
        row = self.row
        try:
            for kind, a, b, c in packed:
                row += 1
                self.row = row
                if kind == K_BLOCK:
                    addr = b
                    frame = frames[-1]
                    ls = frame.loop_stack
                    # Leave loops whose static region no longer covers us.
                    while ls:
                        span = ls[-1]
                        if span.header <= addr <= span.latch:
                            break
                        ls.pop()
                        on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
                        on_close(span.parent_ctx, span.head_node, span.head_open_t, t, span.source)
                    loop = loops_by_header.get(addr)
                    if loop is not None:
                        if ls and ls[-1].header == addr:
                            # back-edge arrival: iteration boundary
                            span = ls[-1]
                            on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
                            span.iter_open_t = t
                            on_open(span.head_node, span.body_node, t, span.source)
                        else:
                            parent_ctx = ls[-1].body_node if ls else frame.body_node
                            head_node = loop_head_ids[addr]
                            body_node = loop_body_ids[addr]
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
                            on_open(parent_ctx, head_node, t, source)
                            on_open(head_node, body_node, t, source)
                    t += c
                elif kind == K_CALL:
                    site_addr, callee_id = a, b
                    proc = proc_by_id[callee_id]
                    frame = frames[-1]
                    ls = frame.loop_stack
                    parent_ctx = ls[-1].body_node if ls else frame.body_node
                    outermost = active.get(callee_id, 0) == 0
                    active[callee_id] = active.get(callee_id, 0) + 1
                    source = self._site_source.get(site_addr)
                    head_node = proc_head[proc.name]
                    body_node = proc_body[proc.name]
                    new_frame = _Frame(
                        callee_id, head_node, body_node, t, outermost, parent_ctx, source
                    )
                    if outermost:
                        on_open(parent_ctx, head_node, t, source)
                    on_open(head_node, body_node, t, source)
                    frames.append(new_frame)
                elif kind == K_RETURN:
                    frame = frames.pop()
                    self._close_frame(frame, t, on_close)
                    active[frame.proc_id] -= 1
        finally:
            self.t = t

    # -- bulk replay -------------------------------------------------------

    def _ensure_addr_tables(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted block-address table with per-address loop metadata.

        For every static block address: whether it is a loop header and
        a dense id for its *static loop chain* (the set of loop regions
        covering the address), read from the node table's
        :class:`~repro.callloop.graph.StaticChains`.  Two consecutive
        block rows in the same frame with equal chain ids, neither a
        header, cannot move the loop stack — that is what lets the bulk
        loop skip them.
        """
        chains = self.table.chains
        return chains.addresses, chains.address_is_header, chains.address_chain

    def _interesting_rows(
        self,
        kinds: np.ndarray,
        b_col: np.ndarray,
        c_col: np.ndarray,
        t_start: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """The rows of one column chunk the state machine has to see.

        Instruction counts come from a single ``cumsum`` over the
        block-size column starting at *t_start*.  The rows kept are the
        calls and returns plus the blocks that can move a loop stack:
        headers, the first block
        after a call/return (frame or region boundary), blocks whose
        static loop chain differs from the previous block's (region
        exit/entry), and the chunk's first block, whose predecessor the
        chunk cannot see.  Returns ``(rows, t_before, total)`` —
        chunk-relative row indexes, the instruction count before each
        of them, and the count at chunk end — or ``None`` when a block
        address lies outside the program, leaving that chunk to the
        scalar loop.
        """
        block_mask = kinds == K_BLOCK
        sizes = np.where(block_mask, c_col, 0)
        t_after = np.cumsum(sizes)
        total = t_start + int(t_after[-1]) if len(kinds) else t_start

        cr_mask = (kinds == K_CALL) | (kinds == K_RETURN)

        blk_rows = np.nonzero(block_mask)[0]
        if len(blk_rows):
            addr_arr, is_header, chain_ids = self._ensure_addr_tables()
            if len(addr_arr) == 0:
                return None
            baddrs = b_col[blk_rows]
            pos = np.searchsorted(addr_arr, baddrs)
            pos = np.minimum(pos, len(addr_arr) - 1)
            if not np.array_equal(addr_arr[pos], baddrs):
                return None  # unknown block address — the scalar loop takes it
            interesting = is_header[pos].copy()
            interesting[0] = True
            cr_at = np.cumsum(cr_mask)[blk_rows]
            ch = chain_ids[pos]
            interesting[1:] |= (cr_at[1:] != cr_at[:-1]) | (ch[1:] != ch[:-1])
            rows = np.concatenate((np.nonzero(cr_mask)[0], blk_rows[interesting]))
            rows.sort()
        else:
            rows = np.nonzero(cr_mask)[0]
        return rows, t_start + (t_after[rows] - sizes[rows]), total

    def _replay_rows(
        self,
        kinds: np.ndarray,
        a_col: np.ndarray,
        b_col: np.ndarray,
        rows: np.ndarray,
        rt_arr: np.ndarray,
        row0: int,
    ) -> None:
        """Run the shadow-stack state machine over selected chunk rows.

        The bulk row loop, run by :meth:`feed_rows` once per chunk.
        *rows*/*rt_arr* come from :meth:`_interesting_rows`; the walker's
        frames and activation counts are updated in place; *row0* is the
        absolute row of the chunk's first row.  ``self.row`` reports
        absolute rows exactly as the scalar loop would, and if the
        handler raises, ``t`` is left, as the scalar loop leaves it, at
        the count before the row being processed.  Consecutive
        back-edge arrivals of one loop span are absorbed in one tight
        loop — or, for a handler overriding ``on_edge_iterations``, one
        callback per run of at least :data:`BATCH_MIN_RUN`.
        """
        handler = self.handler
        frames = self._frames
        active = self._active
        proc_head = self.table.proc_head
        proc_body = self.table.proc_body
        loop_head_ids = self.table.loop_head
        loop_body_ids = self.table.loop_body
        loops_by_header = self.loops_by_header
        proc_by_id = self._proc_by_id
        on_open = handler.on_edge_open
        on_close = handler.on_edge_close

        rk = kinds[rows].tolist()
        ra = a_col[rows].tolist()
        rb = b_col[rows].tolist()
        rt = rt_arr.tolist()
        rlist = (rows + row0).tolist() if row0 else rows.tolist()

        m = len(rlist)
        run_end = None
        if (
            type(handler).on_edge_iterations
            is not ContextHandler.on_edge_iterations
        ) and m:
            # Batched back-edge dispatch: precompute, for every selected
            # row, the end of the maximal run of consecutive block rows
            # sharing its address (the same runs the absorb loop below
            # walks one row at a time).
            rk_arr = kinds[rows]
            rb_arr = b_col[rows]
            is_blk = rk_arr == K_BLOCK
            same = is_blk[1:] & is_blk[:-1] & (rb_arr[1:] == rb_arr[:-1])
            idx = np.arange(m)
            ends = np.where(np.append(~same, True), idx, m)
            run_end = np.minimum.accumulate(ends[::-1])[::-1].tolist()

        t = self.t
        j = 0
        try:
            while j < m:
                kind = rk[j]
                t = rt[j]
                self.row = rlist[j]
                if kind == K_BLOCK:
                    addr = rb[j]
                    frame = frames[-1]
                    ls = frame.loop_stack
                    while ls:
                        span = ls[-1]
                        if span.header <= addr <= span.latch:
                            break
                        ls.pop()
                        on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
                        on_close(span.parent_ctx, span.head_node, span.head_open_t, t, span.source)
                    loop = loops_by_header.get(addr)
                    if loop is not None:
                        if ls and ls[-1].header == addr:
                            # Back-edge arrival.  Consecutive interesting
                            # rows with this same header address are
                            # guaranteed further back-edges of the same
                            # span (any exit or re-entry needs an
                            # intervening interesting row), so absorb the
                            # whole iteration run in one tight loop instead
                            # of re-dispatching per row — or, for a handler
                            # with a batch hook, in one callback.
                            span = ls[-1]
                            head_node = span.head_node
                            body_node = span.body_node
                            source = span.source
                            e = run_end[j] if run_end is not None else j
                            if e - j + 1 >= BATCH_MIN_RUN:
                                handler.on_edge_iterations(
                                    head_node,
                                    body_node,
                                    span.iter_open_t,
                                    rt_arr[j : e + 1],
                                    source,
                                )
                                span.iter_open_t = rt[e]
                                j = e
                                self.row = rlist[e]
                            else:
                                prev_t = span.iter_open_t
                                while True:
                                    on_close(head_node, body_node, prev_t, t, source)
                                    on_open(head_node, body_node, t, source)
                                    prev_t = t
                                    jn = j + 1
                                    if jn >= m or rk[jn] != K_BLOCK or rb[jn] != addr:
                                        break
                                    j = jn
                                    t = rt[jn]
                                    self.row = rlist[jn]
                                span.iter_open_t = prev_t
                        else:
                            parent_ctx = ls[-1].body_node if ls else frame.body_node
                            head_node = loop_head_ids[addr]
                            body_node = loop_body_ids[addr]
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
                            on_open(parent_ctx, head_node, t, source)
                            on_open(head_node, body_node, t, source)
                elif kind == K_CALL:
                    site_addr, callee_id = ra[j], rb[j]
                    proc = proc_by_id[callee_id]
                    frame = frames[-1]
                    ls = frame.loop_stack
                    parent_ctx = ls[-1].body_node if ls else frame.body_node
                    outermost = active.get(callee_id, 0) == 0
                    active[callee_id] = active.get(callee_id, 0) + 1
                    source = self._site_source.get(site_addr)
                    head_node = proc_head[proc.name]
                    body_node = proc_body[proc.name]
                    new_frame = _Frame(
                        callee_id, head_node, body_node, t, outermost, parent_ctx, source
                    )
                    if outermost:
                        on_open(parent_ctx, head_node, t, source)
                    on_open(head_node, body_node, t, source)
                    frames.append(new_frame)
                else:  # K_RETURN
                    frame = frames.pop()
                    self._close_frame(frame, t, on_close)
                    active[frame.proc_id] -= 1
                j += 1
        finally:
            self.t = t

    @staticmethod
    def _close_frame(frame: _Frame, t: int, on_close) -> None:
        ls = frame.loop_stack
        while ls:
            span = ls.pop()
            on_close(span.head_node, span.body_node, span.iter_open_t, t, span.source)
            on_close(span.parent_ctx, span.head_node, span.head_open_t, t, span.source)
        on_close(frame.head_node, frame.body_node, frame.body_open_t, t, None)
        if frame.outermost:
            on_close(
                frame.head_parent, frame.head_node, frame.head_open_t, t, frame.site_source
            )
