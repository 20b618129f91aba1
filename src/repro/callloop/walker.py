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

The walker reports edge traversals to a handler:

* ``on_edge_open(src, dst, t, source)`` — the edge begins a span at
  dynamic instruction count *t*;
* ``on_edge_close(src, dst, t_open, t_close, source)`` — the span ends;
  ``t_close - t_open`` is the edge's *hierarchical instruction count*;
* ``on_block(block_id, size, t)`` — a block executes (t is the count
  *before* the block);
* ``on_branch(address, target, taken)`` — a conditional branch executes.

Edge endpoints are integer node ids from a :class:`NodeTable`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.callloop.graph import NodeTable
from repro.callloop.loops import StaticLoop
from repro.engine.events import K_BLOCK, K_BRANCH, K_CALL, K_RETURN
from repro.engine.tracing import Trace
from repro.ir.program import Program, SourceLoc, TermKind
from repro.telemetry import get_telemetry

#: traces shorter than this replay through the scalar walker — the bulk
#: mode's vectorized preprocessing only pays for itself on long traces
BULK_MIN_ROWS = 1024

#: minimum back-edge run length routed through ``on_edge_iterations``;
#: shorter runs fire the per-iteration callbacks directly.  The batch's
#: ``np.diff`` plus four reductions beat per-iteration callbacks only
#: past a few dozen iterations: over the corpus profile stage, 32 beats
#: 8 (perlbmk's strcopy runs, vortex's short loops) and 1024 (runs that
#: would batch well go per iteration); graphs are identical at every value
BATCH_MIN_RUN = 32


class ContextHandler:
    """Callback interface; subclass and override what you need."""

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
        per-iteration hierarchical instruction counts.  The bulk walker
        routes consecutive back-edge arrivals of one loop span here
        *only when the handler class overrides this method*; handlers
        that rely on per-iteration callbacks (or on ``walker.row``
        advancing per iteration) simply leave it alone.

        During the callback ``walker.iter_rows`` holds the absolute
        trace rows of the batched arrivals (int64 array aligned with
        *ts*), so handlers that record firing positions — the VLI
        splitter — see the same rows the per-iteration path would have
        reported through ``walker.row``.
        """
        pass  # pragma: no cover - dispatch checks the override, see walk()

    def on_block(self, block_id: int, size: int, t: int) -> None:
        pass

    def on_branch(self, address: int, target: int, taken: bool) -> None:
        pass


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
    """Walks a trace once, reporting edge spans to a handler.

    The walker reproduces the paper's node semantics:

    * a call to procedure P from context X opens the edge ``X -> P.head``
      only for the *outermost* activation (recursion keeps the head span
      open) and the edge ``P.head -> P.body`` for *every* activation;
    * executing the header block of loop L for the first time (loop entry)
      opens ``ctx -> L.head`` and ``L.head -> L.body``; re-executing it via
      the back-edge closes and reopens the head->body span (one per
      iteration); leaving the static loop region closes both.
    """

    def __init__(self, program: Program, table: NodeTable):
        self.program = program
        self.table = table
        #: trace row currently being processed (readable from handlers)
        self.row = -1
        #: absolute rows of the current batched back-edge run (valid
        #: only inside an ``on_edge_iterations`` callback, aligned with
        #: its ``ts`` argument)
        self.iter_rows: Optional[np.ndarray] = None
        self.loops_by_header: Dict[int, StaticLoop] = table.loops
        # Map call-site addresses to debug info (source locations).
        self._site_source: Dict[int, SourceLoc] = {}
        for block in program.blocks:
            if block.terminator.kind == TermKind.CALL:
                self._site_source[block.end_address] = block.source
        self._proc_source: Dict[int, SourceLoc] = {
            p.proc_id: p.source for p in program.procedures.values()
        }
        self._loop_source: Dict[int, SourceLoc] = {
            header: loop.source for header, loop in table.loops.items()
        }
        self._proc_by_id = {p.proc_id: p for p in program.procedures.values()}
        # Lazily built vectorized lookup tables for the bulk replay mode.
        self._addr_tables: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None

    def walk_events(self, events, handler: ContextHandler) -> int:
        """Process a *live* event stream (for online monitoring).

        Same semantics as :meth:`walk`, but consumes event objects as
        they are produced instead of a recorded trace.
        """
        from repro.engine.events import (
            BlockEvent,
            BranchEvent,
            CallEvent,
            ReturnEvent,
        )

        def packed():
            for ev in events:
                t = type(ev)
                if t is BlockEvent:
                    yield (K_BLOCK, ev.block_id, ev.address, ev.size)
                elif t is BranchEvent:
                    yield (K_BRANCH, ev.address, ev.target, 1 if ev.taken else 0)
                elif t is CallEvent:
                    yield (K_CALL, ev.site_address, ev.callee_id, 0)
                else:
                    yield (K_RETURN, ev.proc_id, 0, 0)

        tm = get_telemetry()
        if not tm.enabled:
            return self._walk_packed(packed(), handler, num_rows=None)
        with tm.span("callloop.walk_events"):
            total = self._walk_packed(packed(), handler, num_rows=None)
            tm.counter("callloop.walk.events", self.row)
            tm.counter("callloop.walk.instructions", total)
        return total

    def walk(
        self, trace: Trace, handler: ContextHandler, bulk: Optional[bool] = None
    ) -> int:
        """Process *trace*; returns total dynamic instructions.

        Long traces whose handler does not observe individual blocks
        (``on_block`` left as the base no-op) replay through the bulk
        mode: instruction counts come from a single ``cumsum`` over the
        block-size column, and the shadow stack is fed only the
        *interesting* rows — control events plus the small subset of
        blocks that can move a loop stack.  Handlers that do override
        ``on_block`` (or short traces, or traces with a block address
        outside the program) take the scalar path, counted under
        telemetry as ``callloop.walk.scalar.<reason>``.  The two paths
        produce identical callback sequences (pinned by the
        ``trace-pipeline`` verify check and fuzz suite).

        ``bulk`` overrides the length heuristic: ``True`` runs the bulk
        mode even on short traces (the verify harness uses this to pit
        it against :meth:`walk_scalar` on tiny fuzz programs), ``False``
        forces the scalar path.  An ineligible handler still walks
        scalar either way.
        """
        tm = get_telemetry()
        if not tm.enabled:
            return self._walk_dispatch(trace, handler, bulk)
        # Bulk-granularity instrumentation: one span around the whole
        # replay, event totals counted once after it — never per event.
        with tm.span("callloop.walk", events=len(trace)):
            total = self._walk_dispatch(trace, handler, bulk)
            tm.counter("callloop.walk.events", len(trace))
            tm.counter("callloop.walk.instructions", total)
        return total

    def walk_scalar(self, trace: Trace, handler: ContextHandler) -> int:
        """Process *trace* event-by-event — the bulk mode's oracle."""
        return self._walk_packed(trace.iter_packed(), handler, num_rows=len(trace))

    def _walk_dispatch(
        self, trace: Trace, handler: ContextHandler, bulk: Optional[bool] = None
    ) -> int:
        cls = type(handler)
        if bulk is None:
            bulk = len(trace) >= BULK_MIN_ROWS
        if not bulk:
            reason = "short_trace"
        elif cls.on_block is not ContextHandler.on_block:
            reason = "on_block"
        else:
            result = self._walk_bulk(
                trace, handler, cls.on_branch is not ContextHandler.on_branch
            )
            if result is not None:
                return result
            reason = "unknown_address"
        tm = get_telemetry()
        if tm.enabled:
            tm.counter(f"callloop.walk.scalar.{reason}")
        return self._walk_packed(trace.iter_packed(), handler, num_rows=len(trace))

    # -- bulk replay -------------------------------------------------------

    def _ensure_addr_tables(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted block-address table with per-address loop metadata.

        For every static block address: whether it is a loop header and
        a dense id for its *static loop chain* (the set of loop regions
        covering the address).  Two consecutive block rows in the same
        frame with equal chain ids, neither a header, cannot move the
        loop stack — that is what lets the bulk walker skip them.
        """
        if self._addr_tables is not None:
            return self._addr_tables
        loops = self.loops_by_header
        addrs = sorted({b.address for b in self.program.blocks})
        addr_arr = np.asarray(addrs, dtype=np.int64)
        is_header = np.zeros(len(addrs), dtype=bool)
        chain_ids = np.zeros(len(addrs), dtype=np.int64)
        chain_map: Dict[tuple, int] = {}
        for i, addr in enumerate(addrs):
            if addr in loops:
                is_header[i] = True
            chain = tuple(
                sorted(
                    h
                    for h, lp in loops.items()
                    if h <= addr <= lp.latch_branch_address
                )
            )
            chain_ids[i] = chain_map.setdefault(chain, len(chain_map))
        self._addr_tables = (addr_arr, is_header, chain_ids)
        return self._addr_tables

    def _walk_bulk(
        self, trace: Trace, handler: ContextHandler, need_branch: bool
    ) -> Optional[int]:
        """Vectorized replay of a whole trace.

        Sets up the entry frame around one :meth:`_interesting_rows` +
        :meth:`_replay_rows` pass and unwinds it at the end.  Returns
        ``None`` when the trace references addresses outside the program
        (caller falls back to the scalar walker).
        """
        kinds, b_col, c_col = trace.kinds, trace.b, trace.c
        selected = self._interesting_rows(kinds, b_col, c_col, need_branch, 0)
        if selected is None:
            return None
        rows, rt_arr, total = selected

        program = self.table.program
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
        active: Dict[int, int] = {entry.proc_id: 1}
        handler.on_edge_open(root, main_frame.head_node, 0, main_frame.site_source)
        handler.on_edge_open(main_frame.head_node, main_frame.body_node, 0, None)
        frames: List[_Frame] = [main_frame]

        self._replay_rows(
            self, handler, kinds, trace.a, b_col, c_col, rows, rt_arr, 0,
            frames, active,
        )
        self.row = len(kinds)
        on_close = handler.on_edge_close
        while frames:
            frame = frames.pop()
            self._close_frame(frame, total, on_close)
            active[frame.proc_id] -= 1
        return total

    def _interesting_rows(
        self,
        kinds: np.ndarray,
        b_col: np.ndarray,
        c_col: np.ndarray,
        need_branch: bool,
        t_start: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """The rows of one column chunk the state machine has to see.

        Instruction counts come from a single ``cumsum`` over the
        block-size column starting at *t_start*.  The rows kept are the
        control events (branches only when *need_branch*) plus the
        blocks that can move a loop stack: headers, the first block
        after a call/return (frame or region boundary), blocks whose
        static loop chain differs from the previous block's (region
        exit/entry), and the chunk's first block, whose predecessor the
        chunk cannot see.  Returns ``(rows, t_before, total)`` —
        chunk-relative row indexes, the instruction count before each
        of them, and the count at chunk end — or ``None`` when a block
        address lies outside the program, leaving that chunk to the
        scalar walker.
        """
        block_mask = kinds == K_BLOCK
        sizes = np.where(block_mask, c_col, 0)
        t_after = np.cumsum(sizes)
        total = t_start + int(t_after[-1]) if len(kinds) else t_start

        cr_mask = (kinds == K_CALL) | (kinds == K_RETURN)
        ctrl_mask = cr_mask | (kinds == K_BRANCH) if need_branch else cr_mask

        blk_rows = np.nonzero(block_mask)[0]
        if len(blk_rows):
            addr_arr, is_header, chain_ids = self._ensure_addr_tables()
            if len(addr_arr) == 0:
                return None
            baddrs = b_col[blk_rows]
            pos = np.searchsorted(addr_arr, baddrs)
            pos = np.minimum(pos, len(addr_arr) - 1)
            if not np.array_equal(addr_arr[pos], baddrs):
                return None  # unknown block address — let the oracle decide
            interesting = is_header[pos].copy()
            interesting[0] = True
            cr_at = np.cumsum(cr_mask)[blk_rows]
            ch = chain_ids[pos]
            interesting[1:] |= (cr_at[1:] != cr_at[:-1]) | (ch[1:] != ch[:-1])
            rows = np.concatenate((np.nonzero(ctrl_mask)[0], blk_rows[interesting]))
            rows.sort()
        else:
            rows = np.nonzero(ctrl_mask)[0]
        return rows, t_start + (t_after[rows] - sizes[rows]), total

    def _replay_rows(
        self,
        cursor,
        handler: ContextHandler,
        kinds: np.ndarray,
        a_col: np.ndarray,
        b_col: np.ndarray,
        c_col: np.ndarray,
        rows: np.ndarray,
        rt_arr: np.ndarray,
        row0: int,
        frames: List[_Frame],
        active: Dict[int, int],
    ) -> None:
        """Run the shadow-stack state machine over selected chunk rows.

        The one bulk row loop, shared by :meth:`_walk_bulk` (once per
        trace) and :class:`~repro.streaming.IncrementalWalker` (once per
        fed chunk).  *rows*/*rt_arr* come from :meth:`_interesting_rows`;
        *frames* and *active* (per-procedure activation counts) are the
        caller's shadow stack, updated in place; *row0* is the absolute
        row of the chunk's first row.  ``cursor.row`` (and, inside an
        ``on_edge_iterations`` callback, ``cursor.iter_rows``) report
        absolute rows exactly as the scalar walker would.  Consecutive
        back-edge arrivals of one loop span are absorbed in one tight
        loop — or, for a handler overriding ``on_edge_iterations``, one
        callback per run of at least :data:`BATCH_MIN_RUN`.
        """
        proc_head = self.table.proc_head
        proc_body = self.table.proc_body
        loop_head_ids = self.table.loop_head
        loop_body_ids = self.table.loop_body
        loops_by_header = self.loops_by_header
        proc_by_id = self._proc_by_id
        on_branch = handler.on_branch
        on_open = handler.on_edge_open
        on_close = handler.on_edge_close

        rk = kinds[rows].tolist()
        ra = a_col[rows].tolist()
        rb = b_col[rows].tolist()
        rc = c_col[rows].tolist()
        rt = rt_arr.tolist()
        rlist = (rows + row0).tolist() if row0 else rows.tolist()

        m = len(rlist)
        run_end = None
        rows_abs = None
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
            rows_abs = rows + row0 if row0 else rows

        j = 0
        while j < m:
            kind = rk[j]
            t = rt[j]
            cursor.row = rlist[j]
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
                        # Back-edge arrival.  Consecutive interesting rows
                        # with this same header address are guaranteed
                        # further back-edges of the same span (any exit or
                        # re-entry needs an intervening interesting row),
                        # so absorb the whole iteration run in one tight
                        # loop instead of re-dispatching per row — or, for
                        # a handler with a batch hook, in one callback.
                        span = ls[-1]
                        head_node = span.head_node
                        body_node = span.body_node
                        source = span.source
                        e = run_end[j] if run_end is not None else j
                        if e - j + 1 >= BATCH_MIN_RUN:
                            cursor.iter_rows = rows_abs[j : e + 1]
                            handler.on_edge_iterations(
                                head_node,
                                body_node,
                                span.iter_open_t,
                                rt_arr[j : e + 1],
                                source,
                            )
                            cursor.iter_rows = None
                            span.iter_open_t = rt[e]
                            j = e
                            cursor.row = rlist[e]
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
                                cursor.row = rlist[jn]
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
                # handler.on_block is the base no-op (bulk eligibility)
            elif kind == K_BRANCH:
                on_branch(ra[j], rb[j], bool(rc[j]))
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

    def _walk_packed(self, packed_events, handler: ContextHandler, num_rows) -> int:
        program = self.table.program
        entry = program.procedures[program.entry]
        proc_head = self.table.proc_head
        proc_body = self.table.proc_body
        loop_head_ids = self.table.loop_head
        loop_body_ids = self.table.loop_body
        loops_by_header = self.loops_by_header

        active: Dict[int, int] = {}
        t = 0

        # Open the entry procedure as if called from the root context.
        root = 0
        main_frame = _Frame(
            entry.proc_id,
            proc_head[entry.name],
            proc_body[entry.name],
            t,
            outermost=True,
            head_parent=root,
            site_source=self._proc_source.get(entry.proc_id),
        )
        active[entry.proc_id] = 1
        handler.on_edge_open(root, main_frame.head_node, t, main_frame.site_source)
        handler.on_edge_open(main_frame.head_node, main_frame.body_node, t, None)
        frames: List[_Frame] = [main_frame]

        proc_by_id = self._proc_by_id
        on_block = handler.on_block
        on_branch = handler.on_branch
        on_open = handler.on_edge_open
        on_close = handler.on_edge_close

        row = -1
        for kind, a, b, c in packed_events:
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
                on_block(a, c, t)
                t += c
            elif kind == K_BRANCH:
                on_branch(a, b, bool(c))
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

        # End of run: unwind whatever is still active (normally just main).
        self.row = num_rows if num_rows is not None else row + 1
        while frames:
            frame = frames.pop()
            self._close_frame(frame, t, on_close)
            active[frame.proc_id] -= 1
            if frame.outermost:
                pass  # head edge closed inside _close_frame
        return t

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
