"""Edge spans from array passes: the call-loop profile without a walk.

The shadow-stack walk (:mod:`repro.callloop.walker`) steps through the
trace row by row.  :class:`SpanBuilder` finds the same edge traversals —
where each one opens and where it closes — with column passes over the
packed trace, and folds every edge's hierarchical instruction counts
(Section 4.2) into exact int64 moments.  It rests on one fact: while
every loop region is entered through its header, the shadow loop stack
at a block row is the static chain of the block's address
(:class:`~repro.callloop.graph.StaticChains`).

* **Frames.**  CALL and RETURN rows pair by the depth of the frame each
  one opens or closes: one stable sort on that depth puts every RETURN
  right after its CALL.  A frame's body edge spans CALL to RETURN (or
  the end of the trace); its head edge counts only for outermost
  activations, from per-callee running counts, and its source node is
  the caller's context at the CALL.
* **Runs.**  One chunked pass keeps three kinds of row: header rows,
  block rows whose chain differs from the previous block row's or that
  head a segment (the rows between two CALL/RETURN rows), and the
  CALL/RETURN rows.  Nearly every header row is a plain back-edge: its
  previous block row in the segment has the same chain.  The header
  rows, in row order, are cut into runs of one (loop, frame depth)
  group, a loop entry starting a new run.  Inside a run each header row
  closes the iteration the one before it opened, so those spans are
  count differences folded per run with ``reduceat``; a run that does
  not start with an entry closes the iteration its group's previous run
  left open.  Activations at one depth never interleave, so recursion
  needs no special case.
* **Loop events.**  The other loop-moving rows — chain changes and
  segment heads — each map their distinct (previous chain, chain,
  header) triple to a short event list, exits innermost first, then an
  entry or a back-edge, found by running the walker's own stack rule on
  the static chains.  RETURN rows and the end of the trace exit the
  loops of the frames they close.  An exit closes the last header row of
  its activation, and the k-th exit of a group pairs with its k-th entry
  for the edge into the loop's head.
* **Order.**  The edge map is in first-close order, like the walk's
  :class:`~repro.callloop.profiler._MomentBuilder`.  Each close's key is
  its trace row (the end of the trace counts as row *n*) times a bound
  on the closes of one row, plus its rank in that row: a row's exits
  come innermost first, two to an exit (body, then head), then its
  back-edge or its frame's body and head edges, as the walker calls
  them.

* **Opens.**  The same pass records where every edge opens — a CALL
  row opens its callee's body edge (and its head edge when outermost),
  a header row its loop's body edge (and, on entry, the edge into the
  loop's head) — as the trace's :class:`EdgeOpens` index, which the VLI
  split gathers marker firings from.

A trace that breaks a precondition is declined with a reason, and the
profiler walks it instead: ``unknown_address`` (a block row or callee the
program does not have), ``off_header`` (a loop region entered other than
at its header), ``unbalanced`` (a RETURN without a CALL) or ``overflow``
(an edge whose int64 moments could overflow).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.callloop.graph import Node, NodeTable
from repro.callloop.stats import MomentStats
from repro.engine.events import K_BLOCK, K_BRANCH, K_CALL, K_RETURN
from repro.engine.tracing import Trace
from repro.ir.program import Program

#: loop event kinds
_ENTRY, _BACK, _EXIT = 0, 1, 2

#: rows per chunk of the block-row scan
_SCAN_CHUNK_ROWS = 1 << 16

EdgeMap = Dict[Tuple[int, int], list]


class EdgeOpens:
    """Where each call-loop edge opens in one trace: the span index.

    Every open is one entry of two aligned columns: ``rows`` (its trace
    row, int32; -1 for the entry procedure's opens at t = 0) and ``ts``
    (the instructions before it, int64).  The header rows come first,
    in row order — each opens its loop's body edge — then every other
    open, grouped by edge in row order.  ``runs`` holds ``[start,
    stop)`` ranges of those entries: a loop's body edge is its runs of
    header rows (a loop's iterations come in long runs), any other edge
    one run.  ``edges`` maps ``(src, dst)`` :class:`Node` pairs — node
    identities, so a stored index needs no :class:`NodeTable`
    numbering — to their ``[first, last)`` range of runs, each edge's
    opens in row order.  ``resets`` lists, ascending, the opens of
    head->body edges that also open the edge into the head (a loop
    entry at any frame depth, an outermost call): a merged marker's
    every-Nth counter counts from the last one.  ``total`` is the
    trace's instruction count.  On a row that opens two edges, the one
    into a head node opens first.
    """

    __slots__ = ("edges", "runs", "rows", "ts", "resets", "total")

    def __init__(
        self,
        edges: Dict[Tuple[Node, Node], Tuple[int, int]],
        runs: np.ndarray,
        rows: np.ndarray,
        ts: np.ndarray,
        resets: np.ndarray,
        total: int,
    ):
        self.edges = edges
        self.runs = runs
        self.rows = rows
        self.ts = ts
        self.resets = resets
        self.total = total

    def of(
        self, src: Node, dst: Node, every: int = 1
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(rows, ts)`` of the opens of edge *src* -> *dst* whose
        position — opens since the edge's last reset, 0 on every open
        of an edge into a head node — is a multiple of *every*; ``None``
        when the trace never opens the edge."""
        span = self.edges.get((src, dst))
        if span is None:
            return None
        runs = self.runs[span[0] : span[1]]
        if dst.kind.is_head:
            every = 1
        item, pos = _expand(runs[:, 1] - runs[:, 0])
        at = runs[item, 0] + pos
        if every > 1:
            resets = self.resets
            cut = resets[
                np.searchsorted(resets, at[0]) : np.searchsorted(resets, at[-1], "right")
            ]
            k = np.searchsorted(at, cut)
            k = k[at[k] == cut]  # this edge's resets, as ranks among its opens
            rank = np.arange(len(at))
            at = at[(rank - k[np.searchsorted(k, rank, "right") - 1]) % every == 0]
        return self.rows[at], self.ts[at]


def index_trace(
    program: Program, trace: Trace, table: Optional[NodeTable] = None
) -> Union[EdgeOpens, str]:
    """*trace*'s span index, or the reason the builder declines it.

    Built by one :meth:`SpanBuilder.build` pass the first time and kept
    on the trace (``trace.opens``), so later calls cost nothing.
    """
    if trace.opens is None:
        got = SpanBuilder(program, table or NodeTable(program)).build(trace)
        trace.opens = got if isinstance(got, str) else got[2]
    return trace.opens


def trace_total(trace: Trace) -> int:
    """*trace*'s instruction count, read off its span index when it has
    one (a declined or unindexed trace sums its block sizes)."""
    opens = trace.opens
    return opens.total if isinstance(opens, EdgeOpens) else trace.total_instructions


def _small(limit: int):
    """The narrowest signed dtype holding ``0 .. limit``; int16 keys take
    numpy's radix sort."""
    return np.int16 if limit < 2**15 else np.int32 if limit < 2**31 else np.int64


def _group(codes: np.ndarray, limit: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, starts, distinct)`` of *codes*, each in ``0 .. limit``: a
    stable order that puts equal codes together, ascending, where each
    code's group starts in it, and the distinct codes."""
    order = np.argsort(codes.astype(_small(limit)), kind="stable")
    grouped = codes[order]
    new = np.empty(len(grouped), dtype=bool)
    new[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return order, starts, grouped[starts]


def _singles(codes: np.ndarray, vals: np.ndarray, keys: np.ndarray):
    """One close per value, as the partial moments :func:`_fold` takes."""
    return codes, np.ones(len(vals), dtype=np.int64), vals, vals * vals, vals, vals, keys


def _fold(parts, limit: int):
    """Exact per-edge ``(codes, counts, sums, sums of squares, maxima,
    minima, first keys)`` lists of *parts*, each ``(edge codes, counts,
    sums, sums of squares, maxima, minima, first keys)`` of some closes,
    codes in ``0 .. limit``; ``None`` when an edge's int64 moments could
    overflow."""
    codes, counts, sums, sumsq, hi, lo, keys = (np.concatenate(c) for c in zip(*parts))
    o, starts, uniq = _group(codes, limit)
    counts = np.add.reduceat(counts[o], starts).tolist()
    hi = np.maximum.reduceat(hi[o], starts).tolist()
    lo = np.minimum.reduceat(lo[o], starts).tolist()
    for cnt, h, l in zip(counts, hi, lo):
        if max(h, -l) ** 2 * cnt >= 2**63:
            return None
    return (
        uniq.tolist(),
        counts,
        np.add.reduceat(sums[o], starts).tolist(),
        np.add.reduceat(sumsq[o], starts).tolist(),
        hi,
        lo,
        np.minimum.reduceat(keys[o], starts).tolist(),
    )


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For a list of items with ``counts[i]`` events each: the item of
    every event and its position in that item's list."""
    item = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return item, np.arange(len(item)) - first[item]


class SpanBuilder:
    """Builds one trace's edge map (``{(src, dst): [MomentStats,
    sources, last source]}`` in first-close order) from array passes.

    Holds a program's static lookup arrays; :meth:`build` runs per
    trace.  The result equals the bulk walk's ``_MomentBuilder.edges``
    exactly — order, moments and sources — or :meth:`build` returns the
    reason it declines (see the module docstring).
    """

    def __init__(self, program: Program, table: NodeTable):
        self.program = program
        self.table = table
        self.chains = table.chains
        chains = self.chains
        procs = list(program.procedures.values())
        n_pid = max((p.proc_id for p in procs), default=-1) + 1
        self.proc_head = np.full(n_pid, -1, dtype=np.int64)
        self.proc_body = np.full(n_pid, -1, dtype=np.int64)
        for p in procs:
            self.proc_head[p.proc_id] = table.proc_head[p.name]
            self.proc_body[p.proc_id] = table.proc_body[p.name]
        # loop index -> node ids, with a trailing -1 that index -1 (no
        # loop) reads
        self.loop_head = np.asarray(
            [table.loop_head[h] for h in chains.headers] + [-1], dtype=np.int64
        )
        self.loop_body = np.asarray(
            [table.loop_body[h] for h in chains.headers] + [-1], dtype=np.int64
        )
        self._loop_of_node = {
            int(node): i
            for nodes in (self.loop_head[:-1], self.loop_body[:-1])
            for i, node in enumerate(nodes)
        }
        self._innermost = np.asarray(
            [c[-1] if c else -1 for c in chains.chains], dtype=np.int64
        )
        self._site_addrs = np.asarray(sorted(table.site_source), dtype=np.int64)
        entry = program.procedures[program.entry]
        self.entry_id = entry.proc_id
        self.entry_source = entry.source
        # per chain id: its loops innermost first, the order a frame
        # holding that chain exits them
        self._chain_len = np.asarray([len(c) for c in chains.chains], dtype=np.int64)
        self._chain_start = np.cumsum(self._chain_len) - self._chain_len
        self._chain_exits = np.asarray(
            [lp for c in chains.chains for lp in reversed(c)], dtype=np.int64
        )
        # closes per row fit below this: two per loop exit, two for a
        # frame's own edges; a close's key is row * it + rank in the row
        self._row_keys = 2 * int(self._chain_len.max()) + 2
        #: work counts of the last trace built: runs of header rows, and
        #: the other loop-moving rows, which take the event table
        self.runs = self.general_rows = 0
        self._moves: Dict[int, Optional[List[Tuple[int, int, int]]]] = {}

    # -- static transitions ------------------------------------------------

    def _move(self, key: int) -> Optional[List[Tuple[int, int, int]]]:
        """Loop events of one (previous chain, chain, header) triple, or
        ``None`` when the walker's stack would not end on the chain.

        Each event is ``(loop, kind, parent loop)``.  The
        walker pops loops whose region does not cover the block (its
        chain does not hold them), then re-enters or enters the header's
        loop; the parent of an entry is the loop below it (-1: the
        frame's procedure body).
        """
        got = self._moves.get(key, False)
        if got is not False:
            return got
        chains = self.chains.chains
        n_loops = len(self.chains.headers)
        rest, header = divmod(key, n_loops + 1)
        prev, cur = divmod(rest, len(chains))
        header -= 1
        target = chains[cur]
        covering = set(target)
        stack = list(chains[prev])
        events = []
        while stack and stack[-1] not in covering:
            lp = stack.pop()
            events.append((lp, _EXIT, -1))
        if header >= 0:
            if stack and stack[-1] == header:
                events.append((header, _BACK, -1))
            else:
                parent = stack[-1] if stack else -1
                stack.append(header)
                events.append((header, _ENTRY, parent))
        got = events if tuple(stack) == target else None
        self._moves[key] = got
        return got

    def _outermost(self, is_call, step, callee, match) -> np.ndarray:
        """Which CALL rows open an outermost activation of their callee:
        a running count of its open frames per procedure (the entry
        procedure's own frame counts from the start)."""
        n_cr = len(is_call)
        if not n_cr:
            return is_call
        proc = np.where(is_call, callee, callee[match])
        by_proc = np.argsort(proc.astype(_small(len(self.proc_head))), kind="stable")
        run = np.cumsum(step[by_proc])
        ps = proc[by_proc]
        starts = np.flatnonzero(np.r_[True, ps[1:] != ps[:-1]])
        base = run[starts] - step[by_proc][starts]
        active = np.empty(n_cr, dtype=np.int64)
        active[by_proc] = run - np.repeat(base, np.diff(np.r_[starts, n_cr]))
        active -= step  # open frames before the row
        active[proc == self.entry_id] += 1
        return is_call & (active == 0)

    # -- one trace -----------------------------------------------------------

    def _scan(self, trace: Trace):
        """One pass over the rows, ``_SCAN_CHUNK_ROWS`` at a time.

        Keeps three kinds of row, each as aligned arrays, and nothing
        that spans every block row:

        * header rows: trace row, instructions before, loop headed;
        * *general* rows, the block rows whose chain differs from the
          previous block row's or that head a segment (the first block
          after a CALL/RETURN row, and the trace's first): trace row,
          instructions before, block rows before, chain, loop headed,
          the previous block row's chain and header rows before;
        * CALL/RETURN rows: trace row, instructions before, the chain
          of the block row before, block rows before and header rows
          before.

        Returns those, the instruction total, the block-row count, the
        last block row's chain and whether a used header row's chain
        does not end in its own loop; ``None`` when a block row's
        address is not its block's.  A block's facts depend only on its
        address, so they are looked up once per row of the trace's table
        (a block id past the program's is clipped and the address check
        decides) and gathered by row id.  The running count, the
        previous chain and a pending segment head carry across chunks.
        """
        all_ids, table = trace.ids, trace.table
        n = len(all_ids)
        block_address, block_chain, block_loop = self.chains.by_block()
        # per table row: kind, size, and a block row's chain, loop,
        # whether its address is wrong (every block row, in a program
        # without blocks) and whether it heads a loop its chain does not
        # end in
        kinds = table[:, 0].astype(np.int8)
        sizes = table[:, 3]
        wrong = kinds == K_BLOCK
        odd = np.zeros(len(table), dtype=bool)
        chains = loops = np.zeros(len(table), dtype=block_chain.dtype)
        if len(block_address):
            bid = table[:, 1]
            wrong &= block_address.take(bid, mode="clip") != table[:, 2]
            chains = block_chain.take(bid, mode="clip")
            loops = block_loop.take(bid, mode="clip")
            odd = (kinds == K_BLOCK) & (loops >= 0) & (self._innermost[chains] != loops)
        check, check_odd, odd_seen = bool(wrong.any()), bool(odd.any()), False
        row_type = np.int32 if n < 2**31 else np.int64
        hdr: Tuple[list, ...] = ([], [], [])
        gen: Tuple[list, ...] = ([], [], [], [], [], [], [])
        ctl: Tuple[list, ...] = ([], [], [], [], [])
        t = nb = nh = 0  # instructions, block rows and header rows so far
        prev = 0  # chain of the last block row so far
        head = True  # the next block row heads a segment
        for r0 in range(0, n, _SCAN_CHUNK_ROWS):
            ids = all_ids[r0 : r0 + _SCAN_CHUNK_ROWS].astype(np.intp)
            kc = kinds.take(ids)
            rows = np.flatnonzero(kc == K_BLOCK)
            ctrl = rows[:0]  # CALL and RETURN rows; most chunks hold none
            if kc.max() > K_BRANCH:
                ctrl = np.flatnonzero(kc > K_BRANCH)
                ctrl = ctrl[kc.take(ctrl) <= K_RETURN]
            k = len(rows)
            at = np.searchsorted(rows, ctrl)  # block rows before each
            # instructions before each block row, counted from the chunk's
            # start; t is added to what is kept
            tb = np.empty(k + 1, dtype=np.int64)
            tb[0] = 0
            if k:
                ids = ids.take(rows)
                if check and wrong.take(ids).any():
                    return None
                if check_odd and not odd_seen:
                    odd_seen = bool(odd.take(ids).any())
                ch = chains.take(ids)
                lp = loops.take(ids)
                np.cumsum(sizes.take(ids), out=tb[1:])
                hat = np.flatnonzero(lp >= 0)
                hdr[0].append((rows.take(hat) + r0).astype(row_type))
                hdr[1].append(tb.take(hat) + t)
                hdr[2].append(lp.take(hat))
                mark = np.empty(k, dtype=bool)
                mark[0] = head or ch[0] != prev
                np.not_equal(ch[1:], ch[:-1], out=mark[1:])
                mark[at[at < k]] = True
                gat = np.flatnonzero(mark)
                gen[0].append(rows.take(gat) + r0)
                gen[1].append(tb.take(gat) + t)
                gen[2].append(gat + nb)
                gen[3].append(ch.take(gat))
                gen[4].append(lp.take(gat))
                gen[5].append(np.where(gat > 0, ch.take(gat - 1), prev))
                gen[6].append(np.searchsorted(hat, gat) + nh)
                before = np.where(at > 0, ch.take(at - 1), prev)
                prev = ch[-1]
            else:
                hat = rows
                before = np.full(len(ctrl), prev)
            if len(ctrl):
                ctl[0].append(ctrl + r0)
                ctl[1].append(tb.take(at) + t)
                ctl[2].append(before)
                ctl[3].append(at + nb)
                ctl[4].append(np.searchsorted(hat, at) + nh)
                head = bool(at[-1] == k)
            elif k:
                head = False
            t += int(tb[-1])
            nb += k
            nh += len(hat)

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        small = block_chain.dtype
        gen_types = (np.intp, np.int64, np.intp, small, small, small, np.intp)
        ctl_types = (np.intp, np.int64, small, np.intp, np.intp)
        return (
            (cat(hdr[0], row_type), cat(hdr[1], np.int64), cat(hdr[2], small)),
            tuple(cat(c, d) for c, d in zip(gen, gen_types)),
            tuple(cat(c, d) for c, d in zip(ctl, ctl_types)),
            t,
            nb,
            prev,
            odd_seen,
        )

    def build(
        self, trace: Trace, index: bool = True
    ) -> Union[Tuple[EdgeMap, int, Optional[EdgeOpens]], str]:
        """``(edge map, total instructions, edge opens)`` of *trace*, or
        the reason the trace cannot be profiled from spans.  Without
        *index* the edge opens are ``None`` and not collected.  Sets
        :attr:`runs` and :attr:`general_rows`, the work counts of the
        last trace built."""
        chains = self.chains
        n_ch = len(chains.chains)
        n_loops = len(chains.headers)
        n = len(trace)
        K = self._row_keys

        scan = self._scan(trace)
        if scan is None:
            return "unknown_address"
        (h_row, h_t, h_loop), gen, ctl, total, nb, last_chain, odd = scan
        g_row, g_t, g_blk, g_ch, g_loop, g_pc, g_hidx = gen
        cr, cr_t, cr_before, cr_le, cr_hb = ctl

        # -- CALL/RETURN rows: pairing, depths, outermost activations
        n_cr = len(cr)
        cr_rows = trace.table.take(trace.ids[cr], axis=0)  # (kind, a, b, c)
        is_call = cr_rows[:, 0] == K_CALL
        step = np.where(is_call, 1, -1)
        depth_after = 1 + np.cumsum(step)
        if n_cr and int(depth_after.min()) < 1:
            return "unbalanced"  # a RETURN with no CALL of its own
        depth_before = depth_after - step
        fdepth = np.where(is_call, depth_after, depth_before)
        order = np.argsort(
            fdepth.astype(_small(int(fdepth.max(initial=0)))), kind="stable"
        )
        at = np.flatnonzero(~is_call[order])
        match = np.full(n_cr, -1, dtype=np.int64)
        match[order[at]] = order[at - 1]
        match[order[at - 1]] = order[at]
        callee = np.where(is_call, cr_rows[:, 2], 0)
        called = callee[is_call]
        if len(called) and (
            int(called.min()) < 0
            or int(called.max()) >= len(self.proc_head)
            or bool((self.proc_head[called] < 0).any())
        ):
            return "unknown_address"
        outer = self._outermost(is_call, step, callee, match)

        # -- segments (the rows before each CALL/RETURN row, and before
        # the end of the trace): frame depth and procedure, and the chain
        # at the segment's start and end
        dep = np.append(depth_before, depth_after[-1] if n_cr else 1)
        d1 = int(dep.max()) + 1
        call_idx = np.flatnonzero(is_call)
        frame_proc = np.full(n_cr + 1, self.entry_id, dtype=np.int64)
        if len(call_idx):
            # the frame at depth d is the latest CALL opening depth d
            by_depth = order[is_call[order]]  # calls by (depth, row)
            ck = fdepth[by_depth] * (n_cr + 1) + by_depth
            q = dep * (n_cr + 1) + np.arange(n_cr + 1)
            top = by_depth[np.searchsorted(ck, q) - 1]
            deep = dep >= 2
            frame_proc[deep] = callee[top[deep]]
        fb = np.append(0, cr_le)  # each segment's first block
        filled = np.append(cr_le, nb) > fb
        cb = np.append(cr_before, last_chain).astype(np.int64)
        cb[~filled] = 0
        # an empty segment keeps its initial chain: empty after a CALL,
        # the chain at the matching CALL after a RETURN
        ptr = np.full(n_cr + 1, -1, dtype=np.int64)
        ptr[1:] = np.where(is_call, -1, match)
        pend = ~filled & (ptr >= 0)
        while pend.any():
            idx = np.flatnonzero(pend)
            ready = idx[~pend[ptr[idx]]]
            cb[ready] = cb[ptr[ready]]
            pend[ready] = False
        init = np.where(ptr >= 0, cb[np.maximum(ptr, 0)], 0)
        t_bound = np.append(cr_t, total)

        # -- general rows: a segment's first block follows the segment's
        # initial chain; heads that move nothing are dropped
        g_seg = np.searchsorted(cr_le, g_blk, side="right")
        is_head = g_blk == fb[g_seg]
        g_pc = np.where(is_head, init[g_seg], g_pc)
        keep = ~is_head | (g_pc != g_ch) | (g_loop >= 0)
        g_row, g_t, g_ch, g_loop, g_pc, g_hidx, g_seg = (
            a[keep] for a in (g_row, g_t, g_ch, g_loop, g_pc, g_hidx, g_seg)
        )
        key = (g_pc.astype(np.int64) * n_ch + g_ch) * (n_loops + 1) + (g_loop + 1)
        _, _, uniq = _group(key, n_ch * n_ch * (n_loops + 1))
        tid = np.searchsorted(uniq, key)
        moves = [self._move(k) for k in uniq.tolist()]
        if odd or any(m is None for m in moves):
            return "off_header"
        self.general_rows = len(g_row)
        mv_len = np.asarray([len(m) for m in moves], dtype=np.int64)
        mv_loop, mv_kind, mv_parent = (
            np.asarray([e for m in moves for e in m], dtype=np.int64).reshape(-1, 3).T
        )
        mv_start = np.cumsum(mv_len) - mv_len
        # each event's general row and its place in the row's list: a
        # row's closes come innermost first, two to an exit (body, head)
        item, pos = _expand(mv_len[tid])
        ev = mv_start[tid[item]] + pos
        kind = mv_kind[ev]
        ev_key = g_row[item] * K + 2 * pos
        ent = np.flatnonzero(kind == _ENTRY)
        en_item = item[ent]
        en_loop = mv_loop[ev[ent]]
        en_seg = g_seg[en_item]
        en_t = g_t[en_item]
        en_hidx = g_hidx[en_item]
        par = mv_parent[ev[ent]]
        en_ctx = np.where(
            par >= 0, self.loop_body[par], self.proc_body[frame_proc[en_seg]]
        )
        back = np.flatnonzero(kind == _BACK)
        back_hidx = g_hidx[item[back]]
        back_key = ev_key[back]
        ex = np.flatnonzero(kind == _EXIT)

        # -- exits: at general rows; at RETURN rows, the frame's loops
        # innermost first, then the frame's own edges; at the end of the
        # trace (row n), every open frame's from the top down
        ret = np.flatnonzero(~is_call)
        rc = cb[ret]
        r_item, r_pos = _expand(self._chain_len[rc])
        ret_key = cr[ret] * K + 2 * self._chain_len[rc]  # the frame's body close
        open_calls = call_idx[match[call_idx] < 0]
        frame_chain = np.append(cb[open_calls], cb[n_cr]).tolist()  # by depth
        end_exits: List[Tuple[int, int, int]] = []  # (loop, frame depth, rank)
        end_mark: List[int] = []  # each frame's body close, by depth
        rank = 0
        for fd in range(len(frame_chain), 0, -1):
            for lp in reversed(chains.chains[frame_chain[fd - 1]]):
                end_exits.append((lp, fd, rank))
                rank += 2
            end_mark.append(n * K + rank)
            rank += 2
        end_mark.reverse()
        end_loop, end_dep, end_rank = np.asarray(end_exits, dtype=np.int64).reshape(-1, 3).T
        r_loop = self._chain_exits[self._chain_start[rc][r_item] + r_pos]
        x_loop = np.concatenate([mv_loop[ev[ex]], r_loop, end_loop])
        x_dep = np.concatenate([dep[g_seg[item[ex]]], depth_before[ret][r_item], end_dep])
        x_t = np.concatenate(
            [g_t[item[ex]], t_bound[ret][r_item], np.full(len(end_loop), total)]
        )
        x_key = np.concatenate(
            [ev_key[ex], cr[ret][r_item] * K + 2 * r_pos, n * K + end_rank]
        )
        del item, pos, ev, kind, ev_key, ent, en_item, par, ex, r_item, r_pos

        # -- runs: header rows cut where the (loop, frame depth) group
        # changes or a loop is entered.  Inside a run each header row
        # closes the iteration the one before it opened; a run that does
        # not start with an entry closes the one its group's previous run
        # left open; an exit closes the last header row of its activation
        # and, with the activation's entry, the edge into the loop's head.
        h = len(h_row)
        cut = np.zeros(h, dtype=np.int8)  # 1: new loop, 2: entry, 4: new depth
        if h:
            cut[0] = 1
            np.not_equal(h_loop[1:], h_loop[:-1], out=cut[1:].view(bool))
        cut[en_hidx] |= 2
        if n_cr:
            # the CALL/RETURN rows between two header rows: the first and
            # the last of each such stretch
            new = np.flatnonzero(np.r_[True, cr_hb[1:] != cr_hb[:-1]])
            last = np.r_[new[1:], n_cr] - 1
            moved = (depth_before[new] != depth_after[last]) & (cr_hb[new] > 0)
            at_hdr = cr_hb[new[moved]]
            cut[at_hdr[at_hdr < h]] |= 4
        starts = np.flatnonzero(cut)
        flags = cut[starts]
        del cut
        self.runs = n_runs = len(starts)
        ends = np.append(starts[1:], h)
        run_loop = h_loop[starts].astype(np.int64)
        run_dep = dep[np.searchsorted(cr_hb, starts, side="right")]
        group = (run_loop * d1 + run_dep).astype(_small(n_loops * d1))
        by_group = np.argsort(group, kind="stable")
        entry_run = (flags[by_group] & 2) != 0
        last_t = h_t[ends[by_group] - 1]  # each run's last header row
        acts = np.flatnonzero(entry_run)  # activations, in group order
        act_last_t = last_t[np.append(acts[1:], n_runs)[: len(acts)] - 1]
        resumed = np.flatnonzero(~entry_run)
        res_run = by_group[resumed]
        res_start = starts[res_run]
        # a resumed run's first close: the back-edge event at its row, or
        # rank 0 for a plain back-edge
        res_key = h_row[res_start].astype(np.int64) * K
        q = np.searchsorted(back_hidx, res_start)
        hit = np.flatnonzero(q < len(back_hidx))
        hit = hit[back_hidx[q[hit]] == res_start[hit]]
        res_key[hit] = back_key[q[hit]]

        # activations pair in (group, time) order: the k-th exit of a
        # group with its k-th entry
        x_order = np.lexsort((x_key, x_loop * d1 + x_dep))
        en_order = np.argsort(en_loop * d1 + dep[en_seg], kind="stable")
        x_t = x_t[x_order]
        x_key = x_key[x_order]
        x_loop = x_loop[x_order]

        # -- every close as partial moments (count, sum, sum of squares,
        # max, min) with its first close's key, by edge code
        nn = len(self.table.nodes)
        parts = []
        multi = np.flatnonzero(ends - starts >= 2)
        if len(multi):
            s, e = starts[multi], ends[multi]
            gaps = np.empty(h, dtype=np.int64)
            np.subtract(h_t[1:], h_t[:-1], out=gaps[:-1])
            gaps[-1] = 0
            cuts = np.empty(2 * len(s), dtype=np.intp)
            cuts[0::2] = s
            cuts[1::2] = e - 1
            hi = np.maximum.reduceat(gaps, cuts)[0::2]
            lo = np.minimum.reduceat(gaps, cuts)[0::2]
            np.multiply(gaps, gaps, out=gaps)
            sumsq = np.add.reduceat(gaps, cuts)[0::2]
            del gaps, cuts
            loops = run_loop[multi]
            parts.append(
                (
                    self.loop_head[loops] * nn + self.loop_body[loops],
                    e - s - 1,
                    h_t[e - 1] - h_t[s],
                    sumsq,
                    hi,
                    lo,
                    h_row[s + 1].astype(np.int64) * K,
                )
            )
        res_loop = run_loop[res_run]
        parts.append(
            _singles(
                self.loop_head[res_loop] * nn + self.loop_body[res_loop],
                h_t[res_start] - last_t[resumed - 1],
                res_key,
            )
        )
        parts.append(
            _singles(
                self.loop_head[x_loop] * nn + self.loop_body[x_loop],
                x_t - act_last_t,
                x_key,
            )
        )
        parts.append(
            _singles(
                en_ctx[en_order] * nn + self.loop_head[x_loop],
                x_t - en_t[en_order],
                x_key + 1,
            )
        )

        # -- frame closes: the body edge at every CALL, the head edge at
        # outermost ones, plus the entry procedure's two edges
        matched = match[call_idx]
        closed = matched >= 0
        mark = np.empty(len(call_idx), dtype=np.int64)  # body close of each frame
        mark[closed] = ret_key[(np.cumsum(~is_call) - 1)[matched[closed]]]
        mark[~closed] = np.asarray(end_mark, dtype=np.int64)[
            depth_after[call_idx[~closed]] - 1
        ]
        f_proc = callee[call_idx]
        f_val = t_bound[np.where(closed, matched, n_cr)] - t_bound[call_idx]
        inner = self._innermost[cb[call_idx]]
        f_src = np.where(
            inner >= 0, self.loop_body[inner], self.proc_body[frame_proc[call_idx]]
        )
        out = outer[call_idx]
        entry_head = int(self.proc_head[self.entry_id])
        entry_body = entry_head * nn + int(self.proc_body[self.entry_id])
        body_codes = self.proc_head[f_proc] * nn + self.proc_body[f_proc]
        site_codes = f_src[out] * nn + self.proc_head[f_proc[out]]
        site_keys = mark[out] + 1
        parts += [
            _singles(body_codes, f_val, mark),
            _singles(site_codes, f_val[out], site_keys),
            _singles(
                np.asarray([entry_body, entry_head], dtype=np.int64),
                np.asarray([total, total], dtype=np.int64),
                np.asarray([end_mark[0], end_mark[0] + 1], dtype=np.int64),
            ),
        ]
        site = cr_rows[call_idx[out], 1]

        # -- exact moments per edge, then every edge in first-close order
        folded = _fold(parts, nn * nn)
        if folded is None:
            return "overflow"
        del parts
        sources = self._sources(nn, site_codes, site, site_keys)
        opens = None
        if index:
            call_rows = cr[call_idx]
            call_t = t_bound[call_idx]
            loop_starts = starts[(flags & 1) != 0]
            opens = self._opens(
                nn,
                n,
                total,
                h_row,
                h_t,
                loop_starts,
                h_loop[loop_starts],
                en_hidx,
                en_ctx * nn + self.loop_head[en_loop],
                # the entry procedure's opens first: its body edge also
                # opens at every (recursive) call of it
                (np.asarray([entry_head, entry_body]), [-1, -1], [0, 0], [False, True]),
                (body_codes, call_rows, call_t, out),
                (site_codes, call_rows[out], call_t[out], False),
            )
        rows = sorted(zip(*folded), key=lambda r: r[6])
        edges: EdgeMap = {}
        for code, count, tot, sumsq, hi, lo, _ in rows:
            stats = MomentStats()
            stats.count = count
            stats.total = tot
            stats.sumsq = sumsq
            stats.max_value = hi
            stats.min_value = lo
            edges[divmod(code, nn)] = [stats, *sources(code)]
        return edges, total, opens

    def _opens(
        self,
        nn: int,
        n: int,
        total: int,
        h_row: np.ndarray,
        h_t: np.ndarray,
        run_start: np.ndarray,
        run_loop: np.ndarray,
        entered: np.ndarray,
        entry_codes: np.ndarray,
        *parts,
    ) -> EdgeOpens:
        """The :class:`EdgeOpens` of one *n*-row trace.

        *h_row* and *h_t* are the header rows' trace rows and
        instructions, cut into runs of one loop at *run_start* (the
        loop of each in *run_loop*).  *entered* says which header rows
        are loop entries, and *entry_codes* the edge each of them opens
        into its loop's head.  *parts* are the other opens, ``(edge
        codes, rows, ts, resets)`` in row order.  The header rows come
        first; a stable sort groups the other opens by edge after them.
        A loop's runs keep their order, so its opens stay in row order.
        """
        h = len(h_row)
        codes = np.concatenate([p[0] for p in parts] + [entry_codes])
        m = len(codes)
        rows = np.empty(h + m, dtype=np.int32 if n < 2**31 else np.int64)
        ts = np.empty(h + m, dtype=np.int64)
        rows[:h] = h_row
        ts[:h] = h_t
        o, first, uniq = _group(codes, nn * nn)
        # a loop entry opens the edge into the head at its header row
        rows[h:] = np.concatenate([np.asarray(p[1]) for p in parts] + [rows[entered]])[o]
        ts[h:] = np.concatenate([np.asarray(p[2]) for p in parts] + [ts[entered]])[o]
        reset = np.concatenate(
            [np.broadcast_to(np.asarray(p[3], dtype=bool), len(p[0])) for p in parts]
            + [np.zeros(len(entered), dtype=bool)]
        )[o]
        by = np.argsort(run_loop, kind="stable")
        run_stop = np.append(run_start[1:], h)[: len(run_start)]
        loop_runs = np.stack([run_start, run_stop], axis=1)[by]
        edge_runs = np.stack([first, np.append(first[1:], m)], axis=1) + h
        nodes = self.table.nodes
        edges = {}
        loops = run_loop[by]
        ends = np.append(np.flatnonzero(np.diff(loops)) + 1, len(by)).tolist() if len(by) else []
        lo = 0
        for hi in ends:
            lp = int(loops[lo])
            edges[(nodes[self.loop_head[lp]], nodes[self.loop_body[lp]])] = (lo, hi)
            lo = hi
        for i, code in enumerate(uniq.tolist(), len(loop_runs)):
            edges[(nodes[code // nn], nodes[code % nn])] = (i, i + 1)
        return EdgeOpens(
            edges,
            np.concatenate([loop_runs, edge_runs]),
            rows,
            ts,
            np.concatenate([entered, h + np.flatnonzero(reset)]),
            total,
        )

    def _sources(self, nn, site_codes, site, site_keys):
        """``code -> [sources, last source seen]`` of one trace's edges.

        A loop's two edges carry the loop's source; a head edge into a
        procedure carries its outermost call sites' sources, and the
        root edge the entry procedure's own; body edges into a procedure
        carry none.
        """
        site_source = self.table.site_source
        known = np.isin(site, self._site_addrs)
        site_codes, site, site_keys = site_codes[known], site[known], site_keys[known]
        found: Dict[int, list] = {}
        if len(site):
            # each distinct (edge, site) pair once, by edge then site
            order = np.lexsort((site, site_codes))
            codes, sites = site_codes[order], site[order]
            new = np.r_[True, (codes[1:] != codes[:-1]) | (sites[1:] != sites[:-1])]
            for code, addr in zip(codes[new].tolist(), sites[new].tolist()):
                found.setdefault(code, [set(), None])[0].add(site_source[addr])
            # each edge's last close, by edge then key
            order = np.lexsort((site_keys, site_codes))
            codes, sites = site_codes[order], site[order]
            last = np.r_[codes[1:] != codes[:-1], True]
            for code, addr in zip(codes[last].tolist(), sites[last].tolist()):
                found[code][1] = site_source[addr]
        if self.entry_source is not None:
            root = int(self.proc_head[self.entry_id])
            found[root] = [{self.entry_source}, self.entry_source]

        def sources(code: int) -> list:
            lp = self._loop_of_node.get(code % nn)
            if lp is not None:
                s = self.table.loop_source[self.chains.headers[lp]]
                return [{s}, s]
            return found.get(code) or [set(), None]

        return sources
