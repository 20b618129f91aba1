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
* **Loop events.**  Only two kinds of block row move a loop stack: rows
  whose chain differs from the previous block row of their segment
  (the rows between two CALL/RETURN rows), and header rows.  Each
  distinct (previous chain, chain, header) triple maps to a short event
  list — exits innermost first, then an entry or a back-edge — found by
  running the walker's own stack rule on the static chains.  RETURN
  rows and the end of the trace exit the loops of the frames they close.
* **Spans.**  Merged by row, the block-row events, the RETURN rows'
  exits and the end's exits form one stream in the walker's callback
  order, with a marker where each frame's own edges close.  Events
  group by (loop, frame depth): activations at one depth never
  interleave, so recursion needs no special case.  After a stable sort
  on the group, iteration spans are differences between consecutive
  events of a group, and the k-th exit of a group pairs with its k-th
  entry.
* **Order.**  The edge map is in first-close order, like the walk's
  :class:`~repro.callloop.profiler._MomentBuilder`.  Each close's key
  is its event's (or frame marker's) index in the stream, times four,
  plus one for a head edge: a row's closes come innermost first and a
  body edge before its head edge, as the walker calls them.

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

#: loop event kinds; a frame marker stands where a frame's own edges close
_ENTRY, _BACK, _EXIT, _FRAME = 0, 1, 2, 3

#: rows per chunk of the block-row scan
_SCAN_CHUNK_ROWS = 1 << 16

#: dense lookup tables up to this many slots; past it, ``np.unique``
_DENSE_LIMIT = 1 << 22

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


def _compact(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct codes ascending, dense id of each code)``."""
    if size <= _DENSE_LIMIT:
        seen = np.zeros(size, dtype=bool)
        seen[codes] = True
        uniq = np.flatnonzero(seen)
        lut = np.zeros(size, dtype=_small(len(uniq)))
        lut[uniq] = np.arange(len(uniq))
        return uniq, lut[codes]
    uniq, ids = np.unique(codes, return_inverse=True)
    return uniq, ids.astype(_small(len(uniq)))


def _moments(vals: np.ndarray, starts: np.ndarray):
    """Exact ``(counts, sums, sums of squares, maxima, minima)`` lists of
    the segments of *vals* beginning at *starts*, or ``None`` when a
    segment's int64 moments could overflow."""
    counts = np.diff(np.r_[starts, len(vals)]).tolist()
    hi = np.maximum.reduceat(vals, starts).tolist()
    lo = np.minimum.reduceat(vals, starts).tolist()
    for cnt, h, l in zip(counts, hi, lo):
        if max(h, -l) ** 2 * cnt >= 2**63:
            return None
    sums = np.add.reduceat(vals, starts).tolist()
    return counts, sums, np.add.reduceat(vals * vals, starts).tolist(), hi, lo


def _merge(old: np.ndarray, new: np.ndarray, into: np.ndarray, stay: np.ndarray):
    """*old* with *new* placed at positions *into* (*stay* marks the
    rest)."""
    out = np.empty(len(stay), dtype=old.dtype)
    out[into] = new
    out[stay] = old
    return out


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
        # per chain id: the events that close a frame holding that chain —
        # its loops' exits, innermost first, then the frame's own marker
        closing = [
            [(lp, _EXIT) for lp in reversed(chain)] + [(-1, _FRAME)]
            for chain in chains.chains
        ]
        self._close_len = np.asarray([len(c) for c in closing], dtype=np.int64)
        self._close_start = np.cumsum(self._close_len) - self._close_len
        flat = np.asarray([e for c in closing for e in c], dtype=np.int64)
        self._close_loop, self._close_kind = flat.reshape(-1, 2).T
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

    def _scan(self, trace: Trace, index: bool):
        """One pass over the rows, ``_SCAN_CHUNK_ROWS`` at a time.

        Returns, per block row, its chain id, the loop it heads, whether
        it is a header row and the instructions before it (plus the
        total at the end), then the CALL/RETURN rows and how many block
        rows precede each of them and the end of the trace.  With
        *index*, also the header rows' opens as lists of per-chunk
        arrays: their trace rows, the instructions before them and the
        loops they head.  A block's facts depend only on its address, so
        they are looked up once per row of the trace's table (a block id
        past the program's is clipped and the address check decides) and
        gathered by row id: ``None`` when a block row's address is not
        its block's.  Chunks keep the temporaries small and
        cache-resident; only the narrow per-block columns span the
        trace.
        """
        all_ids, table = trace.ids, trace.table
        n = len(all_ids)
        block_address, block_chain, block_loop = self.chains.by_block()
        # per table row: kind, size, and a block row's chain, loop and
        # whether its address is wrong (every block row, in a program
        # without blocks)
        kinds = table[:, 0].astype(np.int8)
        sizes = table[:, 3]
        wrong = kinds == K_BLOCK
        chains = loops = np.zeros(len(table), dtype=block_chain.dtype)
        if len(block_address):
            bid = table[:, 1]
            wrong &= block_address.take(bid, mode="clip") != table[:, 2]
            chains = block_chain.take(bid, mode="clip")
            loops = block_loop.take(bid, mode="clip")
        check = bool(wrong.any())
        # sized for every row; only the pages block rows fill are touched
        ch = np.empty(n, dtype=block_chain.dtype)
        hd = np.empty(n, dtype=block_loop.dtype)
        t0 = np.empty(n + 1, dtype=np.int64)
        t0[0] = 0
        hm = np.empty(n, dtype=bool)  # header rows
        cr: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        le: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        opens = (
            [np.zeros(0, dtype=np.int64)],
            [np.zeros(0, dtype=np.int64)],
            [np.zeros(0, dtype=block_loop.dtype)],
        )
        nb = 0
        for r0 in range(0, n, _SCAN_CHUNK_ROWS):
            r1 = min(r0 + _SCAN_CHUNK_ROWS, n)
            ids = all_ids[r0:r1].astype(np.intp)
            kc = kinds.take(ids)
            rows = np.flatnonzero(kc == K_BLOCK)
            k = len(rows)
            if k:
                ids = ids.take(rows)
                if check and wrong.take(ids).any():
                    return None
                # ids are in the table (the kinds take checked them)
                chains.take(ids, mode="clip", out=ch[nb : nb + k])
                loops.take(ids, mode="clip", out=hd[nb : nb + k])
                np.cumsum(sizes.take(ids), out=t0[nb + 1 : nb + k + 1])
                t0[nb + 1 : nb + k + 1] += t0[nb]
                np.greater_equal(hd[nb : nb + k], 0, out=hm[nb : nb + k])
                if index:
                    at = np.flatnonzero(hm[nb : nb + k])
                    opens[0].append(rows.take(at) + r0)
                    opens[1].append(t0[nb : nb + k].take(at))
                    opens[2].append(hd[nb : nb + k].take(at))
            ctrl = np.flatnonzero(kc > K_BRANCH)
            ctrl = ctrl[kc[ctrl] <= K_RETURN]  # CALL and RETURN rows
            cr.append(ctrl + r0)
            le.append(nb + np.searchsorted(rows, ctrl))
            nb += k
        le.append(np.asarray([nb]))
        return (
            ch[:nb],
            hd[:nb],
            hm[:nb],
            t0[: nb + 1],
            np.concatenate(cr),
            np.concatenate(le),
            opens,
        )

    def build(
        self, trace: Trace, index: bool = True
    ) -> Union[Tuple[EdgeMap, int, Optional[EdgeOpens]], str]:
        """``(edge map, total instructions, edge opens)`` of *trace*, or
        the reason the trace cannot be profiled from spans.  Without
        *index* the edge opens are ``None`` and not collected."""
        chains = self.chains
        n_ch = len(chains.chains)
        n_loops = len(chains.headers)

        # -- block rows: static facts and instruction counts
        scan = self._scan(trace, index)
        if scan is None:
            return "unknown_address"
        ch, hd, move, t0, cr, le, found = scan
        total = int(t0[-1])

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
        # at the segment's end
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
        fb = np.r_[0, le[:-1]]  # each segment's first block
        filled = le > fb
        cb = np.zeros(n_cr + 1, dtype=np.int64)
        cb[filled] = ch[le[filled] - 1]
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
        t_bound = t0[le]

        # -- loop events at the block rows that can move a loop stack
        move[1:] |= ch[1:] != ch[:-1]  # header rows, and chain changes
        # a segment's first block follows the segment's initial chain
        heads = fb[filled]
        move[heads] = (ch[heads] != init[filled]) | (hd[heads] >= 0)
        ii = np.flatnonzero(move)
        del move
        n_keys = n_ch * n_ch * (n_loops + 1)
        pc = ch[ii - 1].astype(_small(n_keys))
        at_head = np.searchsorted(ii, heads)
        hit = at_head < len(ii)
        hit[hit] = ii[at_head[hit]] == heads[hit]
        pc[at_head[hit]] = init[filled][hit]
        key = (pc * n_ch + ch[ii]) * (n_loops + 1) + (hd[ii] + 1)
        del pc, ch, hd
        uniq, tid = _compact(key, n_keys)
        tid = tid.astype(np.intp)  # indexes two gathers below: convert once
        del key
        moves = [self._move(k) for k in uniq.tolist()]
        if any(m is None for m in moves):
            return "off_header"
        mv_len = np.asarray([len(m) for m in moves], dtype=np.int64)
        mv_loop, mv_kind, mv_parent = (
            np.asarray([e for m in moves for e in m], dtype=np.int64).reshape(-1, 3).T
        )
        mv_start = np.cumsum(mv_len) - mv_len
        g_frame = n_loops * d1  # the frame markers' group sorts last
        gtype = _small(g_frame)
        fd_row = np.repeat(
            dep.astype(gtype), np.diff(np.append(np.searchsorted(ii, fb), len(ii)))
        )
        counts = mv_len[tid]
        ev_end = np.cumsum(counts)
        ev = np.repeat(mv_start[tid] - (ev_end - counts), counts)
        ev += np.arange(len(ev))
        ii = np.repeat(ii, counts)
        fd_row = np.repeat(fd_row, counts)
        del ev_end, counts, tid
        t_ev = t0[ii]
        kind_ev = mv_kind.astype(np.int8)[ev]
        group_ev = (mv_loop * d1).astype(gtype)[ev] + fd_row
        del fd_row
        entry = np.flatnonzero(kind_ev == _ENTRY)
        entry_loop = mv_loop[ev[entry]]
        par = mv_parent[ev[entry]]
        entry_seg = np.searchsorted(fb, ii[entry], side="right") - 1
        entry_ctx = np.where(
            par >= 0, self.loop_body[par], self.proc_body[frame_proc[entry_seg]]
        )
        entry_src = entry_ctx[np.argsort(group_ev[entry], kind="stable")]
        # each header row has one entry or back-edge event, and the rest
        # are exits: the header row of each entry
        entered = entry - np.searchsorted(np.flatnonzero(kind_ev == _EXIT), entry)
        del ev, par, entry, entry_seg

        # -- RETURN rows close their frame's loops, then the frame; so
        # does the end of the trace, from the top frame down.  Merged
        # into the block events by row, the stream is in callback order.
        ret = np.flatnonzero(~is_call)
        item, pos = _expand(self._close_len[cb[ret]])
        ce = self._close_start[cb[ret]][item] + pos
        r_loop = self._close_loop[ce]
        r_kind = self._close_kind[ce]
        r_group = np.where(r_loop >= 0, r_loop * d1 + depth_before[ret][item], g_frame)
        r_at = np.searchsorted(ii, le[ret])[item]
        r_mark = (r_at + np.arange(len(r_at)))[r_kind == _FRAME]
        del ii
        if len(r_at):
            into = r_at + np.arange(len(r_at))
            stay = np.ones(len(t_ev) + len(into), dtype=bool)
            stay[into] = False
            t_ev = _merge(t_ev, t_bound[ret][item], into, stay)
            kind_ev = _merge(kind_ev, r_kind, into, stay)
            group_ev = _merge(group_ev, r_group, into, stay)
            del into, stay
        del item, pos, ce, r_loop, r_kind, r_group, r_at
        open_calls = call_idx[match[call_idx] < 0]
        frame_chain = np.append(cb[open_calls], cb[n_cr])  # by depth 1..top
        e_kind: List[int] = []
        e_group: List[int] = []
        e_mark: List[int] = []  # merged index of each frame's marker, by depth
        for fd in range(len(frame_chain), 0, -1):
            for lp in reversed(chains.chains[frame_chain[fd - 1]]):
                e_kind.append(_EXIT)
                e_group.append(lp * d1 + fd)
            e_mark.append(len(t_ev) + len(e_kind))
            e_kind.append(_FRAME)
            e_group.append(g_frame)
        e_mark.reverse()
        t_ev = np.append(t_ev, np.full(len(e_kind), total, dtype=np.int64))
        kind_ev = np.append(kind_ev, np.asarray(e_kind, dtype=np.int8))
        group_ev = np.append(group_ev, np.asarray(e_group, dtype=gtype))

        # -- group by (loop, frame depth), time order kept in a group:
        # each close's span starts at the previous event of its group,
        # and the k-th exit pairs with the k-th entry.  A close's key is
        # its event's index in the callback-order stream (x4: body,
        # head), so the smallest key is an edge's first close.
        o = np.argsort(group_ev, kind="stable")
        o = o[: len(o) - len(r_mark) - len(e_mark)]  # drop the markers
        t_ev = t_ev[o]
        kind_ev = kind_ev[o]
        group_ev = group_ev[o]
        nn = len(self.table.nodes)
        per_edge = []
        codes: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        keys: List[np.ndarray] = []
        if len(o):
            # iteration spans: a loop's closes are contiguous here
            gs = np.flatnonzero(np.r_[True, group_ev[1:] != group_ev[:-1]])
            g_loop = group_ev[gs] // d1
            lg = np.flatnonzero(np.r_[True, g_loop[1:] != g_loop[:-1]])
            closes = np.flatnonzero(kind_ev != _ENTRY)
            body = _moments(
                t_ev[closes] - t_ev[closes - 1], np.searchsorted(closes, gs[lg])
            )
            if body is None:
                return "overflow"
            loops = g_loop[lg]
            per_edge.append(
                (
                    (self.loop_head[loops] * nn + self.loop_body[loops]).tolist(),
                    *body,
                    # a group's first close follows its first entry
                    np.minimum.reduceat(4 * o[gs + 1], lg).tolist(),
                )
            )
            del closes, gs, g_loop, lg
            entries = np.flatnonzero(kind_ev == _ENTRY)
            exits = np.flatnonzero(kind_ev == _EXIT)
            vals.append(t_ev[exits] - t_ev[entries])
            codes.append(entry_src * nn + self.loop_head[group_ev[exits] // d1])
            keys.append(4 * o[exits] + 1)
            del entries, exits
        del o, t_ev, kind_ev, group_ev, entry_src

        # -- frame closes: the body edge at every CALL, the head edge at
        # outermost ones, plus the entry procedure's two edges
        matched = match[call_idx]
        closed = matched >= 0
        mark = np.empty(len(call_idx), dtype=np.int64)  # marker of each frame
        mark[closed] = r_mark[(np.cumsum(~is_call) - 1)[matched[closed]]]
        mark[~closed] = np.asarray(e_mark, dtype=np.int64)[
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
        site_keys = 4 * mark[out] + 1
        codes += [
            body_codes,
            site_codes,
            np.asarray([entry_body, entry_head], dtype=np.int64),
        ]
        vals += [f_val, f_val[out], np.asarray([total, total], dtype=np.int64)]
        keys += [
            4 * mark,
            site_keys,
            np.asarray([4 * e_mark[0], 4 * e_mark[0] + 1], dtype=np.int64),
        ]
        site = cr_rows[call_idx[out], 1]

        # -- exact moments of the other edges, then every edge in
        # first-close order
        uniq, cid = _compact(np.concatenate(codes), nn * nn)
        o = np.argsort(cid, kind="stable")
        cid = cid[o]
        starts = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
        rest = _moments(np.concatenate(vals)[o], starts)
        if rest is None:
            return "overflow"
        firsts = np.minimum.reduceat(np.concatenate(keys)[o], starts).tolist()
        per_edge.append((uniq.tolist(), *rest, firsts))
        del codes, vals, keys, o, cid
        sources = self._sources(nn, site_codes, site, site_keys)
        opens = None
        if index:
            call_rows = cr[call_idx]
            call_t = t_bound[call_idx]
            opens = self._opens(
                nn,
                len(trace),
                total,
                found,
                entered,
                entry_ctx * nn + self.loop_head[entry_loop],
                # the entry procedure's opens first: its body edge also
                # opens at every (recursive) call of it
                (np.asarray([entry_head, entry_body]), [-1, -1], [0, 0], [False, True]),
                (body_codes, call_rows, call_t, out),
                (site_codes, call_rows[out], call_t[out], False),
            )
        rows = [r for part in per_edge for r in zip(*part)]
        rows.sort(key=lambda r: r[6])
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
        self, nn: int, n: int, total: int, found, entered, entry_codes, *parts
    ) -> EdgeOpens:
        """The :class:`EdgeOpens` of one *n*-row trace.

        *found* is what :meth:`_scan` collected: the header rows' trace
        rows, instructions and loops, in per-chunk arrays.  *entered*
        says which header rows are loop entries, and *entry_codes* the
        edge each of them opens into its loop's head.  *parts* are the
        other opens, ``(edge codes, rows, ts, resets)`` in row order.
        The header rows come first, cut into runs of one loop; a stable
        sort groups the other opens by edge after them.  A loop's runs
        keep their order, so its opens stay in row order.
        """
        row_chunks, ts_chunks, loop_chunks = found
        loops = np.concatenate(loop_chunks)
        h = len(loops)
        codes = np.concatenate([p[0] for p in parts] + [entry_codes])
        m = len(codes)
        rows = np.empty(h + m, dtype=np.int32 if n < 2**31 else np.int64)
        ts = np.empty(h + m, dtype=np.int64)
        np.concatenate(row_chunks, out=rows[:h])
        np.concatenate(ts_chunks, out=ts[:h])
        uniq, cid = _compact(codes, nn * nn)
        o = np.argsort(cid, kind="stable")
        cid = cid[o]
        # a loop entry opens the edge into the head at its header row
        rows[h:] = np.concatenate([np.asarray(p[1]) for p in parts] + [rows[entered]])[o]
        ts[h:] = np.concatenate([np.asarray(p[2]) for p in parts] + [ts[entered]])[o]
        reset = np.concatenate(
            [np.broadcast_to(np.asarray(p[3], dtype=bool), len(p[0])) for p in parts]
            + [np.zeros(len(entered), dtype=bool)]
        )[o]
        new_run = np.ones(h, dtype=bool)
        np.not_equal(loops[1:], loops[:-1], out=new_run[1:])
        run_start = np.flatnonzero(new_run)
        run_loop = loops[run_start]
        by = np.argsort(run_loop, kind="stable")
        run_stop = np.append(run_start[1:], h)[: len(run_start)]
        loop_runs = np.stack([run_start, run_stop], axis=1)[by]
        first = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
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
