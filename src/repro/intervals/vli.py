"""Variable-length interval splitting at phase-marker executions.

"Whenever a marker occurs during execution, that is a start of a new
interval" (paper Section 6.2).  Each VLI carries the phase id of the
marker that opened it; the prologue before the first firing is phase 0.

Several markers can fire at the same instruction count (e.g. entering a
marked loop whose first call site is also marked); they would create
zero-length intervals, so coincident firings collapse to the innermost
(last) marker — the phase id of the non-empty interval that follows.

Markers are *rare* by the paper's own design (Section 6.2 picks
procedure-level edges), which makes marker application an extremely
sparse scan: almost every edge the walker opens misses the marker table.
The shipping path exploits that two ways:

* **candidate pre-scan** — :func:`_prescan_boundaries` resolves every
  firing from a handful of vectorized column scans, without walking the
  trace at all, whenever the program's structure lets it derive each
  edge's source context statically;
* **batched sparsity** — when the pre-scan declines,
  :class:`_FastBoundaryCollector` rides the bulk walker and implements
  its ``on_edge_iterations`` hook, so a whole run of loop back-edge
  arrivals costs one marker-table lookup; candidate-free runs (the
  overwhelming majority) are skipped wholesale, and marked runs extend
  the boundary list vectorized.

The per-event :func:`split_at_markers_scalar` stays in-tree as the
oracle and the ``bench-split`` baseline; the ``split`` verify check pins
the pre-scan and its fallback against it on every fuzz iteration and
golden workload.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.callloop.graph import NodeTable
from repro.callloop.markers import MarkerSet, MarkerTracker
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine.events import K_BLOCK, K_CALL, K_RETURN
from repro.engine.tracing import Trace
from repro.intervals.base import IntervalSet
from repro.ir.program import Program, SourceLoc
from repro.telemetry import get_telemetry


class _BoundaryCollector(ContextHandler):
    """Collects (row, t, phase_id) for every marker firing.

    The per-event form: one marker-table probe per edge open.  Retained
    as the oracle side of :func:`split_at_markers_scalar`;
    :class:`_FastBoundaryCollector` adds the batched back-edge hook the
    shipping path uses.
    """

    def __init__(self, tracker: MarkerTracker, walker: ContextWalker):
        self.tracker = tracker
        self.walker = walker
        self.boundaries: List[Tuple[int, int, int]] = []
        # Without merge_iterations counters, edge_opened is a pure pair
        # lookup — inline it on the hot path.
        self._by_pair = tracker._by_pair if not tracker._counters else None

    def on_edge_open(
        self, src: int, dst: int, t: int, source: Optional[SourceLoc]
    ) -> None:
        by_pair = self._by_pair
        if by_pair is not None:
            marker = by_pair.get((src, dst))
        else:
            marker = self.tracker.edge_opened(src, dst)
        if marker is None:
            return
        boundaries = self.boundaries
        if boundaries and boundaries[-1][1] == t:
            # coincident firing: keep the innermost marker, no empty interval
            boundaries[-1] = (boundaries[-1][0], t, marker.marker_id)
        else:
            boundaries.append((self.walker.row, t, marker.marker_id))


class _FastBoundaryCollector(_BoundaryCollector):
    """Sparsity-aware collector: batched loop back-edge runs.

    The bulk walker hands a whole run of consecutive back-edge arrivals
    of one loop span to :meth:`on_edge_iterations`; a single miss on the
    marker table then skips the entire candidate-free run — the common
    case, since markers are rare procedure-level edges.  Marked runs
    extend the boundary list vectorized, reading the firing rows from
    ``walker.iter_rows``; merged (every-Nth) markers fire on the modular
    arithmetic the per-event counter would produce.  Edge opens outside
    batched runs (calls, loop entries, short runs) still arrive through
    the inherited per-event :meth:`on_edge_open`.
    """

    def on_edge_iterations(
        self,
        head: int,
        body: int,
        t_prev: int,
        ts: np.ndarray,
        source: Optional[SourceLoc],
    ) -> None:
        tracker = self.tracker
        marker = tracker._by_pair.get((head, body))
        if marker is None:
            return  # candidate-free run: one dict miss skips it all
        rows = self.walker.iter_rows
        n = marker.merge_iterations
        if n > 1:
            # Counter resets hook edges opening *into* the loop's head
            # node; a back-edge run only opens head->body, so no reset
            # can land mid-run and the counts are plain arithmetic.
            pair = (head, body)
            count = tracker._counters[pair]
            k = len(ts)
            tracker._counters[pair] = count + k
            fire = np.nonzero(np.arange(count, count + k) % n == 0)[0]
            if not len(fire):
                return
            rows = rows[fire]
            ts = ts[fire]
        # Within a run ts is non-decreasing and the marker is fixed, so
        # the innermost-marker collapse reduces to keeping the first row
        # of each equal-t group.
        if len(ts) > 1:
            keep = np.empty(len(ts), dtype=bool)
            keep[0] = True
            np.greater(ts[1:], ts[:-1], out=keep[1:])
            if not keep.all():
                rows = rows[keep]
                ts = ts[keep]
        rlist = rows.tolist()
        tlist = ts.tolist()
        boundaries = self.boundaries
        start = 0
        if boundaries and boundaries[-1][1] == tlist[0]:
            boundaries[-1] = (boundaries[-1][0], tlist[0], marker.marker_id)
            start = 1
        mid = marker.marker_id
        boundaries.extend(
            (rlist[i], tlist[i], mid) for i in range(start, len(tlist))
        )


def _prescan_boundaries(
    program: Program,
    table: NodeTable,
    tracker: MarkerTracker,
    trace: Trace,
) -> Union[Tuple[List[Tuple[int, int, int]], int], str]:
    """Vectorized candidate pre-scan: marker firings without a walk.

    Every edge the walker can open has a *statically known* source
    context — the parent of a call site or loop header is the innermost
    static loop region covering its address, else the enclosing
    procedure's body — as long as every loop region is entered through
    its header.  That turns marker application into a handful of column
    scans over the packed trace:

    * **call markers** ``(X -> P.head)`` fire at CALL rows whose callee
      is P, whose activation is outermost (a searchsorted against P's
      RETURN rows), and whose site's static context is X;
    * **procedure markers** ``(P.head -> P.body)`` fire at every CALL
      row of P (plus t == 0 for the entry procedure);
    * **loop markers** fire at region-entry and back-edge executions of
      the marked header, recovered per activation from the block rows
      of the enclosing procedure (merged every-Nth markers reduce to
      modular arithmetic on the position within each entry run).

    The firings are sorted by (row, open order) and collapsed exactly
    as :class:`_BoundaryCollector` would.  When a precondition fails the
    caller falls back to the walking path, and the return value is the
    reason instead: ``"unknown_address"`` (a trace block address unknown
    to the program), ``"recursive_loop"`` (a marked or context-relevant
    loop inside a recursive procedure) or ``"off_header"`` (a loop
    region entered elsewhere than its header, or one not placed in any
    procedure).
    """
    by_pair = tracker._by_pair
    kinds = trace.kinds
    a_col = trace.a
    b_col = trace.b
    n_rows = len(kinds)

    block_mask = kinds == K_BLOCK
    blk_rows = np.nonzero(block_mask)[0]
    baddrs = b_col[blk_rows]
    sizes = np.where(block_mask, trace.c, 0)
    t_after = np.cumsum(sizes)
    total = int(t_after[-1]) if n_rows else 0
    t_before = t_after - sizes

    chains = table.chains
    if len(blk_rows):
        addrs = chains.addresses
        if len(addrs) == 0:
            return "unknown_address"
        pos = np.searchsorted(addrs, baddrs)
        pos = np.minimum(pos, len(addrs) - 1)
        if not np.array_equal(addrs[pos], baddrs):
            return "unknown_address"  # let the walker decide

    loops = table.loops
    entry = program.procedures[program.entry]
    proc_head_of = {nid: name for name, nid in table.proc_head.items()}
    proc_body_of = {nid: name for name, nid in table.proc_body.items()}
    loop_head_of = {nid: h for h, nid in table.loop_head.items()}
    loop_body_of = {nid: h for h, nid in table.loop_body.items()}
    proc_id_of = {p.name: p.proc_id for p in program.procedures.values()}

    call_rows = np.nonzero(kinds == K_CALL)[0]
    callees = b_col[call_rows]
    ret_rows = np.nonzero(kinds == K_RETURN)[0]
    ret_procs = a_col[ret_rows]

    proc_calls = {}  # proc_id -> (call rows, outermost mask, recursive)

    def calls_of(pid: int):
        got = proc_calls.get(pid)
        if got is None:
            cp = call_rows[callees == pid]
            rp = ret_rows[ret_procs == pid]
            active = np.arange(len(cp)) - np.searchsorted(rp, cp)
            if pid == entry.proc_id:
                active += 1
            got = proc_calls[pid] = (cp, active == 0, bool((active > 0).any()))
        return got

    # Classify markers and collect (proc, header) loop work: marked
    # loops need entry/back-edge rows; every region covering a marked
    # call site or marked header must be validated as header-entered
    # (otherwise the static context is not the walker's context).
    validate: dict = {}  # header -> proc_id
    emit: List[Tuple] = []  # (kind, marker, src, extra)

    def covering(addr: int, exclude: Optional[int] = None) -> bool:
        for h in chains.chain_at(addr):
            if h != exclude:
                pid = chains.proc_of(h)
                if pid is None:
                    return False
                validate[h] = pid
        return True

    for (src, dst), marker in by_pair.items():
        head_proc = proc_head_of.get(dst)
        body_proc = proc_body_of.get(dst)
        head_loop = loop_head_of.get(dst)
        body_loop = loop_body_of.get(dst)
        if head_proc is not None:
            pid = proc_id_of[head_proc]
            if src == 0:
                if pid == entry.proc_id:
                    emit.append(("entry", marker, 0, None))
                continue  # root edge of a non-entry proc never opens
            cp, outer, _ = calls_of(pid)
            for site in np.unique(a_col[cp]).tolist():
                if not covering(site):
                    return "off_header"
            emit.append(("call", marker, src, pid))
        elif body_proc is not None:
            pid = proc_id_of[body_proc]
            if src != table.proc_head[body_proc]:
                continue  # head->body opens only from the head
            emit.append(("proc-body", marker, src, pid))
            if pid == entry.proc_id:
                emit.append(("entry", marker, src, None))
        elif head_loop is not None:
            pid = chains.proc_of(head_loop)
            if pid is None:
                continue
            validate[head_loop] = pid
            if not covering(head_loop, exclude=head_loop):
                return "off_header"
            emit.append(("loop-entry", marker, src, head_loop))
        elif body_loop is not None:
            if src != table.loop_head[body_loop]:
                continue
            pid = chains.proc_of(body_loop)
            if pid is None:
                continue
            validate[body_loop] = pid
            emit.append(("loop-iter", marker, src, body_loop))
        # any other shape never opens: no firings

    # Per-procedure block rows and activation ids, for every procedure
    # holding a loop we must scan or validate.
    proc_rows = {}  # proc_id -> (rows, addrs, activation ids)

    def rows_of(pid: int):
        got = proc_rows.get(pid)
        if got is None:
            lo, hi = chains.proc_span[pid]
            rows = blk_rows[(baddrs >= lo) & (baddrs <= hi)]
            cp, _, recursive = calls_of(pid)
            if recursive:
                return None  # nested activations interleave: walk instead
            act = np.searchsorted(cp, rows)
            got = proc_rows[pid] = (rows, b_col[rows], act)
        return got

    # loop runs: header -> (entry rows, iteration rows, run positions)
    loop_runs = {}
    for header, pid in validate.items():
        got = rows_of(pid)
        if got is None:
            return "recursive_loop"
        rows, bP, act = got
        latch = loops[header].latch_branch_address
        in_reg = (bP >= header) & (bP <= latch)
        if not in_reg.any():
            loop_runs[header] = (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.int64),
            )
            continue
        prev_in = np.empty(len(in_reg), dtype=bool)
        prev_in[0] = False
        prev_in[1:] = in_reg[:-1]
        act_change = np.empty(len(act), dtype=bool)
        act_change[0] = True
        act_change[1:] = act[1:] != act[:-1]
        start = in_reg & (~prev_in | act_change)
        if not np.array_equal(bP[start], np.full(int(start.sum()), header)):
            return "off_header"  # region entered elsewhere than its header
        h_idx = np.nonzero(in_reg & (bP == header))[0]
        run_id = np.cumsum(start)
        h_run = run_id[h_idx]
        new_run = np.empty(len(h_idx), dtype=bool)
        if len(h_idx):
            new_run[0] = True
            new_run[1:] = h_run[1:] != h_run[:-1]
        ar = np.arange(len(h_idx))
        pos = ar - np.maximum.accumulate(np.where(new_run, ar, 0))
        loop_runs[header] = (rows[h_idx[new_run]], rows[h_idx], pos)

    # Emit firing arrays: (row, order) pairs sorted globally reproduce
    # the walker's open order (order 0 = edge into a head node, 1 =
    # head->body at the same row; t == 0 entry opens sort first).
    frows: List[np.ndarray] = []
    forder: List[np.ndarray] = []
    fmid: List[np.ndarray] = []

    def add(rows: np.ndarray, order: int, marker) -> None:
        if not len(rows):
            return
        frows.append(rows.astype(np.int64))
        forder.append(np.full(len(rows), order, dtype=np.int64))
        fmid.append(np.full(len(rows), marker.marker_id, dtype=np.int64))

    for kind, marker, src, extra in emit:
        if kind == "entry":
            add(np.array([-1]), 0 if src == 0 else 1, marker)
        elif kind == "call":
            cp, outer, _ = calls_of(extra)
            sites = a_col[cp]
            match = np.zeros(len(cp), dtype=bool)
            for site in np.unique(sites).tolist():
                if chains.context(site) == src:
                    match |= sites == site
            add(cp[outer & match], 0, marker)
        elif kind == "proc-body":
            cp, _, _ = calls_of(extra)
            add(cp, 1, marker)
        elif kind == "loop-entry":
            entries, _, _ = loop_runs[extra]
            if chains.context(extra, exclude=extra) == src:
                add(entries, 0, marker)
        else:  # loop-iter
            _, iters, pos = loop_runs[extra]
            n = marker.merge_iterations
            if n > 1:
                fire = pos % n == 0
                iters = iters[fire]
            add(iters, 1, marker)

    boundaries: List[Tuple[int, int, int]] = []
    if frows:
        rows = np.concatenate(frows)
        order = np.concatenate(forder)
        mids = np.concatenate(fmid)
        sort = np.argsort((rows + 1) * 2 + order, kind="stable")
        rows = rows[sort]
        mids = mids[sort]
        if n_rows:
            ts = np.where(rows >= 0, t_before[np.maximum(rows, 0)], 0)
        else:
            ts = np.zeros(len(rows), dtype=np.int64)
        for row, t, mid in zip(rows.tolist(), ts.tolist(), mids.tolist()):
            if boundaries and boundaries[-1][1] == t:
                boundaries[-1] = (boundaries[-1][0], t, mid)
            else:
                boundaries.append((row, t, mid))
    return boundaries, total


def _finalize(
    program: Program,
    num_rows: int,
    total: int,
    bounds: List[Tuple[int, int, int]],
) -> IntervalSet:
    """Turn a collapsed boundary list into the :class:`IntervalSet`.

    Applies the rules shared by every split path: firings at
    t == 0 set the first interval's phase id and drop (the prologue
    would be empty), and a firing exactly at end of execution drops its
    empty tail interval.
    """
    # Drop firings at t == 0 by advancing an index — re-slicing the list
    # per firing was quadratic when many coincident t==0 firings piled up.
    first_phase = 0
    i = 0
    n = len(bounds)
    while i < n and bounds[i][1] == 0:
        first_phase = bounds[i][2]
        i += 1
    if i:
        bounds = bounds[i:]

    rows = np.array([0] + [b[0] for b in bounds] + [num_rows], dtype=np.int64)
    start_ts = np.array([0] + [b[1] for b in bounds], dtype=np.int64)
    ends = np.concatenate((start_ts[1:], [total]))
    lengths = (ends - start_ts).astype(np.int64)
    phase_ids = np.array([first_phase] + [b[2] for b in bounds], dtype=np.int64)

    # A marker can fire exactly at end of execution; drop the empty tail.
    if len(lengths) > 1 and lengths[-1] == 0:
        rows = np.concatenate((rows[:-2], rows[-1:]))
        start_ts = start_ts[:-1]
        lengths = lengths[:-1]
        phase_ids = phase_ids[:-1]

    return IntervalSet(program.name, "vli", rows, start_ts, lengths, phase_ids)


def split_at_markers_prescan(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> Optional[IntervalSet]:
    """The pure pre-scan split, or ``None`` if its preconditions fail.

    :func:`split_at_markers` uses this internally; the verify harness
    probes it directly so the ``split`` check can tell whether a fuzz
    program exercised the pre-scan or its fallback.
    """
    table = table or NodeTable(program)
    tracker = MarkerTracker(marker_set, table)
    got = _prescan_boundaries(program, table, tracker, trace)
    if isinstance(got, str):
        return None
    bounds, total = got
    return _finalize(program, len(trace), total, bounds)


def split_at_markers_scalar(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """Marker application through per-event callbacks — the oracle.

    One marker-table probe per edge open, no batching: the pre-sparsity
    implementation, retained as the reference the ``split`` verify
    check pins the fast paths against and as the baseline side of
    ``make bench-split``.
    """
    table = table or NodeTable(program)
    walker = ContextWalker(program, table)
    tracker = MarkerTracker(marker_set, table)
    collector = _BoundaryCollector(tracker, walker)
    total = walker.walk(trace, collector)
    return _finalize(program, len(trace), total, collector.boundaries)


def split_at_markers(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
    table: Optional[NodeTable] = None,
) -> IntervalSet:
    """Partition *trace* into VLIs at the executions of *marker_set*.

    Runs the vectorized candidate pre-scan, or — when its preconditions
    fail — one bulk walk with the batched sparsity-aware collector.
    Either way the result is identical to
    :func:`split_at_markers_scalar` (the ``split`` verify check pins
    this).
    """
    table = table or NodeTable(program)
    tracker = MarkerTracker(marker_set, table)
    tm = get_telemetry()
    if not tm.enabled:
        return _split(program, trace, tracker, table)
    with tm.span("vli.split", program=program.name):
        result = _split(program, trace, tracker, table)
        tm.counter("vli.split.intervals", len(result.lengths))
    return result


def _split(
    program: Program,
    trace: Trace,
    tracker: MarkerTracker,
    table: NodeTable,
) -> IntervalSet:
    tm = get_telemetry()
    got = _prescan_boundaries(program, table, tracker, trace)
    if not isinstance(got, str):
        bounds, total = got
        if tm.enabled:
            tm.counter("vli.split.prescans")
        return _finalize(program, len(trace), total, bounds)
    if tm.enabled:
        tm.counter("vli.split.prescan_fallbacks")
        tm.counter(f"vli.split.prescan_fallbacks.{got}")
    walker = ContextWalker(program, table)
    collector = _FastBoundaryCollector(tracker, walker)
    total = walker.walk(trace, collector)
    return _finalize(program, len(trace), total, collector.boundaries)
