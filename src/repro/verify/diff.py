"""Differential comparison of optimized vs oracle implementations.

:func:`verify_program` runs one program through both pipelines and
reports every disagreement as a structured :class:`Mismatch`.  This
table is the one list of its checks, in the order it runs them
(pipeline order: an early mismatch makes later checks noisy, so fix the
first one first).  Each pins one fast path against one reference; the
first column is the name ``DiffReport.checks_run`` lists, and every
``diff_*`` function is also usable on its own.

==================  ==========================================================
check               fast path vs its one reference
==================  ==========================================================
``trace-pipeline``  :func:`diff_trace_pipeline` (mismatch kind ``trace``):
                    the row-template recorder (``Machine.record``) vs the
                    object-event ``Machine.run``, the bulk row loop vs the
                    scalar loop (``walk_scalar``), and the scalar loop vs
                    :func:`oracle_walk` — columns, callback sequences, and
                    row positions compared **bit-for-bit**
``streaming``       :func:`diff_streaming`: the incremental streaming path
                    (chunked ``ContextWalker.feed_rows``, windowed moment
                    merge, online phase monitor) vs ``walk_scalar``, the
                    batch profiler, selection, and ``PhaseMonitor``, and
                    chunked vs row-at-a-time monitor feeds — callbacks,
                    graph dicts, marker-set dicts, and phase changes
                    compared **bit-for-bit**
``graph``           :func:`diff_graphs`: ``CallLoopProfiler`` (span builder
                    + exact integer moments) and its bulk-walk fallback,
                    each vs :func:`oracle_call_loop_graph` (naive walk +
                    two-pass statistics): edges, their first-close order,
                    statistics, and sources
``depth``           :func:`diff_depths` (order mismatches: kind ``order``):
                    ``estimate_max_depth`` / ``processing_order`` vs a
                    recursive transliteration; plus exact longest simple
                    path brute force on acyclic graphs
``selection``       :func:`diff_selection`: ``select_markers`` passes vs
                    direct set filters: candidates, threshold statistics,
                    selected markers, and marker order
``split``           :func:`diff_split`: the marker firings gathered from
                    the span index and the VLI split made of them — on a
                    bare trace (the index built in the call) and on a
                    trace reloaded from a ``TraceStore`` spill — vs the
                    walk collector's firings (``marker_firings_scalar``)
                    and the split of those (``split_at_markers_scalar``):
                    firing rows, timestamps and marker ids, and interval
                    boundaries, timestamps, lengths and phase ids,
                    compared **bit-for-bit**
``cache``           :func:`diff_cache`: ``profile_events`` (one address
                    gather, the lock-step stack-depth kernel, one
                    ``bincount``) vs :func:`oracle_profile_events`
                    (``MultiAssocCacheSim`` stepped event by event) —
                    per-event accesses and hits at every associativity
                    compared **exactly**, in the paper's cache geometry
                    and a conflict-heavy one
``kmeans``          :func:`diff_kmeans`: ``kmeans`` (BLAS-filtered
                    distances over distinct rows, shared k-means++ draws,
                    sorted per-cluster sums) vs :func:`oracle_kmeans`
                    (full distance matrix, masked sums), in SimPoint's
                    sweep shape on one prepared set: k = 1..8, seeds k and
                    k + 1, over the run's projected fixed-interval BBVs —
                    assignments, centroid bytes, SSE, and iteration count
                    compared **bit-for-bit**
``reuse``           :func:`diff_reuse`: Fenwick-tree reuse distances vs an
                    O(n²) scan, plus the vectorized log2 histogram vs
                    per-distance ``bit_length`` binning
==================  ==========================================================

Tolerance rules: traversal counts, depths, orders, marker sets, interval
boundaries, and reuse distances must match **exactly** (they are integer
or set valued).  Means, maxima, totals, and CoV values are floats
produced by different summation orders (exact moments vs two-pass), so they
compare under a relative tolerance; a selection decision that differs is
forgiven only when the edge's CoV sits within the float tolerance of the
applied threshold on both sides (a genuinely borderline edge, not a
logic bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.callloop.depth import estimate_max_depth, processing_order
from repro.callloop.graph import CallLoopGraph, NodeTable
from repro.callloop.markers import MarkerSet, marker_firings, marker_firings_scalar
from repro.callloop.profiler import CallLoopProfiler
from repro.callloop.walker import BULK_MIN_CHUNK_ROWS, ContextHandler, ContextWalker
from repro.callloop.selection import SelectionParams, select_markers
from repro.engine.machine import Machine
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace, record_trace
from repro.intervals.vli import split_at_markers, split_at_markers_scalar
from repro.ir.program import Program, ProgramInput
from repro.verify import oracles
from repro.verify.oracles import (
    OracleGraph,
    oracle_call_loop_graph,
    oracle_kmeans,
    oracle_profile_events,
    oracle_reuse_distances,
    oracle_reuse_histogram,
    oracle_select_markers,
    oracle_walk,
)

#: relative tolerance for float statistics (different summation orders)
FLOAT_RTOL = 1e-9
#: absolute floor for the same comparisons (values near zero)
FLOAT_ATOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(FLOAT_ATOL, FLOAT_RTOL * max(abs(a), abs(b)))


@dataclass(frozen=True)
class Mismatch:
    """One optimized-vs-oracle disagreement."""

    kind: str  #: the check that found it: "graph", "cache", "kmeans", ...
    key: str  #: which edge / node / index disagrees
    optimized: Any
    oracle: Any
    detail: str = ""

    def describe(self) -> str:
        text = (
            f"[{self.kind}] {self.key}: optimized={self.optimized!r} "
            f"oracle={self.oracle!r}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class DiffReport:
    """All mismatches from one program, plus what was checked."""

    program: str
    mismatches: List[Mismatch] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def extend(self, check: str, found: List[Mismatch]) -> None:
        self.checks_run.append(check)
        self.mismatches.extend(found)

    def describe(self, limit: int = 20) -> str:
        if self.ok:
            return (
                f"{self.program}: OK ({', '.join(self.checks_run)})"
            )
        lines = [
            f"{self.program}: {len(self.mismatches)} mismatch(es) "
            f"across {', '.join(self.checks_run)}"
        ]
        lines.extend("  " + m.describe() for m in self.mismatches[:limit])
        if len(self.mismatches) > limit:
            lines.append(f"  ... {len(self.mismatches) - limit} more")
        return "\n".join(lines)


def _key_str(key) -> str:
    src, dst = key
    return f"{src} -> {dst}"


# ---------------------------------------------------------------------------
# stage checks
# ---------------------------------------------------------------------------


def diff_graphs(optimized: CallLoopGraph, oracle: OracleGraph) -> List[Mismatch]:
    """Compare edge sets, edge order, traversal counts, statistics, and
    sources.

    The edges must come in the oracle's first-observation (first-close)
    order: selection's depth-first search follows it.
    """
    out: List[Mismatch] = []
    if optimized.total_instructions != oracle.total_instructions:
        out.append(
            Mismatch(
                "graph", "total_instructions",
                optimized.total_instructions, oracle.total_instructions,
            )
        )
    opt_keys = {(e.src, e.dst) for e in optimized.edges}
    orc_keys = set(oracle.edge_keys())
    for key in sorted(opt_keys - orc_keys, key=_key_str):
        out.append(Mismatch("graph", _key_str(key), "present", "absent"))
    for key in sorted(orc_keys - opt_keys, key=_key_str):
        out.append(Mismatch("graph", _key_str(key), "absent", "present"))
    shared = opt_keys & orc_keys
    opt_order = [_key_str(e.key()) for e in optimized.edges if e.key() in shared]
    orc_order = [_key_str(k) for k in oracle.edge_keys() if k in shared]
    if opt_order != orc_order:
        out.append(
            Mismatch("graph", "order", opt_order, orc_order, "first-close order")
        )

    for edge in optimized.edges:
        key = (edge.src, edge.dst)
        if key not in orc_keys:
            continue
        expected = oracle.stats(key)
        name = _key_str(key)
        if edge.count != expected.count:
            out.append(
                Mismatch("graph", name, edge.count, expected.count, "count")
            )
            continue  # derived stats are meaningless on a count mismatch
        for label, got, want in (
            ("avg", edge.avg, expected.mean),
            ("cov", edge.cov, expected.cov),
            ("max", edge.max, expected.max_value),
            ("total", edge.total, expected.total),
        ):
            if not _close(got, want):
                out.append(Mismatch("graph", name, got, want, label))
        if edge.site_sources != oracle.site_sources[key]:
            out.append(
                Mismatch(
                    "graph", name,
                    sorted(map(str, edge.site_sources)),
                    sorted(map(str, oracle.site_sources[key])),
                    "site_sources",
                )
            )
    return out


def diff_depths(
    graph: CallLoopGraph, brute_force_edge_cap: int = 80
) -> List[Mismatch]:
    """Compare depth estimates and the processing order they induce."""
    out: List[Mismatch] = []
    optimized = estimate_max_depth(graph)
    expected = oracles.oracle_estimate_depth(graph)
    for node in sorted(set(optimized) | set(expected), key=str):
        got = optimized.get(node)
        want = expected.get(node)
        if got != want:
            out.append(Mismatch("depth", str(node), got, want, "estimate"))

    # On acyclic graphs the estimate must be the exact longest path.
    if graph.num_edges <= brute_force_edge_cap and not oracles.graph_has_cycle(graph):
        exact = oracles.oracle_longest_path_depths(graph)
        if exact is not None:
            for node in sorted(exact, key=str):
                if optimized.get(node) != exact[node]:
                    out.append(
                        Mismatch(
                            "depth", str(node),
                            optimized.get(node), exact[node],
                            "longest simple path (acyclic)",
                        )
                    )

    opt_order = [str(n) for n in processing_order(graph)]
    orc_order = [str(n) for n in oracles.oracle_processing_order(graph, expected)]
    if opt_order != orc_order:
        for i, (got, want) in enumerate(zip(opt_order, orc_order)):
            if got != want:
                out.append(Mismatch("order", f"position {i}", got, want))
                break
    return out


def diff_selection(
    graph: CallLoopGraph, params: Optional[SelectionParams] = None
) -> List[Mismatch]:
    """Compare both passes of marker selection over the same graph."""
    params = params or SelectionParams()
    out: List[Mismatch] = []
    result = select_markers(graph, params)
    expected = oracle_select_markers(graph, params)

    opt_candidates = [(e.src, e.dst) for e in result.candidates]
    if opt_candidates != expected.candidates:
        out.append(
            Mismatch(
                "selection", "candidates",
                [_key_str(k) for k in opt_candidates],
                [_key_str(k) for k in expected.candidates],
                "pass 1",
            )
        )
    cov_base, cov_spread = result.cov_base, result.cov_spread
    if not _close(cov_base, expected.cov_base):
        out.append(
            Mismatch("selection", "cov_base", cov_base, expected.cov_base)
        )
    if not _close(cov_spread, expected.cov_spread):
        out.append(
            Mismatch("selection", "cov_spread", cov_spread, expected.cov_spread)
        )

    opt_selected = [(m.src, m.dst) for m in result.markers]
    if opt_selected != expected.selected:
        # Marker ids (and so phase ids) follow the selection order: the
        # edges both sides select must come out in the same order.
        shared = set(opt_selected) & set(expected.selected)
        opt_order = [_key_str(k) for k in opt_selected if k in shared]
        orc_order = [_key_str(k) for k in expected.selected if k in shared]
        if opt_order != orc_order:
            out.append(
                Mismatch("selection", "order", opt_order, orc_order, "pass 2 order")
            )
        disagreeing = set(opt_selected).symmetric_difference(expected.selected)
        for key in sorted(disagreeing, key=_key_str):
            edge = graph.find_edge(*key)
            threshold = expected.thresholds.get(key)
            # A cov sitting exactly on the threshold is a float coin-flip,
            # not a logic divergence; everything else is a real mismatch.
            if (
                edge is not None
                and threshold is not None
                and _close(edge.cov, threshold)
            ):
                continue
            out.append(
                Mismatch(
                    "selection", _key_str(key),
                    key in set(opt_selected), key in set(expected.selected),
                    "pass 2 selected",
                )
            )
    return out


def diff_reuse(
    addresses: Sequence[int], line_bytes: int = 64
) -> List[Mismatch]:
    """Compare Fenwick-tree reuse distances against the O(n²) scan, and
    the vectorized log2 histogram against per-distance binning."""
    import numpy as np

    from repro.reuse.distance import reuse_distances, reuse_histogram

    arr = np.asarray(list(addresses), dtype=np.int64)
    optimized = reuse_distances(arr, line_bytes=line_bytes)
    expected = oracle_reuse_distances(arr.tolist(), line_bytes=line_bytes)
    out: List[Mismatch] = []
    for i, (got, want) in enumerate(zip(optimized.tolist(), expected)):
        if got != want:  # inf == inf holds; finite distances are exact ints
            out.append(Mismatch("reuse", f"access {i}", got, want))
            if len(out) >= 10:
                break
    hist = reuse_histogram(optimized).tolist()
    hist_expected = oracle_reuse_histogram(expected)
    if hist != hist_expected:
        out.append(Mismatch("reuse", "histogram", hist, hist_expected))
    return out


#: cache geometries of the cache check: the paper's DL1 space (512 sets,
#: 64 B lines, 1-8 ways) and one small enough that a fuzz program's few
#: lines collide in their sets at every depth
CACHE_GEOMETRIES: Tuple[Tuple[int, int, int], ...] = ((512, 64, 8), (64, 8, 4))

#: data accesses the cache check simulates (through the block event
#: that reaches this many)
CACHE_CAP = 4096


def _capped_trace(trace: Trace, memory: MemorySystem, cap: int) -> Trace:
    """The trace through the block event whose accesses reach *cap*."""
    import numpy as np

    from repro.engine.events import K_BLOCK

    rows = np.nonzero(trace.kinds == K_BLOCK)[0]
    stop = memory.executions_to_reach(trace.a[rows], cap)
    end = int(rows[stop - 1]) + 1 if stop else 0
    return Trace(trace.kinds[:end], trace.a[:end], trace.b[:end], trace.c[:end])


def diff_cache(
    program: Program, program_input: ProgramInput, trace: Trace
) -> List[Mismatch]:
    """Compare per-event cache results of :func:`profile_events` against
    :func:`oracle_profile_events`, through the block event whose
    accesses reach :data:`CACHE_CAP`, in every :data:`CACHE_GEOMETRIES`
    geometry."""
    import numpy as np

    from repro.cache.stackdist import profile_events

    memory = MemorySystem(program, program_input)
    capped = _capped_trace(trace, memory, CACHE_CAP)
    out: List[Mismatch] = []
    for num_sets, line_bytes, ways in CACHE_GEOMETRIES:
        geometry = f"{num_sets}x{line_bytes}B/{ways}w"
        got = profile_events(capped, memory, num_sets, line_bytes, ways)
        want = oracle_profile_events(capped, memory, num_sets, line_bytes, ways)
        for label, g, w in zip(("rows", "accesses", "hits"), got, want):
            if g.shape != w.shape:
                out.append(Mismatch("cache", label, g.shape, w.shape, geometry))
                continue
            differs = g != w
            if differs.ndim > 1:
                differs = differs.any(axis=1)
            bad = np.nonzero(differs)[0]
            for event in bad[:10].tolist():
                out.append(
                    Mismatch(
                        "cache", f"{label}[event {event}]",
                        g[event].tolist(), w[event].tolist(), geometry,
                    )
                )
    return out


#: fixed intervals the k-means check cuts the run into (at most)
KMEANS_INTERVALS = 600

#: the k-means check clusters for k = 1..KMEANS_K_MAX
KMEANS_K_MAX = 8

#: seeds per k in the k-means check: run (k, s) is seeded k + s, as
#: SimPoint seeds its runs, so every seed's k-means++ draws serve two k
KMEANS_SEEDS = 2


def _projected_bbvs(program: Program, trace: Trace):
    """SimPoint's input for the run: its fixed-interval BBVs, projected,
    and the interval lengths as weights (SimPoint 3.0 weights VLIs so)."""
    from repro.intervals.bbv import collect_bbvs
    from repro.intervals.fixed import split_fixed
    from repro.simpoint.projection import project_bbvs

    length = max(1, trace.total_instructions // KMEANS_INTERVALS)
    intervals = split_fixed(trace, length, program.name)
    if len(intervals) == 0:
        return None, None
    bbvs = collect_bbvs(intervals, trace, program.num_blocks)
    return project_bbvs(bbvs), intervals.lengths.astype(float)


def diff_kmeans(points, weights=None) -> List[Mismatch]:
    """Compare :func:`kmeans` against :func:`oracle_kmeans` bit for bit
    in SimPoint's sweep shape: every run on one prepared set, k =
    1..:data:`KMEANS_K_MAX` with seeds k + s for s < :data:`KMEANS_SEEDS`
    (so each seed's k-means++ draws are extended from one k to the
    next): assignments, centroid bytes, SSE, iterations."""
    from repro.simpoint.kmeans import PreparedPoints, kmeans

    prepared = PreparedPoints(points, weights)
    out: List[Mismatch] = []
    for k in range(1, KMEANS_K_MAX + 1):
        for s in range(KMEANS_SEEDS):
            seed = k + s
            got = kmeans(prepared, k, seed=seed)
            want = oracle_kmeans(points, k, weights, seed=seed)
            for label, g, w in (
                ("assignments", got.assignments.tolist(), want.assignments.tolist()),
                ("centroids", got.centroids.tobytes(), want.centroids.tobytes()),
                ("sse", got.sse, want.sse),
                ("iterations", got.iterations, want.iterations),
            ):
                if g != w:
                    if label == "centroids":
                        g, w = got.centroids.tolist(), want.centroids.tolist()
                    out.append(Mismatch("kmeans", f"k={k} seed={seed} {label}", g, w))
    return out


class _SpanLog(ContextHandler):
    """Records every edge callback, tagged with the walker's row cursor.

    The row cursor is captured because the walk collector of marker
    firings keys off ``walker.row`` at ``on_edge_open`` time; a bulk
    loop that fired the right callbacks at the wrong rows would corrupt
    VLI boundaries.
    """

    def __init__(self, walker: ContextWalker):
        self.walker = walker
        self.log: List[tuple] = []

    def on_edge_open(self, src, dst, t, source):
        self.log.append(("open", src, dst, t, str(source), self.walker.row))

    def on_edge_close(self, src, dst, t_open, t_close, source):
        self.log.append(
            ("close", src, dst, t_open, t_close, str(source), self.walker.row)
        )


def diff_trace_pipeline(
    program: Program,
    program_input: ProgramInput,
    trace: Trace,
    max_instructions: Optional[int] = None,
    compare_record: bool = True,
) -> List[Mismatch]:
    """Compare the trace pipeline's fast paths against their oracles.

    Three parts, all **bit-for-bit** (the fast paths are reorderings of
    identical integer work, so no tolerance applies):

    * recording — the :class:`~repro.engine.machine.Machine` row-template
      recorder (``record_trace(Machine(...))``) vs *trace*,
      which the caller recorded through the object-yielding ``run()``
      oracle; every column must match row for row.  Skipped when
      ``compare_record`` is false (the caller truncated the event stream
      in a way only the object path supports, e.g. a call-depth cap).
    * replay — the bulk row loop (``walk(..., bulk=True)``) vs the scalar
      loop (``walk_scalar``) over *trace*; the callback sequences,
      reported row positions, instruction totals, and final row cursors
      must be identical.
    * reference walk — the scalar loop's walk vs
      :func:`oracle_walk`, with node ids mapped to nodes through the
      :class:`NodeTable`: opens as ``(src, dst, t, source, row)``,
      closes as ``(src, dst, t_open, t_close, source)``, and totals.
    """
    import numpy as np

    out: List[Mismatch] = []

    if compare_record:
        fast = record_trace(
            Machine(program, program_input, max_instructions=max_instructions)
        )
        if len(fast) != len(trace):
            out.append(
                Mismatch("trace", "rows", len(fast), len(trace), "recorded length")
            )
        else:
            for name in ("kinds", "a", "b", "c"):
                got = getattr(fast, name)
                want = getattr(trace, name)
                if not np.array_equal(got, want):
                    row = int(np.nonzero(got != want)[0][0])
                    out.append(
                        Mismatch(
                            "trace", f"column {name}",
                            int(got[row]), int(want[row]),
                            f"first divergence at row {row}",
                        )
                    )

    table = NodeTable(program)
    scalar_walker = ContextWalker(program, table)
    scalar_log = _SpanLog(scalar_walker)
    scalar_total = scalar_walker.walk_scalar(trace, scalar_log)
    bulk_walker = ContextWalker(program, table)
    bulk_log = _SpanLog(bulk_walker)
    bulk_total = bulk_walker.walk(trace, bulk_log, bulk=True)
    _diff_walks(
        out, "trace", "walk(edges)",
        (bulk_total, bulk_walker.row, bulk_log.log),
        (scalar_total, scalar_walker.row, scalar_log.log),
    )

    # The scalar loop against the independent naive walk, which names
    # nodes directly, hands each open (not each close) its trace row,
    # and keeps no row cursor to compare.
    node = table.node
    got_log = [
        ("open", node(src), node(dst), *rest)
        if kind == "open"
        else ("close", node(src), node(dst), *rest[:-1])
        for kind, src, dst, *rest in scalar_log.log
    ]
    want_log: List[tuple] = []
    want_total = oracle_walk(
        program,
        trace,
        on_open=lambda src, dst, t, source, row: want_log.append(
            ("open", src, dst, t, str(source), row)
        ),
        on_close=lambda src, dst, t_open, t_close, source: want_log.append(
            ("close", src, dst, t_open, t_close, str(source))
        ),
    )
    _diff_walks(
        out, "trace", "walk_scalar(edges) vs oracle_walk",
        (scalar_total, None, got_log),
        (want_total, None, want_log),
    )
    return out


def diff_split(
    program: Program,
    trace: Trace,
    marker_set: MarkerSet,
) -> List[Mismatch]:
    """Compare the marker firings from the span index, and the VLI split
    of them, **bit-for-bit** against the walk collector's
    (:func:`~repro.callloop.markers.marker_firings_scalar`: uncollapsed
    ``rows`` / ``ts`` / ``marker_ids``, dtypes included) and the split
    of those (:func:`split_at_markers_scalar`: ``row_bounds`` /
    ``start_ts`` / ``lengths`` / ``phase_ids``), in two arms:

    * ``bare`` — a new :class:`Trace` over *trace*'s columns, so the
      gather builds the span index in the call;
    * ``reloaded`` — the same trace spilled to a scratch
      :class:`~repro.runner.traces.TraceStore` with that index and
      mapped back, so the gather reads the stored index.

    A trace the index cannot answer takes the walk on both arms.
    """
    import tempfile

    from repro.runner.traces import TraceStore

    out: List[Mismatch] = []
    want_firings = marker_firings_scalar(program, trace, marker_set)
    want = split_at_markers_scalar(program, trace, marker_set)

    def compare(label: str, arm: Trace) -> None:
        firings = marker_firings(program, arm, marker_set)
        for name, got, ref in zip(("rows", "ts", "marker_ids"), firings, want_firings):
            if got.dtype != ref.dtype or got.tobytes() != ref.tobytes():
                out.append(
                    Mismatch("split", f"{label} firing {name}", got.tolist(), ref.tolist())
                )
        got = split_at_markers(program, arm, marker_set)
        for name in ("row_bounds", "start_ts", "lengths", "phase_ids"):
            got_col = getattr(got, name).tolist()
            want_col = getattr(want, name).tolist()
            if got_col != want_col:
                out.append(Mismatch("split", f"{label} {name}", got_col, want_col))

    bare = Trace(trace.kinds, trace.a, trace.b, trace.c)
    compare("bare", bare)
    with tempfile.TemporaryDirectory() as root:
        compare("reloaded", TraceStore(root).store("split", bare, program).load())
    return out


def document_diffs(
    got: Any, want: Any, limit: int = 8
) -> List[Tuple[str, Any, Any]]:
    """``(path, got, want)`` at the first *limit* places two JSON
    documents differ, keys in sorted order: a key one side lacks reads
    ``"absent"`` there, and lists of different lengths differ in their
    ``length``."""
    out: List[Tuple[str, Any, Any]] = []

    def walk(g: Any, w: Any, path: str) -> None:
        if len(out) >= limit:
            return
        if isinstance(g, dict) and isinstance(w, dict):
            for key in sorted(set(g) | set(w)):
                if key in g and key in w:
                    walk(g[key], w[key], f"{path}.{key}")
                elif len(out) < limit:
                    out.append(
                        (f"{path}.{key}", g.get(key, "absent"), w.get(key, "absent"))
                    )
        elif isinstance(g, list) and isinstance(w, list) and len(g) != len(w):
            out.append((f"{path} length", len(g), len(w)))
        elif isinstance(g, list) and isinstance(w, list):
            for i, (a, b) in enumerate(zip(g, w)):
                walk(a, b, f"{path}[{i}]")
        elif g != w:
            out.append((path, g, w))

    walk(got, want, "$")
    return out


def _diff_walks(
    out: List[Mismatch],
    kind: str,
    label: str,
    got: Tuple[int, int, List[tuple]],
    want: Tuple[int, int, List[tuple]],
) -> None:
    """Append *kind* mismatches between two ``(total, final row, callback
    log)`` walk outcomes: totals, cursors, and the first diverging
    callback.  *want* is the reference walk: the scalar loop's, or
    :func:`oracle_walk`'s (no cursor; both rows ``None``)."""
    (got_total, got_row, got_log), (want_total, want_row, want_log) = got, want
    if got_total != want_total:
        out.append(Mismatch(kind, f"{label} total", got_total, want_total))
    if got_row != want_row:
        out.append(Mismatch(kind, f"{label} final row", got_row, want_row))
    if got_log != want_log:
        if len(got_log) != len(want_log):
            out.append(
                Mismatch(
                    kind, f"{label} callbacks",
                    len(got_log), len(want_log), "callback count",
                )
            )
        for i, (g, w) in enumerate(zip(got_log, want_log)):
            if g != w:
                out.append(Mismatch(kind, f"{label} callback {i}", g, w))
                break


#: slot size of :func:`diff_streaming`'s chunked-monitor layer: about 350
#: trace rows, so seals land inside the default 257-row chunks (and
#: dozens of times in a 20k-instruction fuzz program)
_CHUNKED_MONITOR_SLOT = 1000


def diff_streaming(
    program: Program,
    trace: Trace,
    params: Optional[SelectionParams] = None,
    chunk_rows: int = 257,
    sequential: Optional[CallLoopGraph] = None,
) -> List[Mismatch]:
    """Compare the streaming path against the batch path, **bit-for-bit**.

    Four layers, all exact (the streaming implementation re-orders the
    identical integer work, so no tolerance applies):

    * walker — a :class:`~repro.callloop.walker.ContextWalker` fed the
      trace through ``feed_rows`` in *chunk_rows* pieces (the bulk loop
      on full chunks of at least ``BULK_MIN_CHUNK_ROWS``) and in pieces
      under ``BULK_MIN_CHUNK_ROWS`` (the scalar loop) must reproduce
      ``walk_scalar``'s callback sequence, row cursor at every callback,
      instruction total, and final row cursor;
    * profile + selection — an unbounded-window, drift-disabled
      :class:`~repro.streaming.StreamingPhaseMonitor` must fold its
      window to the exact serialized batch graph, and selecting on that
      window must serialize to the exact batch marker set;
    * phases — the same streaming monitor's phase changes, dwell
      records, and per-phase time accounting must equal a
      :class:`~repro.runtime.PhaseMonitor` run over the recorded trace
      (its firings gathered from the span index);
    * chunked monitor — a cold-start monitor with a bounded window,
      drift re-selection, and slots small enough that seals land inside
      chunks, fed in *chunk_rows* pieces, must match the same monitor
      fed row by row: re-selections, phase changes, dwells, slot
      counts, and the window graph.

    *sequential* optionally supplies an already-profiled batch graph.
    """
    from repro.callloop.serialization import graph_to_dict, marker_set_to_dict
    from repro.runtime import PhaseMonitor
    from repro.streaming import StreamingConfig, StreamingPhaseMonitor, stream_trace

    params = params or SelectionParams()
    out: List[Mismatch] = []
    table = NodeTable(program)

    def compare_documents(label: str, got, want, reference: str) -> None:
        for where, _, _ in document_diffs(got, want, limit=1):
            out.append(
                Mismatch("streaming", label, "differs", reference, f"first at {where}")
            )

    batch_walker = ContextWalker(program, table)
    batch_log = _SpanLog(batch_walker)
    batch_total = batch_walker.walk_scalar(trace, batch_log)
    for label, rows in (
        ("walker(edges)", chunk_rows),
        ("walker(edges, short chunks)", min(chunk_rows, BULK_MIN_CHUNK_ROWS - 1)),
    ):
        walker = ContextWalker(program, table)
        log = _SpanLog(walker)
        walker.start(log)
        for chunk in trace.iter_chunks(rows):
            walker.feed_rows(*chunk)
        total = walker.finish()
        _diff_walks(
            out, "streaming", label,
            (total, walker.row, log.log),
            (batch_total, batch_walker.row, batch_log.log),
        )

    batch_graph = (
        sequential
        if sequential is not None
        else CallLoopProfiler(program, table=table).profile_trace(trace)
    )
    selection = select_markers(batch_graph, params)
    monitor = stream_trace(
        program,
        trace,
        marker_set=selection.markers,
        config=StreamingConfig(
            window_slots=0, drift_threshold=None, selection=params
        ),
        chunk_rows=chunk_rows,
    )

    compare_documents(
        "window graph",
        graph_to_dict(monitor.window_graph()),
        graph_to_dict(batch_graph),
        "batch",
    )
    compare_documents(
        "selection",
        marker_set_to_dict(monitor.select_now().markers),
        marker_set_to_dict(selection.markers),
        "batch",
    )

    batch_monitor = PhaseMonitor(program, selection.markers)
    batch_monitor.run(trace)
    for what in ("changes", "dwells", "time_in_phase"):
        got, want = getattr(monitor, what), getattr(batch_monitor, what)
        if got != want:
            out.append(
                Mismatch("streaming", f"phase {what}", len(got), len(want), "differs")
            )

    config = StreamingConfig(
        slot_instructions=_CHUNKED_MONITOR_SLOT,
        window_slots=4,
        drift_threshold=0.25,
        selection=SelectionParams(ilower=_CHUNKED_MONITOR_SLOT / 2),
    )
    chunked = StreamingPhaseMonitor(program, None, config, table=table)
    chunked.feed_trace(trace, chunk_rows)
    chunked.finish()
    rowwise = StreamingPhaseMonitor(program, None, config, table=table)
    for row in trace.iter_packed():
        rowwise.feed(*row)
    rowwise.finish()
    for what, got, want in (
        ("reselections", chunked.reselections, rowwise.reselections),
        ("phase changes", chunked.changes, rowwise.changes),
        ("dwells", chunked.dwells, rowwise.dwells),
    ):
        if got != want:
            out.append(
                Mismatch(
                    "streaming", f"chunked monitor {what}",
                    len(got), len(want), "differs from row-at-a-time feed",
                )
            )
    got_slots = (
        chunked.slots_sealed, chunked.window.evicted_slots, chunked.drift_events
    )
    want_slots = (
        rowwise.slots_sealed, rowwise.window.evicted_slots, rowwise.drift_events
    )
    if got_slots != want_slots:
        out.append(
            Mismatch(
                "streaming", "chunked monitor slots", got_slots, want_slots,
                "(sealed, evicted, drift events)",
            )
        )
    compare_documents(
        "chunked monitor window graph",
        graph_to_dict(chunked.window_graph()),
        graph_to_dict(rowwise.window_graph()),
        "row-at-a-time feed",
    )
    return out


# ---------------------------------------------------------------------------
# whole-program differential run
# ---------------------------------------------------------------------------


def verify_program(
    program: Program,
    program_input: ProgramInput,
    params: Optional[SelectionParams] = None,
    max_instructions: Optional[int] = None,
    max_call_depth: Optional[int] = None,
    reuse_cap: int = 1500,
    check_reuse: bool = True,
) -> DiffReport:
    """Run every differential check on one (program, input) pair.

    ``max_instructions`` caps the engine run and ``max_call_depth``
    truncates the recorded event stream at a call-nesting bound (the
    interpreter recurses per program call, so deeply recursive fuzz
    programs need it).  Both caps apply identically to the optimized and
    oracle sides, which consume the same recorded trace.  ``reuse_cap``
    bounds the O(n²) oracle's address stream.
    """
    params = params or SelectionParams()
    report = DiffReport(program=f"{program.name}/{program_input.name}")

    events = Machine(program, program_input, max_instructions=max_instructions).run()
    capped = _DepthCapped(events, max_call_depth)
    trace = record_trace(capped)
    profiler = CallLoopProfiler(program)
    optimized = profiler.profile_trace(trace)

    # The columnar-record half only applies when the object stream was
    # not truncated mid-flight: a call-depth cap exists solely on the
    # object path (it stops *consuming* the generator), so a truncated
    # stream has no equivalent fast recording to compare against.
    report.extend(
        "trace-pipeline",
        diff_trace_pipeline(
            program,
            program_input,
            trace,
            max_instructions=max_instructions,
            compare_record=not capped.truncated,
        ),
    )
    report.extend(
        "streaming",
        diff_streaming(program, trace, params, sequential=optimized),
    )
    # the shipping profile, then its bulk-walk fallback probed directly
    # (fuzz programs never make the span builder decline)
    oracle_graph = oracle_call_loop_graph(program, trace)
    walked = CallLoopProfiler(program).walk_trace(trace)
    report.extend(
        "graph",
        diff_graphs(optimized, oracle_graph)
        + [
            replace(m, key=f"walk {m.key}")
            for m in diff_graphs(walked, oracle_graph)
        ],
    )
    report.extend("depth", diff_depths(optimized))
    report.extend("selection", diff_selection(optimized, params))

    markers = select_markers(optimized, params).markers
    report.extend("split", diff_split(program, trace, markers))

    report.extend("cache", diff_cache(program, program_input, trace))
    points, weights = _projected_bbvs(program, trace)
    if points is not None:
        report.extend("kmeans", diff_kmeans(points, weights))
    else:
        report.checks_run.append("kmeans(skipped: no intervals)")

    if check_reuse:
        memory = MemorySystem(program, program_input)
        addresses = _address_stream(trace, memory, reuse_cap)
        if len(addresses):
            report.extend("reuse", diff_reuse(addresses))
        else:
            report.checks_run.append("reuse(skipped: no data accesses)")
    return report


class _DepthCapped:
    """The event stream, cut once call nesting reaches *cap* (if any).

    Consumption drives the interpreter's recursion, so not requesting
    further events bounds its Python stack; the truncated trace is a
    valid differential input (both sides unwind open frames at trace
    end).  ``truncated`` says afterwards whether the cap cut the stream.
    """

    def __init__(self, events, cap: Optional[int]):
        self.events = events
        self.cap = cap
        self.truncated = False

    def __iter__(self):
        from repro.engine.events import CallEvent, ReturnEvent

        if self.cap is None:
            yield from self.events
            return
        depth = 0
        for ev in self.events:
            yield ev
            t = type(ev)
            if t is CallEvent:
                depth += 1
                if depth >= self.cap:
                    self.truncated = True
                    return
            elif t is ReturnEvent:
                depth -= 1


def _address_stream(trace: Trace, memory: MemorySystem, cap: int):
    """First *cap* data addresses of the run, in access order."""
    from repro.engine.events import K_BLOCK

    memory.reset()
    ids = trace.a[trace.kinds == K_BLOCK]
    return memory.addresses_for_blocks(ids[: memory.executions_to_reach(ids, cap)])[:cap]
