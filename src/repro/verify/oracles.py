"""Deliberately naive reference implementations of the core algorithms.

Every function here trades all performance for obviousness, so it can
serve as the trusted side of a differential test (see
:mod:`repro.verify.diff`):

* :func:`oracle_walk` replays event objects through a naive shadow
  call/loop stack that keeps :class:`Node` objects and scans the whole
  frame stack to decide outermost activations; the ``trace-pipeline``
  check pins the scalar walk loop to it, and so the walk collector the
  ``split`` check takes as its reference (the split has no oracle of
  its own);
* :func:`oracle_call_loop_graph` re-derives the hierarchical call-loop
  graph from that walk and keeps the **full list of observations** per
  edge, computing statistics with a two-pass ``math.fsum`` formula
  instead of exact integer moments;
* :func:`oracle_estimate_depth` is a direct recursive transliteration
  of the paper's "modified depth-first search" prose, and
  :func:`oracle_longest_path_depths` brute-forces the exact longest
  simple path by enumerating every root-to-node path (exponential — the
  two must agree on acyclic graphs, where the estimate is exact);
  :func:`oracle_processing_order` orders nodes by the recursive depths;
* :func:`oracle_select_markers` applies Pass 1 and Pass 2 as direct
  list filters over every node's in-edges, Pass 2 re-testing candidacy
  by set membership, with ``math.fsum`` statistics (no numpy), recording
  each candidate's applied threshold;
* :func:`oracle_reuse_distances` is the textbook O(n²) scan with an
  explicit ``set`` of lines per access (no Fenwick tree), and
  :func:`oracle_reuse_histogram` bins each distance with
  ``int.bit_length`` in a Python loop;
* :func:`oracle_profile_events` steps :class:`MultiAssocCacheSim`
  (per-set Python lists) through the trace one block event at a time,
  fetching each event's addresses with its own ``addresses_for_block``
  call;
* :func:`oracle_kmeans` is plain weighted Lloyd's with k-means++
  seeding: a full subtract-square-sum distance matrix every pass,
  masked per-cluster sums, and one more distance pass after
  convergence.

The oracles intentionally re-implement *static* facts too: loops are
re-discovered by scanning for backwards conditional branches rather
than calling :func:`repro.callloop.loops.discover_loops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.callloop.graph import CallLoopGraph, Edge, Node, NodeKind, ROOT
from repro.callloop.selection import SelectionParams
from repro.cache.stackdist import MultiAssocCacheSim
from repro.engine.events import K_BLOCK, BlockEvent, CallEvent, ReturnEvent
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace
from repro.ir.program import INSTRUCTION_BYTES, Program, SourceLoc, TermKind

EdgeKey = Tuple[Node, Node]

#: callback signatures of the naive walk
OnOpen = Callable[[Node, Node, int, Optional[SourceLoc], int], None]
OnClose = Callable[[Node, Node, int, int, Optional[SourceLoc]], None]


# ---------------------------------------------------------------------------
# naive static facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NaiveLoop:
    """A loop found by scanning for a backwards conditional branch."""

    proc: str
    label: str
    header_address: int
    latch_branch_address: int
    source: SourceLoc

    @property
    def head_node(self) -> Node:
        uid = f"{self.proc}@{self.source.file}:{self.source.line}"
        return Node(NodeKind.LOOP_HEAD, self.proc, uid, self.label)

    @property
    def body_node(self) -> Node:
        uid = f"{self.proc}@{self.source.file}:{self.source.line}"
        return Node(NodeKind.LOOP_BODY, self.proc, uid, self.label)


def _naive_discover_loops(program: Program) -> Dict[int, _NaiveLoop]:
    """Loops by header address, from backwards branches only."""
    loops: Dict[int, _NaiveLoop] = {}
    for proc in program.procedures.values():
        for block in proc.blocks:
            term = block.terminator
            if term.kind != TermKind.COND_BRANCH:
                continue
            if term.target_offset is None or term.target_offset > block.offset:
                continue
            header = proc.base_address + term.target_offset * INSTRUCTION_BYTES
            latch = block.address + (block.size - 1) * INSTRUCTION_BYTES
            label = block.label
            if label.endswith(".latch"):
                label = label[: -len(".latch")]
            loops[header] = _NaiveLoop(
                proc.name, label, header, latch, block.source
            )
    return loops


def _call_site_sources(program: Program) -> Dict[int, SourceLoc]:
    """Source of every call instruction, by its address."""
    sources: Dict[int, SourceLoc] = {}
    for proc in program.procedures.values():
        for block in proc.blocks:
            if block.terminator.kind == TermKind.CALL:
                addr = block.address + (block.size - 1) * INSTRUCTION_BYTES
                sources[addr] = block.source
    return sources


# ---------------------------------------------------------------------------
# naive trace walk
# ---------------------------------------------------------------------------


class _Span:
    """An open loop on a frame's loop stack."""

    def __init__(self, loop: _NaiveLoop, parent_ctx: Node, t: int):
        self.loop = loop
        self.parent_ctx = parent_ctx
        self.head_open_t = t
        self.iter_open_t = t


class _Frame:
    """An open procedure activation."""

    def __init__(
        self,
        proc_name: str,
        outermost: bool,
        parent_ctx: Node,
        t: int,
        site_source: Optional[SourceLoc],
    ):
        self.proc_name = proc_name
        self.head = Node(NodeKind.PROC_HEAD, proc_name, label=proc_name)
        self.body = Node(NodeKind.PROC_BODY, proc_name, label=proc_name)
        self.outermost = outermost
        self.parent_ctx = parent_ctx
        self.open_t = t
        self.site_source = site_source
        self.spans: List[_Span] = []


def oracle_walk(
    program: Program,
    trace: Trace,
    on_open: Optional[OnOpen] = None,
    on_close: Optional[OnClose] = None,
) -> int:
    """Replay *trace* with the naive shadow call/loop stack.

    Callbacks receive :class:`Node` objects directly (there is no
    integer node table on this path).  ``on_open`` additionally gets the
    trace row being processed, matching what the optimized walker
    exposes to its handlers.  Returns the total dynamic instructions.
    """
    loops = _naive_discover_loops(program)
    site_sources = _call_site_sources(program)
    proc_by_id = {p.proc_id: p for p in program.procedures.values()}

    def opened(src, dst, t, source, row):
        if on_open is not None:
            on_open(src, dst, t, source, row)

    def closed(src, dst, t_open, t_close, source):
        if on_close is not None:
            on_close(src, dst, t_open, t_close, source)

    def close_frame(frame: _Frame, t: int) -> None:
        while frame.spans:
            span = frame.spans.pop()
            closed(span.loop.head_node, span.loop.body_node,
                   span.iter_open_t, t, span.loop.source)
            closed(span.parent_ctx, span.loop.head_node,
                   span.head_open_t, t, span.loop.source)
        closed(frame.head, frame.body, frame.open_t, t, None)
        if frame.outermost:
            closed(frame.parent_ctx, frame.head, frame.open_t, t,
                   frame.site_source)

    entry = program.procedures[program.entry]
    t = 0
    main = _Frame(entry.name, True, ROOT, t, entry.source)
    frames: List[_Frame] = [main]
    opened(ROOT, main.head, t, main.site_source, -1)
    opened(main.head, main.body, t, None, -1)

    row = -1
    for event in trace.replay():
        row += 1
        if isinstance(event, BlockEvent):
            frame = frames[-1]
            addr = event.address
            # leave loops whose static region no longer covers this block
            while frame.spans:
                span = frame.spans[-1]
                if span.loop.header_address <= addr <= span.loop.latch_branch_address:
                    break
                frame.spans.pop()
                closed(span.loop.head_node, span.loop.body_node,
                       span.iter_open_t, t, span.loop.source)
                closed(span.parent_ctx, span.loop.head_node,
                       span.head_open_t, t, span.loop.source)
            loop = loops.get(addr)
            if loop is not None:
                if frame.spans and frame.spans[-1].loop.header_address == addr:
                    # back-edge arrival: one iteration ends, the next begins
                    span = frame.spans[-1]
                    closed(loop.head_node, loop.body_node,
                           span.iter_open_t, t, loop.source)
                    span.iter_open_t = t
                    opened(loop.head_node, loop.body_node, t, loop.source, row)
                else:
                    parent_ctx = (
                        frame.spans[-1].loop.body_node if frame.spans else frame.body
                    )
                    frame.spans.append(_Span(loop, parent_ctx, t))
                    opened(parent_ctx, loop.head_node, t, loop.source, row)
                    opened(loop.head_node, loop.body_node, t, loop.source, row)
            t += event.size
        elif isinstance(event, CallEvent):
            frame = frames[-1]
            callee = proc_by_id[event.callee_id].name
            parent_ctx = (
                frame.spans[-1].loop.body_node if frame.spans else frame.body
            )
            # naive outermost test: scan every open frame for the callee
            outermost = all(f.proc_name != callee for f in frames)
            source = site_sources.get(event.site_address)
            new = _Frame(callee, outermost, parent_ctx, t, source)
            if outermost:
                opened(parent_ctx, new.head, t, source, row)
            opened(new.head, new.body, t, source, row)
            frames.append(new)
        elif isinstance(event, ReturnEvent):
            close_frame(frames.pop(), t)
        # branch events carry no call/loop structure

    while frames:  # end of run: unwind whatever is still active
        close_frame(frames.pop(), t)
    return t


# ---------------------------------------------------------------------------
# oracle graph: full observation lists, two-pass statistics
# ---------------------------------------------------------------------------


@dataclass
class OracleEdgeStats:
    """Two-pass statistics over an edge's full observation list."""

    count: int
    mean: float
    std: float
    cov: float
    max_value: float
    total: float


class OracleGraph:
    """Per-edge observation lists in first-observation order."""

    def __init__(self, program_name: str):
        self.program_name = program_name
        self.total_instructions = 0
        self.samples: Dict[EdgeKey, List[float]] = {}
        self.site_sources: Dict[EdgeKey, Set[SourceLoc]] = {}

    def observe(
        self, src: Node, dst: Node, value: float, source: Optional[SourceLoc]
    ) -> None:
        key = (src, dst)
        self.samples.setdefault(key, []).append(value)
        sources = self.site_sources.setdefault(key, set())
        if source is not None:
            sources.add(source)

    def edge_keys(self) -> List[EdgeKey]:
        return list(self.samples)

    def stats(self, key: EdgeKey) -> OracleEdgeStats:
        values = self.samples[key]
        n = len(values)
        mean = math.fsum(values) / n
        if n < 2:
            variance = 0.0
        else:
            variance = math.fsum((v - mean) ** 2 for v in values) / n
        std = math.sqrt(max(0.0, variance))
        cov = 0.0 if mean == 0 else std / abs(mean)
        return OracleEdgeStats(
            count=n,
            mean=mean,
            std=std,
            cov=cov,
            max_value=max(values),
            total=math.fsum(values),
        )


def oracle_call_loop_graph(program: Program, trace: Trace) -> OracleGraph:
    """Accumulate the hierarchical call-loop graph the obvious way."""
    graph = OracleGraph(program.name)

    def on_close(src, dst, t_open, t_close, source):
        graph.observe(src, dst, t_close - t_open, source)

    graph.total_instructions = oracle_walk(program, trace, on_close=on_close)
    return graph


# ---------------------------------------------------------------------------
# depth oracles
# ---------------------------------------------------------------------------


def _graph_nodes(graph: CallLoopGraph) -> List[Node]:
    seen: Dict[Node, None] = {}
    for edge in graph.edges:
        seen.setdefault(edge.src)
        seen.setdefault(edge.dst)
    return list(seen)


def _roots(graph: CallLoopGraph) -> List[Node]:
    nodes = _graph_nodes(graph)
    roots = [n for n in nodes if not graph.in_edges(n)]
    if not roots:
        roots = [ROOT] if ROOT in nodes else nodes[:1]
    return roots


def oracle_estimate_depth(graph: CallLoopGraph) -> Dict[Node, int]:
    """The paper's modified DFS, transliterated recursively.

    "A node can be traversed more than once if we later find a longer
    path to that node.  We never re-traverse a node on the current
    path."  Successors are visited in the graph's edge order, so the
    result must equal :func:`repro.callloop.depth.estimate_max_depth`
    exactly, cycles included.
    """
    depth: Dict[Node, int] = {}

    def visit(node: Node, on_path: Set[Node]) -> None:
        for succ in graph.successors(node):
            if succ in on_path:
                continue
            if depth[node] + 1 > depth.get(succ, -1):
                depth[succ] = depth[node] + 1
                on_path.add(succ)
                visit(succ, on_path)
                on_path.discard(succ)

    for root in _roots(graph):
        depth.setdefault(root, 0)
        visit(root, {root})
    for node in _graph_nodes(graph):
        depth.setdefault(node, 0)
    return depth


def oracle_longest_path_depths(
    graph: CallLoopGraph, step_budget: int = 2_000_000
) -> Optional[Dict[Node, int]]:
    """Exact longest *simple* path from the roots, by brute force.

    Enumerates every simple path (exponential); returns ``None`` when
    *step_budget* extensions are exhausted.  On acyclic graphs the
    estimate above is exact, so the two must agree there; on cyclic
    graphs the estimate is only a heuristic and this oracle does not
    apply.
    """
    best: Dict[Node, int] = {}
    steps = 0

    def extend(node: Node, length: int, on_path: Set[Node]) -> bool:
        nonlocal steps
        steps += 1
        if steps > step_budget:
            return False
        if length > best.get(node, -1):
            best[node] = length
        for succ in graph.successors(node):
            if succ in on_path:
                continue
            on_path.add(succ)
            ok = extend(succ, length + 1, on_path)
            on_path.discard(succ)
            if not ok:
                return False
        return True

    for root in _roots(graph):
        if not extend(root, 0, {root}):
            return None
    for node in _graph_nodes(graph):
        best.setdefault(node, 0)
    return best


def graph_has_cycle(graph: CallLoopGraph) -> bool:
    """True if the call-loop graph contains a directed cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Node, int] = {n: WHITE for n in _graph_nodes(graph)}

    def visit(node: Node) -> bool:
        color[node] = GRAY
        for succ in graph.successors(node):
            if color[succ] == GRAY:
                return True
            if color[succ] == WHITE and visit(succ):
                return True
        color[node] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in list(color))


def oracle_processing_order(
    graph: CallLoopGraph, depths: Optional[Dict[Node, int]] = None
) -> List[Node]:
    """Decreasing depth, ties by increasing out-degree then name."""
    if depths is None:
        depths = oracle_estimate_depth(graph)
    out_degree: Dict[Node, int] = {n: 0 for n in _graph_nodes(graph)}
    for edge in graph.edges:
        out_degree[edge.src] += 1
    return sorted(
        _graph_nodes(graph),
        key=lambda n: (-depths[n], out_degree[n], str(n)),
    )


# ---------------------------------------------------------------------------
# selection oracle: both passes as direct filters
# ---------------------------------------------------------------------------


@dataclass
class OracleSelection:
    """Pass-1/Pass-2 decisions made with plain-python arithmetic."""

    candidates: List[EdgeKey] = field(default_factory=list)
    cov_base: float = 0.0
    cov_spread: float = 0.0
    selected: List[EdgeKey] = field(default_factory=list)
    #: applied threshold per candidate edge (after the cov floor)
    thresholds: Dict[EdgeKey, float] = field(default_factory=dict)


def oracle_select_markers(
    graph: CallLoopGraph,
    params: Optional[SelectionParams] = None,
    order: Optional[List[Node]] = None,
) -> OracleSelection:
    """Run the two-pass selection as direct set filters over *graph*.

    Operates on the optimized graph's edge annotations (so it verifies
    the *selection logic* in isolation; the statistics themselves are
    verified separately against :class:`OracleGraph`).
    """
    params = params or SelectionParams()
    if order is None:
        order = oracle_processing_order(graph)

    def eligible(edge: Edge) -> bool:
        if edge.src.kind is NodeKind.ROOT:
            return False
        if params.procedures_only and edge.dst.kind.is_loop:
            return False
        return True

    result = OracleSelection()
    for node in order:
        for edge in graph.in_edges(node):
            if eligible(edge) and edge.avg >= params.ilower:
                result.candidates.append((edge.src, edge.dst))

    # Only finite CoVs feed the threshold statistics (the intended
    # semantics mirrored by ``cov_threshold_stats``): one inf/NaN CoV
    # from a serialized zero-observation edge must not poison the
    # per-program threshold and deselect every marker.
    covs = [graph.find_edge(*key).cov for key in result.candidates]
    covs = [c for c in covs if math.isfinite(c)]
    if covs:
        result.cov_base = math.fsum(covs) / len(covs)
        variance = math.fsum((c - result.cov_base) ** 2 for c in covs) / len(covs)
        result.cov_spread = math.sqrt(max(0.0, variance))

    avg_hi = params.ilower * params.slack_saturation
    candidate_set = set(result.candidates)
    for node in order:
        for edge in graph.in_edges(node):
            key = (edge.src, edge.dst)
            if key not in candidate_set:
                continue
            if avg_hi <= params.ilower:
                threshold = result.cov_base
            else:
                scale = (edge.avg - params.ilower) / (avg_hi - params.ilower)
                scale = min(1.0, max(0.0, scale))
                threshold = result.cov_base + result.cov_spread * scale
            threshold = max(threshold, params.cov_floor)
            result.thresholds[key] = threshold
            if edge.cov <= threshold:
                result.selected.append(key)
    return result


# ---------------------------------------------------------------------------
# reuse-distance oracle
# ---------------------------------------------------------------------------


def oracle_reuse_distances(
    addresses: Sequence[int], line_bytes: int = 64
) -> List[float]:
    """Textbook O(n²) reuse distances; first touches are ``inf``."""
    lines = [int(a) // line_bytes for a in addresses]
    out: List[float] = []
    for t, line in enumerate(lines):
        prev = -1
        for s in range(t - 1, -1, -1):
            if lines[s] == line:
                prev = s
                break
        if prev < 0:
            out.append(math.inf)
        else:
            out.append(float(len(set(lines[prev + 1: t]))))
    return out


def oracle_reuse_histogram(
    distances: Sequence[float], num_bins: int = 26
) -> List[int]:
    """Log2-binned reuse-distance histogram, one distance at a time.

    Bin of a finite distance d is ``floor(log2(d + 1))`` computed with
    exact integer arithmetic (``bit_length``), saturated into the
    next-to-last bin; the last bin counts first touches (infinite).
    """
    counts = [0] * num_bins
    for d in distances:
        if math.isinf(d):
            counts[num_bins - 1] += 1
        else:
            counts[min((int(d) + 1).bit_length() - 1, num_bins - 2)] += 1
    return counts


# ---------------------------------------------------------------------------
# cache-simulation oracle
# ---------------------------------------------------------------------------


def oracle_profile_events(
    trace: Trace,
    memory: MemorySystem,
    num_sets: int = 512,
    line_bytes: int = 64,
    max_ways: int = 8,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, accesses, hits)`` of every block event, one
    :meth:`MultiAssocCacheSim.access_many` call per event."""
    mask = trace.kinds == K_BLOCK
    rows = np.nonzero(mask)[0]
    ids = trace.a[mask]
    n_events = len(rows)
    accesses = np.zeros(n_events, dtype=np.int64)
    hits = np.zeros((n_events, max_ways), dtype=np.int64)
    sim = MultiAssocCacheSim(num_sets, line_bytes, max_ways)
    memory.reset()
    prev_hits = sim.hits_at_assoc()
    prev_accesses = 0
    for k in range(n_events):
        block_addresses = memory.addresses_for_block(int(ids[k]))
        if len(block_addresses):
            sim.access_many(block_addresses)
            cum = sim.hits_at_assoc()
            hits[k] = cum - prev_hits
            accesses[k] = sim.accesses - prev_accesses
            prev_hits = cum
            prev_accesses = sim.accesses
    return rows, accesses, hits


# ---------------------------------------------------------------------------
# k-means oracle
# ---------------------------------------------------------------------------


def _oracle_plusplus(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding, every distance computed."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centroids[0] = points[first]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0:
            centroids[j:] = centroids[0]
            break
        idx = rng.choice(n, p=scores / total)
        centroids[j] = points[idx]
        dist = ((points - centroids[j]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centroids


def _oracle_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    out = np.empty((len(points), len(centroids)), dtype=np.float64)
    for j in range(len(centroids)):
        diff = points - centroids[j]
        out[:, j] = (diff * diff).sum(axis=1)
    return out


def oracle_kmeans(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    seed: int = 0,
    max_iter: int = 100,
):
    """Plain weighted Lloyd's with k-means++ init: the reference
    :func:`repro.simpoint.kmeans.kmeans` must equal bit for bit."""
    from repro.simpoint.kmeans import KMeansResult

    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != n:
        raise ValueError("weights length mismatch")
    if weights.sum() <= 0:
        raise ValueError("total weight must be positive")

    rng = np.random.default_rng(seed)
    centroids = _oracle_plusplus(points, weights, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _oracle_sq_dists(points, centroids)
        new_assignments = d2.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            mask = assignments == j
            total = weights[mask].sum()
            if total > 0:
                centroids[j] = (points[mask] * weights[mask, None]).sum(0) / total
            else:
                # empty cluster: re-seed at the worst-served point
                worst = (d2[np.arange(n), assignments] * weights).argmax()
                centroids[j] = points[worst]
    d2 = _oracle_sq_dists(points, centroids)
    assignments = d2.argmin(axis=1)
    sse = float((d2[np.arange(n), assignments] * weights).sum())
    return KMeansResult(assignments, centroids, sse, iterations)
