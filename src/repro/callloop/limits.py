"""Marker selection with a maximum interval size (paper Section 5.2).

The base algorithm bounds interval size only from below; when markers feed
SimPoint, simulation time must also be bounded from above.  Two heuristics
are added in pass 2:

* **Maximum interval limit** — while searching up the graph, if a node's
  incoming edge has a *maximum* hierarchical count above ``max_limit``,
  stop searching this path (everything above is even larger) and mark the
  node's outgoing edges instead, recursing further down if an outgoing
  edge itself exceeds the limit.  These forced markers are why programs
  like galgel and gcc end up with many small intervals.
* **Merging loop iterations** — when a loop's head->body edge is stable
  (CoV below threshold) but each iteration is smaller than ``ilower``,
  group N consecutive iterations into one interval, choosing the N in
  ``[ilower/A, max_limit/A]`` that most evenly divides the loop's average
  iterations per entry.

The paper notes these markers can be input specific; they are intended
only for SimPoint, not for cross-input reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.callloop.graph import CallLoopGraph, Edge, Node, NodeKind
from repro.callloop.markers import MarkerSet, PhaseMarker
from repro.callloop.selection import (
    SelectionParams,
    SelectionResult,
    _cov_threshold,
    collect_candidates,
    cov_threshold_stats,
    select_markers,
)


@dataclass(frozen=True)
class LimitParams:
    """Inputs to the limit selection algorithm.

    The paper's values are ilower = 10M and max-limit = 200M instructions
    ("limit 10-200m"); the reproduction runs at 1/1000 scale by default.
    ``force_floor_fraction`` bounds how small a force-marked interval may
    be, as a fraction of ``ilower`` (our interpretation — the paper only
    says small intervals result).
    """

    ilower: float = 10_000.0
    max_limit: float = 200_000.0
    procedures_only: bool = False
    force_floor_fraction: float = 0.1
    slack_saturation: float = 10.0
    cov_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.ilower <= 0:
            raise ValueError("ilower must be positive")
        if self.max_limit <= self.ilower:
            raise ValueError("max_limit must exceed ilower")

    def base_params(self) -> SelectionParams:
        return SelectionParams(
            ilower=self.ilower,
            procedures_only=self.procedures_only,
            slack_saturation=self.slack_saturation,
            cov_floor=self.cov_floor,
        )


def _force_mark_below(
    graph: CallLoopGraph,
    node: Node,
    params: LimitParams,
    forced: Dict[Tuple[Node, Node], Edge],
    visited: Set[Node],
) -> None:
    """Mark *node*'s outgoing edges; recurse where even those are too big."""
    if node in visited:
        return
    visited.add(node)
    floor = params.ilower * params.force_floor_fraction
    for edge in graph.out_edges(node):
        if edge.avg < floor:
            continue  # too tiny to be a useful interval at all
        if edge.max <= params.max_limit:
            forced[edge.key()] = edge
        else:
            _force_mark_below(graph, edge.dst, params, forced, visited)


def _merge_iteration_count(
    avg_iter_size: float, avg_iters_per_entry: float, params: LimitParams
) -> Optional[int]:
    """The N of Section 5.2's iteration grouping, or None if impossible.

    N must put the merged interval in [ilower, max_limit]; among feasible
    N we minimize ``avg_iters mod N`` relative to N (how unevenly the last
    group comes out), breaking ties toward smaller N.
    """
    if avg_iter_size <= 0:
        return None
    n_lo = max(2, math.ceil(params.ilower / avg_iter_size))
    n_hi = math.floor(params.max_limit / avg_iter_size)
    if n_hi < n_lo:
        return None
    if avg_iters_per_entry < n_lo:
        return None  # the loop doesn't iterate enough to merge
    best_n = None
    best_score = None
    for n in range(n_lo, n_hi + 1):
        score = (avg_iters_per_entry % n) / n
        if best_score is None or score < best_score - 1e-12:
            best_score = score
            best_n = n
    return best_n


def select_markers_with_limit(
    graph: CallLoopGraph, params: Optional[LimitParams] = None
) -> SelectionResult:
    """Pass 2 with the max-limit and iteration-merging heuristics."""
    from repro.telemetry import get_telemetry

    tm = get_telemetry()
    params = params or LimitParams()
    with tm.span("callloop.select.pass1", program=graph.program_name, limit=True):
        order, candidates = collect_candidates(graph, params.base_params())
        if tm.enabled:
            tm.counter("callloop.select.pass1.kept", len(candidates))
            tm.counter(
                "callloop.select.pass1.rejected",
                graph.num_edges - len(candidates),
            )
    cov_base, cov_spread = cov_threshold_stats(candidates)
    avg_hi = params.ilower * params.slack_saturation

    candidate_set = {e.key() for e in candidates}
    chosen: Dict[Tuple[Node, Node], PhaseMarker] = {}
    forced: Dict[Tuple[Node, Node], Edge] = {}
    force_visited: Set[Node] = set()
    merge_n: Dict[Tuple[Node, Node], int] = {}

    def threshold(edge: Edge) -> float:
        return max(
            _cov_threshold(edge.avg, params.ilower, avg_hi, cov_base, cov_spread),
            params.cov_floor,
        )

    with tm.span("callloop.select.pass2", program=graph.program_name, limit=True):
        for node in order:
            for edge in graph.in_edges(node):
                if edge.key() in candidate_set:
                    if edge.max > params.max_limit:
                        # Everything further up this path is larger still:
                        # bound interval size by marking below this node.
                        _force_mark_below(graph, node, params, forced, force_visited)
                        continue
                    if edge.cov <= threshold(edge):
                        chosen[edge.key()] = _marker_from_edge(edge, 0)
                elif (
                    edge.src.kind is NodeKind.LOOP_HEAD
                    and edge.dst.kind is NodeKind.LOOP_BODY
                    and edge.avg < params.ilower
                    and edge.cov <= threshold(edge)
                ):
                    # Stable but tiny iterations: merge N of them per interval.
                    entries = sum(e.count for e in graph.in_edges(edge.src))
                    if entries == 0:
                        continue
                    avg_iters = edge.count / entries
                    n = _merge_iteration_count(edge.avg, avg_iters, params)
                    if n is not None:
                        chosen[edge.key()] = _marker_from_edge(edge, 0, merge=n)

        # Forced markers that were not already chosen.
        for key, edge in forced.items():
            if key not in chosen:
                chosen[key] = _marker_from_edge(edge, 0, is_forced=True)
        if tm.enabled:
            kept = chosen.values()
            tm.counter("callloop.select.pass2.kept", len(chosen))
            tm.counter(
                "callloop.select.pass2.rejected",
                max(0, len(candidates) - len(chosen)),
            )
            tm.counter(
                "callloop.select.forced", sum(1 for m in kept if m.forced)
            )
            tm.counter(
                "callloop.select.merged",
                sum(1 for m in kept if m.merge_iterations > 1),
            )

    # Renumber deterministically (depth order of dst, then src).
    node_rank = {node: i for i, node in enumerate(order)}
    ordered = sorted(
        chosen.values(),
        key=lambda m: (node_rank.get(m.dst, 1 << 30), str(m.src), str(m.dst)),
    )
    markers = [
        PhaseMarker(
            marker_id=i + 1,
            src=m.src,
            dst=m.dst,
            avg_interval=m.avg_interval,
            cov=m.cov,
            max_interval=m.max_interval,
            merge_iterations=m.merge_iterations,
            forced=m.forced,
            site_sources=m.site_sources,
        )
        for i, m in enumerate(ordered)
    ]
    marker_set = MarkerSet(
        program_name=graph.program_name,
        variant=graph.variant,
        ilower=params.ilower,
        max_limit=params.max_limit,
        markers=markers,
    )
    return SelectionResult(
        markers=marker_set,
        candidates=candidates,
        cov_base=cov_base,
        cov_spread=cov_spread,
    )


def select_with_options(
    graph: CallLoopGraph,
    ilower: float,
    max_limit: float = 0,
    procedures_only: bool = False,
) -> SelectionResult:
    """The selection the ``ilower`` / ``max_limit`` / ``procedures_only``
    options name: :func:`select_markers_with_limit` when *max_limit* is
    set, else :func:`select_markers`; *procedures_only* reaches pass 1
    either way."""
    if max_limit:
        return select_markers_with_limit(
            graph,
            LimitParams(
                ilower=ilower, max_limit=max_limit, procedures_only=procedures_only
            ),
        )
    return select_markers(
        graph, SelectionParams(ilower=ilower, procedures_only=procedures_only)
    )


def _marker_from_edge(
    edge: Edge, marker_id: int, merge: int = 1, is_forced: bool = False
) -> PhaseMarker:
    return PhaseMarker(
        marker_id=marker_id,
        src=edge.src,
        dst=edge.dst,
        avg_interval=edge.avg * merge,
        cov=edge.cov,
        max_interval=edge.max * merge,
        merge_iterations=merge,
        forced=is_forced,
        site_sources=tuple(sorted(edge.site_sources)),
    )
