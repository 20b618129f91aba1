"""The two-pass software phase marker selection algorithm (Section 5.1).

Pass 1 prunes the call-loop graph to edges whose **average hierarchical
instruction count** meets the minimum interval size ``ilower``; pass 2
derives a per-program CoV threshold from those candidates and selects the
edges whose hierarchical-count CoV falls below it.

The CoV threshold applied to each edge lies between ``avg(CoV)`` and
``avg(CoV) + stddev(CoV)`` over the candidates, scaled linearly with the
edge's average hierarchical count: edges near ``ilower`` must be very
stable; larger-interval edges are allowed more variability.  This is the
paper's mechanism for tuning the threshold to each program's inherent
variability (integer codes are noisier than floating-point codes).

Complexity: O(E + N log N) — one sort for the depth ordering plus a
constant number of passes over the edges.

Both passes are plain per-edge loops.  Call-loop graphs are small (tens
to hundreds of edges) and every caller selects on a freshly built graph,
so a per-edge loop beats building an array view of the edges first.
``repro.verify`` diff-checks the result against
:func:`repro.verify.oracles.oracle_select_markers` on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.callloop.depth import processing_order
from repro.callloop.graph import CallLoopGraph, Edge, Node, NodeKind
from repro.callloop.markers import MarkerSet, PhaseMarker


@dataclass(frozen=True)
class SelectionParams:
    """Inputs to the base (no-limit) selection algorithm.

    ``ilower`` is the minimum average interval size in instructions.
    ``procedures_only`` restricts candidates to edges entering procedure
    head/body nodes — the configuration the paper evaluates as
    "procs only" (the Huang et al. style baseline) in Figures 7-10.

    Two reproduction decisions the paper leaves unspecified:

    * ``slack_saturation`` — the linear CoV-slack scaling reaches its
      maximum at ``slack_saturation * ilower`` (rather than at the
      largest candidate, which a single whole-program edge would
      dominate);
    * ``cov_floor`` — the applied threshold is never below this absolute
      CoV.  For programs whose candidate edges are uniformly stable the
      paper's avg(CoV) rule would arbitrarily reject half of an
      all-stable population; a few-percent CoV is stable by the paper's
      own Section 6.1 standard (marked edges there show CoV < 10%).
    """

    ilower: float = 10_000.0
    procedures_only: bool = False
    slack_saturation: float = 10.0
    cov_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.ilower <= 0:
            raise ValueError("ilower must be positive")
        if self.slack_saturation <= 1.0:
            raise ValueError("slack_saturation must exceed 1")
        if self.cov_floor < 0:
            raise ValueError("cov_floor must be non-negative")


@dataclass
class SelectionResult:
    """Markers plus the diagnostics the paper discusses."""

    markers: MarkerSet
    candidates: List[Edge] = field(default_factory=list)
    cov_base: float = 0.0
    cov_spread: float = 0.0


def _eligible(edge: Edge, params: SelectionParams) -> bool:
    """Structural eligibility of an edge as a marker site."""
    if edge.src.kind is NodeKind.ROOT:
        return False  # program entry is not an instrumentable phase change
    if params.procedures_only and edge.dst.kind.is_loop:
        return False
    return True


def collect_candidates(
    graph: CallLoopGraph, params: SelectionParams
) -> Tuple[List[Node], List[Edge]]:
    """Pass 1: depth-ordered nodes and the edges meeting ``ilower``.

    Candidates come out in traversal order: nodes in processing order,
    each node's in-edges in insertion order.
    """
    order = processing_order(graph)
    candidates: List[Edge] = []
    for node in order:
        for edge in graph.in_edges(node):
            if _eligible(edge, params) and edge.avg >= params.ilower:
                candidates.append(edge)
    return order, candidates


def cov_threshold_stats(candidates: List[Edge]) -> Tuple[float, float]:
    """The per-program CoV threshold base and spread (Pass 2 setup).

    Only finite CoVs contribute: zero-observation edges round-tripped
    through serialization can carry inf/NaN moments, and a single such
    CoV would poison the mean/std (threshold base inf, spread NaN) and
    silently deselect every marker.
    """
    covs = np.array([e.cov for e in candidates], dtype=np.float64)
    finite = covs[np.isfinite(covs)]
    if finite.size == 0:
        return 0.0, 0.0
    # population std with ndarray.mean's pairwise summation
    mean = float(finite.mean())
    dev = finite - mean
    return mean, math.sqrt(float((dev * dev).mean()))


def _cov_threshold(
    avg: float, ilower: float, avg_hi: float, base: float, spread: float
) -> float:
    """Threshold between base and base+spread, linear in the edge's A.

    Edges at ``ilower`` get the tight threshold (base); the largest
    candidate gets the loose one (base + spread).
    """
    if avg_hi <= ilower:
        return base
    scale = (avg - ilower) / (avg_hi - ilower)
    scale = min(1.0, max(0.0, scale))
    return base + spread * scale


def select_markers(
    graph: CallLoopGraph, params: Optional[SelectionParams] = None
) -> SelectionResult:
    """Run both passes of the no-limit selection algorithm.

    Pass 2 visits the candidates in pass 1's traversal order, so marker
    ids (and the phase ids derived from them) follow that order.
    """
    from repro.telemetry import get_telemetry

    tm = get_telemetry()
    params = params or SelectionParams()
    with tm.span("callloop.select.pass1", program=graph.program_name):
        _, candidates = collect_candidates(graph, params)
        if tm.enabled:
            tm.counter("callloop.select.pass1.kept", len(candidates))
            tm.counter(
                "callloop.select.pass1.rejected",
                graph.num_edges - len(candidates),
            )
    cov_base, cov_spread = cov_threshold_stats(candidates)
    avg_hi = params.ilower * params.slack_saturation

    selected: List[PhaseMarker] = []
    with tm.span("callloop.select.pass2", program=graph.program_name):
        for edge in candidates:
            threshold = max(
                _cov_threshold(edge.avg, params.ilower, avg_hi, cov_base, cov_spread),
                params.cov_floor,
            )
            cov = edge.cov
            if cov <= threshold:
                selected.append(
                    PhaseMarker(
                        marker_id=len(selected) + 1,
                        src=edge.src,
                        dst=edge.dst,
                        avg_interval=edge.avg,
                        cov=cov,
                        max_interval=edge.max,
                        site_sources=tuple(sorted(edge.site_sources)),
                    )
                )
        if tm.enabled:
            tm.counter("callloop.select.pass2.kept", len(selected))
            tm.counter(
                "callloop.select.pass2.rejected", len(candidates) - len(selected)
            )

    markers = MarkerSet(
        program_name=graph.program_name,
        variant=graph.variant,
        ilower=params.ilower,
        max_limit=None,
        markers=selected,
    )
    return SelectionResult(
        markers=markers,
        candidates=candidates,
        cov_base=cov_base,
        cov_spread=cov_spread,
    )
