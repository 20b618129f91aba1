"""The paper's primary contribution: hierarchical call-loop graph analysis.

Pipeline (paper Sections 4 and 5):

1. :func:`~repro.callloop.loops.discover_loops` finds loops statically as
   non-interprocedural backwards branches (Section 4.2).
2. :class:`~repro.callloop.profiler.CallLoopProfiler` walks an execution
   trace with a shadow call/loop stack and builds the
   :class:`~repro.callloop.graph.CallLoopGraph`, annotating every edge with
   traversal count, average / standard deviation / max of the hierarchical
   instruction count (Section 4).
3. :func:`~repro.callloop.selection.select_markers` runs the two-pass
   selection algorithm over the graph (Section 5.1);
   :func:`~repro.callloop.limits.select_markers_with_limit` adds the
   max-interval-size heuristics used for SimPoint (Section 5.2).
4. :mod:`~repro.callloop.crossbinary` maps a marker set across
   recompilations of the same source via source locations (Section 6.2.1).
"""

from repro.callloop.graph import CallLoopGraph, Edge, Node, NodeKind
from repro.callloop.loops import StaticLoop, discover_loops
from repro.callloop.profiler import CallLoopProfiler, build_call_loop_graph
from repro.callloop.markers import MarkerSet, PhaseMarker
from repro.callloop.selection import SelectionParams, select_markers
from repro.callloop.limits import (
    LimitParams,
    select_markers_with_limit,
    select_with_options,
)
from repro.callloop.stats import RunningStats
from repro.callloop.crossbinary import map_markers, marker_trace
from repro.callloop.serialization import (
    load_graph,
    load_markers,
    save_graph,
    save_markers,
)
from repro.callloop.dot import to_dot

__all__ = [
    "CallLoopGraph",
    "Edge",
    "Node",
    "NodeKind",
    "StaticLoop",
    "discover_loops",
    "CallLoopProfiler",
    "build_call_loop_graph",
    "MarkerSet",
    "PhaseMarker",
    "SelectionParams",
    "select_markers",
    "LimitParams",
    "select_markers_with_limit",
    "select_with_options",
    "RunningStats",
    "map_markers",
    "marker_trace",
    "load_graph",
    "load_markers",
    "save_graph",
    "save_markers",
    "to_dot",
]
