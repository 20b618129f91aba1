"""Building the annotated call-loop graph from execution traces.

This is the reproduction of the paper's ATOM-based profiling step
(Section 4.2): every edge traversal's hierarchical instruction count is
folded into that edge's running statistics.  The traversals come from
the span builder (:mod:`repro.callloop.spans`), which pairs each edge's
opens with its closes in array passes; a trace it declines takes one
bulk walk of the shadow call/loop stack
(:class:`~repro.callloop.walker.ContextWalker`) into
:class:`_MomentBuilder` instead.  Both produce the same edge map.

The profile accumulates **exact integer moments** per edge
(:class:`~repro.callloop.stats.MomentStats`) and derives the float
:class:`~repro.callloop.stats.RunningStats` once at the end, so the
per-edge statistics do not depend on how the walker batches loop
back-edge runs.  :func:`repro.verify.oracles.oracle_call_loop_graph` is
the independent reference the ``graph`` verify check diffs it against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.callloop.graph import CallLoopGraph, NodeTable
from repro.callloop.spans import SpanBuilder
from repro.callloop.stats import MomentStats
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.engine.machine import Machine
from repro.engine.tracing import Trace, record_trace
from repro.ir.program import Program, ProgramInput, SourceLoc
from repro.telemetry import get_telemetry


class _MomentBuilder(ContextHandler):
    """Exact integer edge moments — the profiling handler.

    Keyed by ``(src, dst)`` node-id pair in first-close order (dict
    insertion order), which is what fixes the graph's edge order when
    the moments fold in.  Implements the batched back-edge hook, so
    long loop iteration runs arrive as one numpy ``diff`` + moment
    update instead of thousands of per-iteration callbacks.  Site
    sources dedupe through an identity check against the last source
    seen per edge before falling back to the set insert (sources are
    interned per call site / loop, so the common case never hashes).
    """

    def __init__(self) -> None:
        # (src, dst) -> [MomentStats, source_set, last_source]
        self.edges: Dict[Tuple[int, int], list] = {}

    def on_edge_close(
        self,
        src: int,
        dst: int,
        t_open: int,
        t_close: int,
        source: Optional[SourceLoc],
    ) -> None:
        entry = self.edges.get((src, dst))
        if entry is None:
            entry = self.edges[(src, dst)] = [MomentStats(), set(), None]
        entry[0].add(t_close - t_open)
        if source is not None and source is not entry[2]:
            entry[1].add(source)
            entry[2] = source

    def on_edge_iterations(
        self,
        head: int,
        body: int,
        t_prev: int,
        ts: np.ndarray,
        source: Optional[SourceLoc],
    ) -> None:
        entry = self.edges.get((head, body))
        if entry is None:
            entry = self.edges[(head, body)] = [MomentStats(), set(), None]
        entry[0].add_run(np.diff(ts, prepend=t_prev))
        if source is not None and source is not entry[2]:
            entry[1].add(source)
            entry[2] = source


class CallLoopProfiler:
    """Profiles runs of one program into a single call-loop graph.

    Multiple traces (e.g. several inputs of a train set) can be folded into
    the same graph with repeated :meth:`profile_trace` calls.
    """

    def __init__(self, program: Program, table: Optional[NodeTable] = None):
        self.program = program
        self.table = table or NodeTable(program)
        self.graph = CallLoopGraph(program.name, program.variant)
        self._spans: Optional[SpanBuilder] = None

    def profile_trace(self, trace: Trace) -> CallLoopGraph:
        """Fold one recorded trace into the graph."""
        tm = get_telemetry()
        if not tm.enabled:
            return self._profile_trace(trace)
        with tm.span("callloop.profile_trace", program=self.program.name):
            graph = self._profile_trace(trace)
            tm.gauge("callloop.graph.nodes", self.graph.num_nodes)
            tm.gauge("callloop.graph.edges", self.graph.num_edges)
        return graph

    def _profile_trace(self, trace: Trace) -> CallLoopGraph:
        if self._spans is None:
            self._spans = SpanBuilder(self.program, self.table)
        # the split reuses this pass: the span index, or the decline; a
        # trace that has its index (say, loaded from a store) keeps it
        unindexed = trace.opens is None
        got = self._spans.build(trace, index=unindexed)
        tm = get_telemetry()
        if unindexed:
            trace.opens = got if isinstance(got, str) else got[2]
        if isinstance(got, str):
            if tm.enabled:
                tm.counter(f"callloop.profile.fallback.{got}")
            return self.walk_trace(trace)
        edges, total, _ = got
        if tm.enabled:
            tm.counter("callloop.profile.spans")
            tm.counter("callloop.profile.runs", self._spans.runs)
            tm.counter("callloop.profile.general_rows", self._spans.general_rows)
        return self._fold(edges, total)

    def walk_trace(self, trace: Trace) -> CallLoopGraph:
        """Fold one trace in through a bulk walk of the shadow stack.

        :meth:`profile_trace`'s fallback for a trace the span builder
        declines; the ``graph`` verify check calls it directly, since
        fuzz programs never make the builder decline.
        """
        handler = _MomentBuilder()
        total = ContextWalker(self.program, self.table).walk(trace, handler)
        return self._fold(handler.edges, total)

    def _fold(self, edges: Dict[Tuple[int, int], list], total: int) -> CallLoopGraph:
        """Fold one trace's edge map into the graph, in first-close order.

        The derived :class:`RunningStats` adopt exactly when the edge is
        fresh and fold via the parallel merge formula when several
        traces accumulate into one graph.
        """
        nodes = self.table.nodes
        for (src, dst), entry in edges.items():
            edge = self.graph.edge(nodes[src], nodes[dst])
            edge.stats = edge.stats.merge(entry[0].to_running_stats())
            edge.site_sources |= entry[1]
        self.graph.total_instructions += total
        tm = get_telemetry()
        if tm.enabled:
            tm.counter("callloop.profile.instructions", total)
        return self.graph

    def profile_input(
        self, program_input: ProgramInput, max_instructions: Optional[int] = None
    ) -> CallLoopGraph:
        """Run the program on *program_input* and fold the trace in."""
        trace = record_trace(
            Machine(self.program, program_input, max_instructions=max_instructions)
        )
        return self.profile_trace(trace)


def build_call_loop_graph(
    program: Program,
    inputs: Iterable[ProgramInput],
    max_instructions: Optional[int] = None,
) -> CallLoopGraph:
    """Profile *program* over all *inputs* and return the merged graph."""
    profiler = CallLoopProfiler(program)
    ran_any = False
    for program_input in inputs:
        profiler.profile_input(program_input, max_instructions=max_instructions)
        ran_any = True
    if not ran_any:
        raise ValueError("at least one input is required")
    return profiler.graph
