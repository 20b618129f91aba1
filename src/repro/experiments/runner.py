"""Cached experiment pipeline.

Every figure needs some subset of: program build, reference/train traces,
call-loop graphs, marker sets at several configurations, interval
partitions with metrics.  The Runner memoizes each stage per key so the
benchmarks (which all run in one pytest process) share the work.

Beyond in-process memoization, a Runner can be given the parallel,
cached execution layer from :mod:`repro.runner`:

* ``Runner(cache=ProfileCache(...))`` consults a content-addressed
  on-disk cache before profiling a call-loop graph, and stores every
  freshly profiled graph back — a warm re-run of an experiment skips
  profiling entirely.
* ``Runner(jobs=N)`` plus :meth:`Runner.prefetch_graphs` fans
  independent (workload, input) profiles out over N worker processes.
  Profiles are deterministic and graph serialization is exact, so the
  parallel path produces byte-identical experiment output.

Every graph acquisition (inline profile, worker profile, cache hit) is
listed in :attr:`Runner.acquisitions`; :meth:`Runner.run_summary`
renders the timings and hit/miss counters as a report table.

Marker-set variants follow the paper's Figures 7-10 legend:

=================  ====================================================
variant            meaning
=================  ====================================================
``nolimit-self``   base algorithm, profiled on the reference input
``nolimit-cross``  base algorithm, profiled on the train input
``procs-self``     procedures only, reference profile
``procs-cross``    procedures only, train profile
``limit``          max-limit algorithm (ilower..max_limit), reference
=================  ====================================================
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.callloop import CallLoopProfiler, MarkerSet, select_with_options
from repro.callloop.graph import CallLoopGraph
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace
from repro.experiments.config import SCALED, ExperimentConfig
from repro.intervals.base import IntervalSet
from repro.intervals.fixed import split_fixed
from repro.intervals.metrics import (
    CacheProfile,
    MetricsConfig,
    TraceMetrics,
    attach_metrics,
    compute_trace_metrics,
)
from repro.intervals.vli import split_at_markers
from repro.callloop.serialization import graph_from_dict
from repro.ir.linker import CompilationVariant, link
from repro.ir.program import Program, ProgramInput
from repro.runner.cache import ProfileCache
from repro.runner.jobs import ProfileJob
from repro.runner.parallel import run_profile_jobs
from repro.runner.traces import TraceStore, acquire_trace
from repro.telemetry import get_telemetry
from repro.util.tables import Table
from repro.workloads import get_workload

MARKER_VARIANTS = ("nolimit-self", "nolimit-cross", "procs-self", "procs-cross", "limit")

#: graph acquisition sources, as the run summary shows them: profiled in
#: this process, profiled in a pool worker, loaded from the profile cache
PROFILED = "profiled"
WORKER = "worker"
CACHE_HIT = "cache"


class Runner:
    """Memoizing pipeline over the workload suite.

    *cache* (optional) is an on-disk :class:`~repro.runner.cache.ProfileCache`
    consulted before any call-loop profiling; *jobs* is the default
    worker count for :meth:`prefetch_graphs`.
    """

    def __init__(
        self,
        config: ExperimentConfig = SCALED,
        cache: Optional[ProfileCache] = None,
        jobs: int = 1,
        trace_store: Optional[TraceStore] = None,
    ):
        self.config = config
        self.cache = cache
        self.jobs = jobs
        # Recorded traces spill here (memmap-backed columns) instead of
        # living in the process heap; pool workers spill theirs here too,
        # and this process maps the same entries by key.  Follows the
        # profile cache's location unless given explicitly.
        if trace_store is None and cache is not None:
            trace_store = TraceStore(cache.root.parent / "traces")
        self.trace_store = trace_store
        #: every graph acquisition, in order: (workload, input, source,
        #: seconds), source one of PROFILED, WORKER or CACHE_HIT
        self.acquisitions: List[Tuple[str, str, str, float]] = []
        self.metrics_config = MetricsConfig()
        self._programs: Dict[Tuple[str, str], Program] = {}
        self._traces: Dict[Tuple, Trace] = {}
        self._graphs: Dict[Tuple, CallLoopGraph] = {}
        self._markers: Dict[Tuple, MarkerSet] = {}
        self._trace_metrics: Dict[Tuple, TraceMetrics] = {}
        self._intervals: Dict[Tuple, Tuple[IntervalSet, CacheProfile]] = {}
        #: scratch memo for experiment modules (keyed by their own tuples)
        self.memo: Dict = {}

    # -- programs and traces --------------------------------------------------

    def program(self, spec: str, variant: Optional[CompilationVariant] = None) -> Program:
        vname = variant.name if variant else "base"
        key = (spec.split("/")[0], vname)
        if key not in self._programs:
            if variant is None:
                self._programs[key] = get_workload(spec).build()
            else:
                self._programs[key] = link(self.program(spec), variant)
        return self._programs[key]

    def input_for(self, spec: str, which: str) -> ProgramInput:
        return get_workload(spec).input_for(which)

    def trace(
        self,
        spec: str,
        which: str = "ref",
        variant: Optional[CompilationVariant] = None,
        profiler: Optional[CallLoopProfiler] = None,
    ) -> Trace:
        """The recorded trace of *spec* on input *which*, memoized and
        via the trace store when there is one
        (:func:`~repro.runner.traces.acquire_trace`); profiled into
        *profiler* when one is given."""
        vname = variant.name if variant else "base"
        key = (spec.split("/")[0], which, vname)
        trace = self._traces.get(key)
        if trace is None:
            with get_telemetry().span(
                "runner.trace", spec=key[0], which=which, variant=vname
            ):
                trace = self._traces[key] = acquire_trace(
                    spec,
                    which,
                    self.program(spec, variant),
                    self.input_for(spec, which),
                    self.trace_store,
                    variant=vname,
                    profiler=profiler,
                )
        elif profiler is not None:
            profiler.profile_trace(trace)
        return trace

    # -- call-loop graphs and markers ----------------------------------------------

    def _graph_cache_key(self, spec: str, which: str) -> str:
        return self.cache.graph_key(spec, which, self.input_for(spec, which))

    def _acquired(
        self, spec: str, which: str, source: str, graph: CallLoopGraph, seconds: float
    ) -> None:
        """Memoize *graph*, list its acquisition for :meth:`run_summary`
        and record it as a ``runner.acquire`` span and counters in the
        active telemetry session."""
        name = spec.split("/")[0]
        self._graphs[(name, which)] = graph
        self.acquisitions.append((name, which, source, seconds))
        tm = get_telemetry()
        tm.record_span("runner.acquire", seconds, spec=name, which=which, source=source)
        tm.counter(f"runner.acquire.{source}")
        tm.counter("runner.acquire.seconds", seconds)

    def _load_graph(self, spec: str, which: str) -> bool:
        """Acquire *spec*'s graph on input *which* from the profile
        cache; False on a miss."""
        if self.cache is None:
            return False
        graph = self.cache.load_graph(self._graph_cache_key(spec, which))
        if graph is None:
            return False
        self._acquired(spec, which, CACHE_HIT, graph, 0.0)
        return True

    def _profile_graph(self, spec: str, which: str) -> None:
        """Acquire *spec*'s graph on input *which* by profiling it in
        this process, and store it in the profile cache."""
        start = time.perf_counter()
        profiler = CallLoopProfiler(self.program(spec))
        self.trace(spec, which, profiler=profiler)
        self._acquired(
            spec, which, PROFILED, profiler.graph, time.perf_counter() - start
        )
        if self.cache is not None:
            self.cache.store_graph(self._graph_cache_key(spec, which), profiler.graph)

    def graph(self, spec: str, which: str = "ref") -> CallLoopGraph:
        key = (spec.split("/")[0], which)
        if key not in self._graphs:
            with get_telemetry().span(
                "runner.graph", spec=key[0], which=which
            ) as span:
                if self._load_graph(spec, which):
                    span.set("source", CACHE_HIT)
                else:
                    span.set("source", PROFILED)
                    self._profile_graph(spec, which)
        return self._graphs[key]

    def prefetch_graphs(
        self, pairs: Iterable[Tuple[str, str]], jobs: Optional[int] = None
    ) -> int:
        """Acquire many (spec, which) call-loop graphs up front, fanning
        cache misses out over worker processes.

        Warm-cache and already-memoized graphs are served immediately;
        only the remainder is profiled: over ``jobs`` worker processes
        when there are several and a trace store to spill their
        recordings into, else in this process, as :meth:`graph`
        profiles (a storeless worker's recording would be lost, and
        this process would record the trace again for its split).
        Returns the number of graphs that were actually profiled.
        Worker-profiled graphs round-trip through the exact JSON
        serialization, and their traces stay in the trace store, so
        downstream results are identical to the serial path's.
        """
        jobs = self.jobs if jobs is None else jobs
        tm = get_telemetry()
        with tm.span("runner.prefetch", jobs=jobs) as span:
            misses: Dict[Tuple[str, str], Tuple[str, str]] = {}
            for spec, which in pairs:
                key = (spec.split("/")[0], which)
                if key in misses or key in self._graphs:
                    continue
                if not self._load_graph(spec, which):
                    misses[key] = (spec, which)
            span.set("profiled", len(misses))
            if jobs <= 1 or len(misses) <= 1 or self.trace_store is None:
                for spec, which in misses.values():
                    self._profile_graph(spec, which)
                return len(misses)
            trace_root = str(self.trace_store.root)
            results = run_profile_jobs(
                [
                    ProfileJob(spec, which, trace_root=trace_root)
                    for spec, which in misses.values()
                ],
                max_workers=jobs,
            )
            for (spec, which), result in zip(misses.values(), results):
                graph = graph_from_dict(result.graph_data)
                self._acquired(spec, which, WORKER, graph, result.seconds)
                # adopt the worker's spans/counters into this session
                tm.merge_snapshot(result.telemetry)
                if self.cache is not None:
                    self.cache.store_graph(self._graph_cache_key(spec, which), graph)
            return len(misses)

    def run_summary(self) -> Table:
        """The run's graph acquisitions as a table: one row each, then a
        totals row with the cache hits, the misses (graphs profiled here
        or in a worker), the profile cache's stores and discarded
        corrupt entries, and the seconds spent."""
        table = Table(
            "Run summary: call-loop profile acquisitions",
            ["workload", "input", "source", "seconds"],
            digits=3,
        )
        for row in self.acquisitions:
            table.add_row(row)
        hits = sum(source == CACHE_HIT for _, _, source, _ in self.acquisitions)
        totals = f"{hits} cache hits / {len(self.acquisitions) - hits} misses"
        cache = self.cache
        if cache is not None and (cache.stores or cache.invalid):
            totals += f"; {cache.stores} stored"
            if cache.invalid:
                totals += f", {cache.invalid} corrupt discarded"
        spent = sum((seconds for *_, seconds in self.acquisitions), 0.0)
        table.add_row([f"total ({len(self.acquisitions)})", "", totals, spent])
        return table

    def markers(self, spec: str, variant: str) -> MarkerSet:
        if variant not in MARKER_VARIANTS:
            raise ValueError(f"unknown marker variant {variant!r}")
        key = (spec.split("/")[0], variant)
        if key not in self._markers:
            with get_telemetry().span(
                "runner.markers", spec=key[0], variant=variant
            ):
                cfg = self.config
                which = "train" if variant.endswith("cross") else "ref"
                self._markers[key] = select_with_options(
                    self.graph(spec, which),
                    cfg.ilower,
                    cfg.max_limit if variant == "limit" else 0,
                    procedures_only=variant.startswith("procs"),
                ).markers
        return self._markers[key]

    # -- intervals with metrics --------------------------------------------------

    def trace_metrics(self, spec: str, which: str = "ref") -> TraceMetrics:
        key = (spec.split("/")[0], which)
        if key not in self._trace_metrics:
            with get_telemetry().span(
                "runner.trace_metrics", spec=key[0], which=which
            ):
                self._trace_metrics[key] = compute_trace_metrics(
                    self.trace(spec, which),
                    self.program(spec),
                    self.input_for(spec, which),
                    self.metrics_config,
                )
        return self._trace_metrics[key]

    def fixed_intervals(
        self, spec: str, length: int, which: str = "ref"
    ) -> Tuple[IntervalSet, CacheProfile]:
        key = (spec.split("/")[0], which, "fixed", length)
        if key not in self._intervals:
            with get_telemetry().span(
                "runner.fixed_intervals", spec=key[0], which=which, length=length
            ):
                return self._intervals.setdefault(
                    key, self._compute_fixed(spec, length, which)
                )
        return self._intervals[key]

    def _compute_fixed(
        self, spec: str, length: int, which: str
    ) -> Tuple[IntervalSet, CacheProfile]:
        program = self.program(spec)
        trace = self.trace(spec, which)
        intervals = split_fixed(trace, length, program.name)
        profile = attach_metrics(
            intervals,
            trace,
            program,
            self.input_for(spec, which),
            trace_metrics=self.trace_metrics(spec, which),
        )
        return intervals, profile

    def vli_intervals(
        self, spec: str, marker_variant: str, which: str = "ref"
    ) -> Tuple[IntervalSet, CacheProfile]:
        key = (spec.split("/")[0], which, "vli", marker_variant)
        if key not in self._intervals:
            with get_telemetry().span(
                "runner.vli_intervals",
                spec=key[0],
                which=which,
                variant=marker_variant,
            ):
                return self._intervals.setdefault(
                    key, self._compute_vli(spec, marker_variant, which)
                )
        return self._intervals[key]

    def _compute_vli(
        self, spec: str, marker_variant: str, which: str
    ) -> Tuple[IntervalSet, CacheProfile]:
        program = self.program(spec)
        trace = self.trace(spec, which)
        markers = self.markers(spec, marker_variant)
        intervals = split_at_markers(program, trace, markers)
        profile = attach_metrics(
            intervals,
            trace,
            program,
            self.input_for(spec, which),
            trace_metrics=self.trace_metrics(spec, which),
        )
        return intervals, profile

    def memory(self, spec: str, which: str = "ref") -> MemorySystem:
        return MemorySystem(self.program(spec), self.input_for(spec, which))


_DEFAULT: Optional[Runner] = None


def default_runner() -> Runner:
    """The process-wide shared Runner (used by all benchmarks)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Runner()
    return _DEFAULT
