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
recorded in :attr:`Runner.log`; :meth:`Runner.run_summary` renders the
timings and hit/miss counters as a report table.

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
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.callloop import (
    CallLoopProfiler,
    LimitParams,
    MarkerSet,
    SelectionParams,
    select_markers,
    select_markers_with_limit,
)
from repro.callloop.graph import CallLoopGraph
from repro.engine.machine import Machine
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace, record_trace
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
from repro.runner.traces import TRACE_SPILL_ROWS, TraceStore
from repro.runner.summary import CACHE_HIT, PROFILED, WORKER, RunLog
from repro.telemetry import get_telemetry
from repro.util.tables import Table
from repro.workloads import get_workload

MARKER_VARIANTS = ("nolimit-self", "nolimit-cross", "procs-self", "procs-cross", "limit")


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
        # Large traces spill here (memmap-backed columns) instead of
        # living in the process heap; workers hand traces back through
        # the store as path handles rather than pickled arrays.  Follows
        # the profile cache's location unless given explicitly.
        if trace_store is None and cache is not None:
            trace_store = TraceStore(cache.root.parent / "traces")
        self.trace_store = trace_store
        self.log = RunLog()
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
            base = get_workload(spec).build()
            self._programs[(key[0], "base")] = base
            if variant is not None:
                self._programs[key] = link(base, variant)
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
        via the trace store when there is one; profiled into *profiler*
        when one is given.

        A spilled recording carries its span index.  A profile attaches
        the index, so a fresh recording is profiled before it spills and
        the store builds no second one.
        """
        vname = variant.name if variant else "base"
        key = (spec.split("/")[0], which, vname)
        profiled = False
        if key not in self._traces:
            with get_telemetry().span(
                "runner.trace", spec=key[0], which=which, variant=vname
            ):
                store = self.trace_store
                trace = None
                if store is not None:
                    store_key = store.trace_key(
                        spec, which, self.input_for(spec, which), variant=vname
                    )
                    trace = store.load(store_key)
                if trace is None:
                    program = self.program(spec, variant)
                    trace = record_trace(Machine(program, self.input_for(spec, which)))
                    if profiler is not None:
                        profiler.profile_trace(trace)
                        profiled = True
                    if store is not None and len(trace) >= TRACE_SPILL_ROWS:
                        # keep the memmap-backed copy: pages are shared
                        # with any worker that replays the same trace and
                        # the OS can drop them under memory pressure
                        trace = store.store(store_key, trace, program).load()
                self._traces[key] = trace
        trace = self._traces[key]
        if profiler is not None and not profiled:
            profiler.profile_trace(trace)
        return trace

    # -- call-loop graphs and markers ----------------------------------------------

    def _graph_cache_key(self, spec: str, which: str) -> str:
        return self.cache.graph_key(spec, which, self.input_for(spec, which))

    def graph(self, spec: str, which: str = "ref") -> CallLoopGraph:
        key = (spec.split("/")[0], which)
        if key not in self._graphs:
            with get_telemetry().span(
                "runner.graph", spec=key[0], which=which
            ) as span:
                cached = None
                if self.cache is not None:
                    cached = self.cache.load_graph(self._graph_cache_key(spec, which))
                if cached is not None:
                    span.set("source", CACHE_HIT)
                    self.log.record(key[0], which, CACHE_HIT, 0.0)
                    self._graphs[key] = cached
                else:
                    span.set("source", PROFILED)
                    start = time.perf_counter()
                    program = self.program(spec)
                    profiler = CallLoopProfiler(program)
                    self.trace(spec, which, profiler=profiler)
                    self.log.record(key[0], which, PROFILED, time.perf_counter() - start)
                    self._graphs[key] = profiler.graph
                    if self.cache is not None:
                        self.cache.store_graph(
                            self._graph_cache_key(spec, which), profiler.graph
                        )
        return self._graphs[key]

    def prefetch_graphs(
        self, pairs: Iterable[Tuple[str, str]], jobs: Optional[int] = None
    ) -> int:
        """Acquire many (spec, which) call-loop graphs up front, fanning
        cache misses out over worker processes.

        Warm-cache and already-memoized graphs are served immediately;
        only the remainder is profiled, in parallel when ``jobs > 1``.
        Returns the number of graphs that were actually profiled.
        Worker-profiled graphs round-trip through the exact JSON
        serialization, so downstream selection results are identical to
        the serial path's.
        """
        jobs = self.jobs if jobs is None else jobs
        tm = get_telemetry()
        with tm.span("runner.prefetch", jobs=jobs) as span:
            needed = []
            seen = set()
            for spec, which in pairs:
                key = (spec.split("/")[0], which)
                if key in seen or key in self._graphs:
                    continue
                seen.add(key)
                cached = None
                if self.cache is not None:
                    cached = self.cache.load_graph(self._graph_cache_key(spec, which))
                if cached is not None:
                    self.log.record(key[0], which, CACHE_HIT, 0.0)
                    self._graphs[key] = cached
                else:
                    needed.append((spec, which))
            span.set("profiled", len(needed))
            if not needed:
                return 0
            trace_root = (
                str(self.trace_store.root) if self.trace_store is not None else None
            )
            results = run_profile_jobs(
                [
                    ProfileJob(spec, which, trace_root=trace_root)
                    for spec, which in needed
                ],
                max_workers=jobs,
            )
            for (spec, which), result in zip(needed, results):
                graph = graph_from_dict(result.graph_data)
                key = (spec.split("/")[0], which)
                source = WORKER if jobs > 1 and len(needed) > 1 else PROFILED
                self.log.record(key[0], which, source, result.seconds)
                if tm.enabled:
                    # adopt the worker's spans/counters into this session
                    tm.merge_snapshot(result.telemetry)
                self._graphs[key] = graph
                if self.cache is not None:
                    self.cache.store_graph(self._graph_cache_key(spec, which), graph)
                if result.trace_handle is not None:
                    # adopt the spilled trace: later trace() calls memmap
                    # the worker's recording instead of re-running
                    tkey = (key[0], which, "base")
                    if tkey not in self._traces:
                        self._traces[tkey] = result.trace_handle.load()
            return len(needed)

    def run_summary(self) -> Table:
        """Timings and cache hit/miss counters of this run, as a table."""
        return self.log.summary_table(self.cache)

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
                graph = self.graph(spec, which)
                if variant == "limit":
                    result = select_markers_with_limit(
                        graph, LimitParams(ilower=cfg.ilower, max_limit=cfg.max_limit)
                    )
                else:
                    result = select_markers(
                        graph,
                        SelectionParams(
                            ilower=cfg.ilower,
                            procedures_only=variant.startswith("procs"),
                        ),
                    )
                self._markers[key] = result.markers
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
