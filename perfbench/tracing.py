"""Spans around the public calls of each layer, recorded from outside.

A traced run never edits the program.  :func:`instrument` swaps a
wrapper onto every public function and method :func:`_targets` lists
(in every ``repro`` module that holds a reference to it, so callers that
imported the name directly are covered too), records one span per call
into a :class:`Tracer`, and restores the originals on exit.

The tracer's session is a :class:`repro.telemetry.Telemetry` that is
*not* installed as the process-wide session, so the program's own
telemetry stays off and only the benchmark's spans are recorded.  In a
forked pool worker the wrappers record into the worker's local session
instead (the one ``run_profile_job`` installs); those spans ship back
with the job result and are merged onto worker lanes.

Self time of a span is its duration minus the durations of its children
on the same lane.  Per-layer self times of the main lane plus the
remainder no span covers add up to the traced wall clock exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import Telemetry, get_telemetry, write_jsonl

#: layers a span name can start with ("<layer>.<what>")
LAYERS = (
    "bench",
    "experiments",
    "engine",
    "callloop",
    "intervals",
    "cache",
    "perf",
    "simpoint",
    "runner",
    "serving",
    "loadgen",
    "streaming",
)


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self) -> None:
        self.tm = Telemetry()
        self.pid = os.getpid()
        self.counts: Counter = Counter()
        self.wall_s = 0.0
        self.pool_busy_s = 0.0
        self.pool_capacity_s = 0.0

    def span(self, name: str, **attrs: Any):
        return self.tm.span(name, **attrs)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    @contextmanager
    def window(self) -> Iterator[None]:
        """The traced wall clock: every main-lane span lies inside."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """span id -> self seconds (children on the same lane removed)."""
        spans = self.tm.spans
        by_id = {s.span_id: s for s in spans}
        child_us: Dict[int, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent_id)
            if parent is not None and parent.tid == s.tid:
                child_us[parent.span_id] += s.duration_us
        return {
            s.span_id: max(0.0, s.duration_us - child_us[s.span_id]) / 1e6
            for s in spans
        }

    def name_self_s(self) -> Dict[str, float]:
        """Span name -> total self seconds over every lane."""
        own = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for s in self.tm.spans:
            out[s.name] += own[s.span_id]
        return out

    def program_self_s(self) -> Dict[Tuple[str, str], float]:
        """(program, span name) -> self seconds, for spans under a
        ``bench.program`` span carrying a ``program`` attribute."""
        own = self.self_times()
        by_id = {s.span_id: s for s in self.tm.spans}
        out: Dict[Tuple[str, str], float] = defaultdict(float)
        for s in self.tm.spans:
            node = s
            while node is not None and node.name != "bench.program":
                node = by_id.get(node.parent_id)
            if node is not None:
                out[(node.attrs.get("program"), s.name)] += own[s.span_id]
        return out

    def layer_report(self) -> Dict[str, float]:
        """Main-lane self seconds per layer, plus remainder and wall."""
        own = self.self_times()
        report = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
        covered = 0.0
        for s in self.tm.spans:
            if s.tid != 0 or s.pid != self.pid:
                continue
            layer = s.name.split(".", 1)[0]
            key = f"layer.{layer}.self_s"
            if key not in report:
                raise ValueError(f"span {s.name!r} names no known layer")
            report[key] += own[s.span_id]
            covered += own[s.span_id]
        report["layer.remainder_s"] = self.wall_s - covered
        report["layer.wall_s"] = self.wall_s
        return report

    def accounting_ok(self) -> bool:
        """Main-lane spans lie inside the traced window and nest: the
        self times then sum to the root spans' durations, and those fit
        in the wall clock."""
        own = self.self_times()
        main = {
            s.span_id: s for s in self.tm.spans if s.tid == 0 and s.pid == self.pid
        }
        roots = [s for s in main.values() if s.parent_id not in main]
        covered = sum(own[i] for i in main)
        root_s = sum(s.duration_us for s in roots) / 1e6
        return abs(covered - root_s) <= 1e-6 * max(1, len(main)) and root_s <= self.wall_s

    def write(self, path) -> None:
        """The spans as the repo's Chrome-trace JSONL (``repro stats``)."""
        write_jsonl(self.tm, path)


# -- instrumentation -----------------------------------------------------------


def _bound(fn: Callable, args, kwargs) -> Dict[str, Any]:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _wrap(
    fn: Callable,
    name: str,
    tracer: Tracer,
    after: Optional[Callable] = None,
) -> Callable:
    """*fn* timed as a span named *name*; *after(tracer, fn, args,
    kwargs, result)* runs once the span has closed (counts, probes)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != tracer.pid:
            # forked pool worker: its own session ships back with the job
            with get_telemetry().span(name):
                return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def _count_rows(key: str, arg: str):
    def after(tracer, fn, args, kwargs, result):
        value = result if arg == "result" else _bound(fn, args, kwargs)[arg]
        tracer.count(key, len(value))

    return after


def _after_select(tracer, fn, args, kwargs, result):
    tracer.count("callloop.markers", len(result.markers.markers))


def _after_split(tracer, fn, args, kwargs, result):
    """Count intervals; probe whether the pre-scan would have answered."""
    from repro.intervals.vli import split_at_markers_prescan

    tracer.count("intervals.splits")
    tracer.count("intervals.intervals", len(result))
    bound = _bound(fn, args, kwargs)
    with tracer.span("bench.probe"):
        got = split_at_markers_prescan(
            bound["program"], bound["trace"], bound["marker_set"]
        )
    tracer.count("intervals.prescans", got is not None)


def _after_stackdist(tracer, fn, args, kwargs, result):
    rows, _accesses, _hits = result
    tracer.count("cache.stackdist_events", len(rows))


def _after_kmeans(tracer, fn, args, kwargs, result):
    tracer.count("simpoint.kmeans_runs")
    tracer.count("simpoint.kmeans_iters", result.iterations)


def _after_graph_load(tracer, fn, args, kwargs, result):
    tracer.count("runner.graph_loads")
    tracer.count("runner.graph_hits", result is not None)


def _after_finish(tracer, fn, args, kwargs, result):
    monitor = _bound(fn, args, kwargs)["self"]
    tracer.count("streaming.reselections", len(monitor.reselections))
    tracer.count("streaming.slots_evicted", monitor.window.evicted_slots)


def _pool_wrapper(fn: Callable, tracer: Tracer, parallel) -> Callable:
    """``run_profile_jobs``: a span, worker spans merged onto worker
    lanes, and the pool's busy share (job seconds over wall x workers)."""

    @functools.wraps(fn)
    def wrapper(jobs, max_workers=None):
        jobs = list(jobs)
        workers = max(1, min(max_workers or parallel.default_jobs(), len(jobs)))
        start = time.perf_counter()
        with tracer.span("runner.pool", jobs=len(jobs), workers=workers):
            results = fn(jobs, max_workers=max_workers)
            for result in results:
                tracer.tm.merge_snapshot(result.telemetry)
        wall = time.perf_counter() - start
        tracer.pool_busy_s += sum(r.seconds for r in results)
        tracer.pool_capacity_s += wall * workers
        return results

    return wrapper


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, after-hook) for every wrapped call.

    Owners are modules (functions) or classes (methods); a module-level
    function is swapped in every ``repro`` module that references it.
    """
    from repro.callloop.profiler import CallLoopProfiler
    from repro.experiments.runner import Runner
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceHandle, TraceStore
    from repro.streaming.monitor import StreamingPhaseMonitor

    # by module path: some package attributes shadow their submodule
    # (``repro.simpoint.kmeans`` is also the name of a function)
    mod = importlib.import_module
    engine_tracing = mod("repro.engine.tracing")
    selection = mod("repro.callloop.selection")
    limits = mod("repro.callloop.limits")
    vli = mod("repro.intervals.vli")
    bbv = mod("repro.intervals.bbv")
    fixed = mod("repro.intervals.fixed")
    metrics = mod("repro.intervals.metrics")
    stackdist = mod("repro.cache.stackdist")
    branch = mod("repro.perf.branch")
    simpoint = mod("repro.simpoint.simpoint")
    kmeans = mod("repro.simpoint.kmeans")
    fig1112 = mod("repro.experiments.fig1112")
    queries = mod("repro.serving.queries")

    return [
        (engine_tracing, "record_trace", "engine.record",
         _count_rows("engine.rows", "result")),
        (CallLoopProfiler, "profile_trace", "callloop.profile",
         _count_rows("callloop.rows", "trace")),
        (selection, "select_markers", "callloop.select", _after_select),
        (limits, "select_markers_with_limit", "callloop.select", _after_select),
        (vli, "split_at_markers", "intervals.split", _after_split),
        (bbv, "collect_bbvs", "intervals.bbv", None),
        (fixed, "split_fixed", "intervals.fixed", None),
        (metrics, "compute_trace_metrics", "intervals.metrics", None),
        (metrics, "attach_metrics", "intervals.metrics", None),
        (stackdist, "profile_events", "cache.stackdist", _after_stackdist),
        (branch, "mispredicts_per_event", "perf.branch", None),
        (simpoint, "run_simpoint_on_intervals", "simpoint.cluster", None),
        (kmeans, "kmeans", None, _after_kmeans),
        (fig1112, "cells_for", "experiments.cells", None),
        (Runner, "prefetch_graphs", "runner.prefetch", None),
        (ProfileCache, "load_graph", "runner.graph_load", _after_graph_load),
        (ProfileCache, "store_graph", "runner.graph_store", None),
        (TraceStore, "load", "runner.trace_load", None),
        (TraceHandle, "load", "runner.trace_load", None),
        (TraceStore, "store", "runner.trace_store", None),
        (queries, "compute_result", "serving.compute", None),
        (StreamingPhaseMonitor, "feed_rows", "streaming.feed", None),
        (StreamingPhaseMonitor, "finish", "streaming.finish", _after_finish),
        (StreamingPhaseMonitor, "select_now", "streaming.reselect", None),
    ]


def _count_only(fn: Callable, tracer: Tracer, after: Callable) -> Callable:
    """A call too small and frequent for a span: counted, not timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if os.getpid() == tracer.pid:
            after(tracer, fn, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration; originals restored on exit."""
    parallel = importlib.import_module("repro.runner.parallel")
    saved: List[Tuple[Any, str, Any]] = []

    def swap(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def swap_everywhere(orig, new):
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    swap(module, attr, new)

    try:
        for owner, attr, span, after in _targets():
            orig = owner.__dict__[attr]
            if span is None:
                new = _count_only(orig, tracer, after)
            else:
                new = _wrap(orig, span, tracer, after)
            if inspect.isclass(owner):
                swap(owner, attr, new)
            else:
                swap_everywhere(orig, new)
        swap_everywhere(
            parallel.run_profile_jobs,
            _pool_wrapper(parallel.run_profile_jobs, tracer, parallel),
        )
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
