"""Hierarchical spans and the process-wide telemetry session.

The instrumentation substrate for the whole pipeline: *spans* time a
named slice of work (graph construction, a selection pass, a profile
job) with parent/child nesting and per-span attributes; *counters,
gauges and histograms* (see :mod:`repro.telemetry.registry`) aggregate
how much work was done.  Exporters (:mod:`repro.telemetry.exporters`)
render a session as a human-readable table on stderr, a
Chrome-trace-compatible JSONL file, or a metrics snapshot.

Telemetry is **disabled by default** and the disabled path is a no-op
fast path: :func:`get_telemetry` returns a singleton whose ``span`` is a
reusable null context manager and whose counter/gauge methods return
immediately, so instrumented code stays within noise of uninstrumented
code.  Call sites that would pay to *compute* an attribute guard on
``tm.enabled``.

Instrumentation is bulk-granularity by design: spans wrap pipeline
stages, never per-event inner loops — event totals are recorded as one
counter bump after the loop.

A session is installed process-wide (the pipeline is single-threaded
per process; pool workers each install their own and ship a
:meth:`Telemetry.snapshot` back through the job result, which the
parent folds in with :meth:`Telemetry.merge_snapshot`).

Concurrency
-----------
The *span stack* (:meth:`Telemetry.span`) belongs to one thread of
control: nested ``with tm.span(...)`` blocks must open and close on the
same thread, and an asyncio coroutine must not hold one open across an
``await`` (interleaved tasks would corrupt the parent chain).  The
*flat* recording surface is safe to share: :meth:`Telemetry.emit_span`,
:meth:`Telemetry.instant`, :meth:`Telemetry.record_span`,
:meth:`Telemetry.lane`, and :meth:`Telemetry.merge_snapshot` allocate
ids and lanes under a lock, so concurrent asyncio tasks, helper threads,
and the background :class:`~repro.telemetry.sampler.MetricsSampler` can
record into one session without losing or cross-wiring records — the
contract the serving layer (``repro serve``) leans on.

Cross-worker stitching
----------------------
A session carries a **run id** (propagated to pool workers through
:class:`~repro.runner.jobs.ProfileJob`) and a set of named **lanes** —
Chrome-trace ``tid`` values with human labels ("main", "worker 1234",
"phase 3").  :meth:`Telemetry.lane` allocates/looks up a lane by
label; :meth:`Telemetry.emit_span` records an externally-timed span
onto a lane (the caller measures with ``time.monotonic_ns`` —
system-wide on one machine — and emits the span afterwards);
:meth:`Telemetry.merge_snapshot` remaps worker span/parent ids onto
fresh local ids and worker lanes onto fresh local lanes, so a
``--jobs N`` run exports **one** coherent multi-lane timeline instead
of disconnected per-worker fragments.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry.registry import MetricsRegistry


@dataclass
class SpanRecord:
    """One completed span.

    ``start_us``/``duration_us`` are microseconds relative to the
    session epoch — the units Chrome trace events use directly.
    ``path`` is the "/"-joined chain of ancestor names, the key the
    per-stage aggregation tables group by.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    path: str
    start_us: float
    duration_us: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    #: lane the span renders on (Chrome-trace ``tid``); 0 = the main
    #: lane, others are allocated by :meth:`Telemetry.lane`
    tid: int = 0

    @property
    def seconds(self) -> float:
        return self.duration_us / 1e6

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
        }


@dataclass
class InstantRecord:
    """A zero-duration event (Chrome-trace ``ph: "i"``): something that
    *happened* at an instant — a phase change, a marker firing."""

    name: str
    ts_us: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ts_us": self.ts_us,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
        }


class _OpenSpan:
    """A span currently on the stack; ``attrs`` may be updated while open."""

    __slots__ = ("span_id", "parent_id", "name", "path", "start_ns", "attrs")

    def __init__(self, span_id, parent_id, name, path, start_ns, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.path = path
        self.start_ns = start_ns
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute discovered while the span is running."""
        self.attrs[key] = value


#: lane id of the main span stack
MAIN_LANE = 0


class Telemetry:
    """One telemetry session: a span stack plus a metrics registry.

    ``run_id`` identifies the run the session belongs to; pool workers
    inherit the parent's so stitched traces carry one identity
    end-to-end (a fresh random id is generated when not given).
    """

    enabled = True

    def __init__(self, run_id: Optional[str] = None) -> None:
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.run_id = run_id or uuid.uuid4().hex[:12]
        #: lane id -> human label (Chrome-trace thread names)
        self.lane_labels: Dict[int, str] = {MAIN_LANE: "main"}
        self._lane_ids: Dict[str, int] = {"main": MAIN_LANE}
        self._next_lane = 1
        self._stack: List[_OpenSpan] = []
        self._epoch_ns = time.monotonic_ns()
        self._ids = 0
        self._pid = os.getpid()
        # Guards id/lane allocation and record appends for the flat
        # recording surface (emit_span/instant/record_span/lane/merge):
        # those are called from asyncio tasks and helper threads.  An
        # RLock because merge_snapshot allocates lanes while holding it.
        self._lock = threading.RLock()

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def epoch_ns(self) -> int:
        """The session epoch (``time.monotonic_ns`` at construction)."""
        return self._epoch_ns

    def lane(self, label: str) -> int:
        """The lane id for *label*, allocating one on first use.

        Labels are stable within a session: asking for ``"phase 0"``
        twice returns the same lane, so repeated pipeline stages share
        timeline rows instead of sprawling.
        """
        with self._lock:
            tid = self._lane_ids.get(label)
            if tid is None:
                tid = self._next_lane
                self._next_lane += 1
                self._lane_ids[label] = tid
                self.lane_labels[tid] = label
            return tid

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_OpenSpan]:
        """Time a block of work as a child of the innermost open span.

        Exception-safe: the span closes (and keeps its timing) however
        the block exits; on an exception the span is tagged with an
        ``error`` attribute naming the exception type, and the exception
        propagates.
        """
        open_span = self._open(name, attrs)
        try:
            yield open_span
        except BaseException as exc:
            open_span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._close(open_span)

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _open(self, name: str, attrs: Dict[str, Any]) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        span = _OpenSpan(
            self._next_id(),
            parent.span_id if parent is not None else None,
            name,
            f"{parent.path}/{name}" if parent is not None else name,
            time.monotonic_ns(),
            attrs,
        )
        self._stack.append(span)
        return span

    def _close(self, open_span: _OpenSpan) -> None:
        end_ns = time.monotonic_ns()
        # Defensive unwinding: a child leaked open closes with its parent.
        while self._stack and self._stack[-1] is not open_span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        with self._lock:
            self.spans.append(
                SpanRecord(
                    span_id=open_span.span_id,
                    parent_id=open_span.parent_id,
                    name=open_span.name,
                    path=open_span.path,
                    start_us=(open_span.start_ns - self._epoch_ns) / 1000.0,
                    duration_us=(end_ns - open_span.start_ns) / 1000.0,
                    attrs=open_span.attrs,
                    pid=self._pid,
                )
            )

    def record_span(
        self, name: str, seconds: float, **attrs: Any
    ) -> SpanRecord:
        """Log an already-measured span (e.g. a timing a pool worker or
        the run log took with its own clock) ending now."""
        parent = self._stack[-1] if self._stack else None
        end_ns = time.monotonic_ns()
        record = SpanRecord(
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            path=f"{parent.path}/{name}" if parent is not None else name,
            start_us=(end_ns - self._epoch_ns) / 1000.0 - seconds * 1e6,
            duration_us=seconds * 1e6,
            attrs=attrs,
            pid=self._pid,
        )
        with self._lock:
            self.spans.append(record)
        return record

    def emit_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        tid: int = MAIN_LANE,
        **attrs: Any,
    ) -> SpanRecord:
        """Record an externally-timed span onto a lane.

        *start_ns*/*end_ns* are ``time.monotonic_ns`` readings —
        CLOCK_MONOTONIC is system-wide, so timings taken on helper
        threads or forked workers land on the session timeline
        exactly where they ran.  The span parents under the innermost
        open span (the caller emits from the orchestrating stage), but
        renders on lane *tid*.

        Safe to call from concurrent asyncio tasks and helper threads:
        id allocation and the record append happen under the session
        lock (see *Concurrency* in the module docstring).
        """
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=self._next_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            path=f"{parent.path}/{name}" if parent is not None else name,
            start_us=(start_ns - self._epoch_ns) / 1000.0,
            duration_us=(end_ns - start_ns) / 1000.0,
            attrs=attrs,
            pid=self._pid,
            tid=tid,
        )
        with self._lock:
            self.spans.append(record)
        return record

    def instant(self, name: str, tid: int = MAIN_LANE, **attrs: Any) -> InstantRecord:
        """Record a zero-duration event at the current instant (safe from
        concurrent tasks/threads, like :meth:`emit_span`)."""
        record = InstantRecord(
            name=name,
            ts_us=(time.monotonic_ns() - self._epoch_ns) / 1000.0,
            attrs=attrs,
            pid=self._pid,
            tid=tid,
        )
        with self._lock:
            self.instants.append(record)
        return record

    @property
    def current_span(self) -> Optional[_OpenSpan]:
        return self._stack[-1] if self._stack else None

    # -- metrics --------------------------------------------------------------

    def counter(self, name: str, value: float = 1) -> None:
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- cross-process aggregation --------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole session as plain picklable/JSON-able data."""
        with self._lock:
            return {
                "epoch_ns": self._epoch_ns,
                "pid": self._pid,
                "run_id": self.run_id,
                "lanes": {
                    str(tid): label for tid, label in self.lane_labels.items()
                },
                "metrics": self.metrics.snapshot(),
                "spans": [s.as_dict() for s in self.spans],
                "instants": [i.as_dict() for i in self.instants],
            }

    def merge_snapshot(
        self, snap: Optional[Dict[str, Any]], lane: Optional[str] = None
    ) -> None:
        """Fold another session's :meth:`snapshot` into this one.

        Metrics aggregate; spans are adopted with fresh ids, re-parented
        under the currently open span, and rebased onto this session's
        epoch (CLOCK_MONOTONIC is shared across processes on one
        machine, so worker span timestamps stay on the same timeline).

        Lanes stitch: the snapshot's main lane maps to a local lane
        labelled *lane* (default ``"worker <pid>"``) and every other
        worker lane maps to ``"<base> · <worker label>"`` — so a
        worker's own lanes stay distinguishable in the merged
        timeline.  A snapshot recorded under a different run id still
        merges, but the mismatch is counted
        (``telemetry.merge.run_id_mismatch``).
        """
        if not snap:
            return
        # One lock for the whole merge: ids stay gapless within the
        # adopted block and concurrent emit_span calls (serving request
        # handlers merge worker snapshots from many tasks) cannot
        # interleave ids or lane allocations mid-merge.  The lock is
        # reentrant, so the self.lane() calls below are fine.
        with self._lock:
            self.metrics.merge(snap.get("metrics"))
            snap_run = snap.get("run_id")
            if snap_run and snap_run != self.run_id:
                self.metrics.count("telemetry.merge.run_id_mismatch")
            snap_pid = snap.get("pid", 0)
            base = lane or f"worker {snap_pid}"
            snap_lanes = {int(k): v for k, v in snap.get("lanes", {}).items()}
            lane_map: Dict[int, int] = {}

            def map_tid(tid: int) -> int:
                local = lane_map.get(tid)
                if local is None:
                    if tid == MAIN_LANE:
                        label = base
                    else:
                        label = f"{base} · {snap_lanes.get(tid, f'lane {tid}')}"
                    local = lane_map[tid] = self.lane(label)
                return local

            offset_us = (
                snap.get("epoch_ns", self._epoch_ns) - self._epoch_ns
            ) / 1000.0
            parent = self._stack[-1] if self._stack else None
            id_map: Dict[int, int] = {}
            for data in snap.get("spans", ()):
                self._ids += 1
                id_map[data["span_id"]] = self._ids
                if data["parent_id"] is None:
                    parent_id = parent.span_id if parent is not None else None
                    path = (
                        f"{parent.path}/{data['path']}"
                        if parent is not None
                        else data["path"]
                    )
                else:
                    parent_id = id_map.get(data["parent_id"])
                    path = data["path"]
                self.spans.append(
                    SpanRecord(
                        span_id=self._ids,
                        parent_id=parent_id,
                        name=data["name"],
                        path=path,
                        start_us=data["start_us"] + offset_us,
                        duration_us=data["duration_us"],
                        attrs=dict(data.get("attrs", ())),
                        pid=data.get("pid", 0),
                        tid=map_tid(data.get("tid", MAIN_LANE)),
                    )
                )
            for data in snap.get("instants", ()):
                self.instants.append(
                    InstantRecord(
                        name=data["name"],
                        ts_us=data["ts_us"] + offset_us,
                        attrs=dict(data.get("attrs", ())),
                        pid=data.get("pid", 0),
                        tid=map_tid(data.get("tid", MAIN_LANE)),
                    )
                )


class _NullSpan:
    """Reusable no-op stand-in for an open span (and its context manager)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class NoopTelemetry:
    """The disabled fast path: every operation returns immediately."""

    enabled = False
    spans: List[SpanRecord] = []
    instants: List[InstantRecord] = []
    run_id = ""
    lane_labels: Dict[int, str] = {}
    pid = 0
    epoch_ns = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float, **attrs: Any) -> None:
        return None

    def emit_span(
        self, name: str, start_ns: int, end_ns: int, tid: int = 0, **attrs: Any
    ) -> None:
        return None

    def instant(self, name: str, tid: int = 0, **attrs: Any) -> None:
        return None

    def lane(self, label: str) -> int:
        return MAIN_LANE

    def counter(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def merge_snapshot(
        self, snap: Optional[Dict[str, Any]], lane: Optional[str] = None
    ) -> None:
        pass

    @property
    def current_span(self) -> None:
        return None


_NOOP = NoopTelemetry()
_active: Optional[Telemetry] = None


def get_telemetry():
    """The active session, or the no-op singleton when telemetry is off."""
    return _active if _active is not None else _NOOP


def enable_telemetry() -> Telemetry:
    """Install (and return) a fresh process-wide telemetry session."""
    global _active
    _active = Telemetry()
    return _active


def disable_telemetry() -> Optional[Telemetry]:
    """Deactivate telemetry; returns the session that was active."""
    global _active
    prev, _active = _active, None
    return prev


def install_telemetry(tm: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install a specific session (or None); returns the previous one.

    Used by pool workers (install a local session for one job) and
    tests; :func:`enable_telemetry` is the normal entry point.
    """
    global _active
    prev, _active = _active, tm
    return prev


@contextmanager
def telemetry_session(tm: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Scoped telemetry: install a session, restore the previous on exit."""
    session = tm if tm is not None else Telemetry()
    prev = install_telemetry(session)
    try:
        yield session
    finally:
        install_telemetry(prev)


@contextmanager
def worker_session(run_id: Optional[str]) -> Iterator[Optional[Telemetry]]:
    """Scoped local session for one job, unless this process records.

    A pool worker (fresh, or fork-started with the parent's session
    inherited — detectable because a session remembers the pid it was
    created in) or a telemetry-off inline run records into a local
    session with the parent's *run_id*, so its spans stitch into the
    parent's timeline as one run; the job ships that session's
    :meth:`Telemetry.snapshot` back with its result.  Yields the local
    session, or None when the active session already belongs to this
    process (the spans land there directly).
    """
    active = get_telemetry()
    if active.enabled and active.pid == os.getpid():
        yield None
    else:
        with telemetry_session(Telemetry(run_id=run_id)) as local:
            yield local


def timed(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator form of :meth:`Telemetry.span`.

    Resolves the active session at call time, so decorated functions
    cost one global read plus one attribute check when telemetry is off.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tm = get_telemetry()
            if not tm.enabled:
                return fn(*args, **kwargs)
            with tm.span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
