"""The serving query model: what a client can ask for, and how it is
computed.

A :class:`Query` names one deterministic pipeline product — a call-loop
**profile**, a selected **marker** set, a marker-split **bbv** summary,
the **vli** interval partition itself, a **phases** roll-up of that
partition, or a **stream** session replayed through the incremental
streaming monitor — for one (workload, input) pair at one selection
configuration.  Everything downstream leans on one contract:

    the payload for a query is a *pure function* of the query.

The engine is a seeded interpreter and selection is deterministic, so
:func:`compute_payload` always produces the same canonical JSON bytes
for the same query — whether it runs inline under ``repro query`` (the
batch CLI path), inside a ``repro serve`` pool worker, or twice on two
different machines.  That is what makes deduplication sound (any two
clients asking the same question can share one computation), caching
sound (the content-addressed profile cache key *is* a function of the
query), and the acceptance tests meaningful (served bytes must equal
CLI bytes).

:class:`QueryJob` is the picklable unit the server hands to its process
pool, mirroring :class:`repro.runner.jobs.ProfileJob`: the worker
recomputes the payload (consulting the shared on-disk profile cache and
trace store, through the programs, graphs and mapped traces it kept
from earlier jobs: :class:`WorkerState`) and ships back bytes plus its
telemetry snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: the query kinds the serving layer understands
QUERY_KINDS = ("profile", "markers", "bbv", "vli", "phases", "stream")

#: bump when the payload layout changes incompatibly
PAYLOAD_VERSION = 2

#: streaming-session slot size (instructions per window slot)
STREAM_SLOT_INSTRUCTIONS = 100_000

#: CoV drift that triggers rolling re-selection in bounded-window
#: streaming sessions (unbounded sessions disable drift: they are the
#: batch-equivalent mode and must never swap the marker set)
STREAM_DRIFT_THRESHOLD = 0.25


class QueryError(ValueError):
    """A malformed or unanswerable query (HTTP 400, never a crash)."""


@dataclass(frozen=True)
class Query:
    """One deterministic question about one workload.

    ``kind`` selects the product; ``workload`` is a registry name or
    ``name/input`` spec label; ``which`` selects the profiled input
    ("ref", "train", or an explicit input name).  The selection knobs
    (``ilower``, ``max_limit``, ``procedures_only``) mirror the
    ``repro markers`` CLI flags; they are part of the query identity,
    so different configurations never share a deduplicated result.
    ``window`` applies only to ``stream`` queries: the sliding-window
    length in slots (0 = unbounded, the batch-equivalent mode).
    """

    kind: str
    workload: str
    which: str = "ref"
    ilower: int = 10_000
    max_limit: int = 0
    procedures_only: bool = False
    window: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "which": self.which,
            "ilower": self.ilower,
            "max_limit": self.max_limit,
            "procedures_only": self.procedures_only,
            "window": self.window,
        }

    def key(self) -> str:
        """The dedup/cache identity: hex SHA-256 of the canonical form."""
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def label(self) -> str:
        """A compact human label for logs and telemetry attributes."""
        return f"{self.kind}:{self.workload}:{self.which}"


_QUERY_FIELDS = {
    "kind": str,
    "workload": str,
    "which": str,
    "ilower": int,
    "max_limit": int,
    "procedures_only": bool,
    "window": int,
}
_REQUIRED_FIELDS = ("kind", "workload")


def query_from_dict(data: Mapping[str, Any]) -> Query:
    """Validate and build a :class:`Query` from untrusted JSON data.

    Strict by design: unknown fields, wrong types, unknown kinds,
    unknown workloads, and a ``name/label`` spec whose label names none
    of the workload's inputs all raise :class:`QueryError` with a
    message the server returns verbatim as the HTTP 400 body — a typo in
    a client never burns a pool worker.
    """
    if not isinstance(data, Mapping):
        raise QueryError(f"query must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(_QUERY_FIELDS)
    if unknown:
        raise QueryError(f"unknown query fields: {sorted(unknown)}")
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise QueryError(f"query is missing required field {name!r}")
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        want = _QUERY_FIELDS[name]
        # bool is an int subclass; keep the check exact so `"ilower": true`
        # is rejected rather than silently coerced
        if type(value) is not want:
            raise QueryError(
                f"query field {name!r} must be {want.__name__}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = value
    query = Query(**kwargs)
    if query.kind not in QUERY_KINDS:
        raise QueryError(
            f"unknown query kind {query.kind!r}; expected one of {QUERY_KINDS}"
        )
    if query.ilower <= 0:
        raise QueryError(f"ilower must be positive, got {query.ilower}")
    if query.max_limit < 0:
        raise QueryError(f"max_limit must be >= 0, got {query.max_limit}")
    if query.window < 0:
        raise QueryError(f"window must be >= 0, got {query.window}")
    if query.window and query.kind != "stream":
        raise QueryError(
            f"window applies only to stream queries, not {query.kind!r}"
        )
    from repro.workloads import workload_names
    from repro.workloads.base import _REGISTRY

    base, slash, label = query.workload.partition("/")
    if base not in _REGISTRY:
        raise QueryError(
            f"unknown workload {base!r}; available: {workload_names()}"
        )
    workload = _REGISTRY[base]
    # the whole spec keys the stores and a worker's kept entries, so a
    # label must name one of the workload's inputs
    if slash and label not in workload.inputs:
        raise QueryError(
            f"unknown label {label!r} in workload {query.workload!r}; "
            f"available: {sorted(workload.inputs)}"
        )
    if query.which not in ("ref", "train") and query.which not in workload.inputs:
        raise QueryError(
            f"unknown input {query.which!r} for workload {base!r}; "
            f"available: {sorted(workload.inputs)}"
        )
    return query


def canonical_json_bytes(obj: Any) -> bytes:
    """The one serialization every payload uses: sorted keys, compact
    separators, no trailing newline — byte-stable across processes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- computation ---------------------------------------------------------------


def _acquire_graph(query: Query, program, program_input, cache, trace_store, kept):
    """The annotated call-loop graph for *query*, via cache when possible.

    Returns ``(graph, source, trace)``: source is "cache" or "profiled",
    and trace is the recorded trace a profile read (``None`` on a cache
    hit), so the caller need not acquire it again.  Graph serialization
    is exact, so cache hits and misses produce byte-identical downstream
    payloads.  The cache is read through *kept* (a :class:`WorkerState`):
    a graph it decoded earlier from an unchanged entry counts as a hit.
    """
    from repro.callloop.profiler import CallLoopProfiler

    key = None
    if cache is not None:
        key = cache.graph_key(query.workload, query.which, program_input)
        cached = kept.load("graph", cache, key, cache.load_graph)
        if cached is not None:
            return cached, "cache", None
    profiler = CallLoopProfiler(program)
    trace = _acquire_trace(query, program, program_input, trace_store, kept, profiler)
    if cache is not None:
        cache.store_graph(key, profiler.graph)
    return profiler.graph, "profiled", trace


def _acquire_trace(
    query: Query, program, program_input, trace_store, kept, profiler=None
):
    """The recorded trace for *query*, profiled into *profiler* when one
    is given (:func:`~repro.runner.traces.acquire_trace`).  The store is
    read through *kept* (a :class:`WorkerState`): a trace it mapped
    earlier from an unchanged entry is reused.
    """
    from repro.runner.traces import acquire_trace

    return acquire_trace(
        query.workload,
        query.which,
        program,
        program_input,
        trace_store,
        profiler=profiler,
        load=lambda key: kept.load("trace", trace_store, key, trace_store.load),
    )


def compute_result(
    query: Query, cache=None, trace_store=None, *, kept=None
) -> Tuple[Dict[str, Any], str]:
    """Compute the payload document for *query*.

    Returns ``(document, graph_source)``; the document is JSON-ready and
    deterministic (see module docstring).  *cache* is an optional
    :class:`~repro.runner.cache.ProfileCache` and *trace_store* an
    optional :class:`~repro.runner.traces.TraceStore`; both only change
    wall-clock, never bytes.  *kept* is the pool worker's
    :class:`WorkerState` (:func:`run_query_job` passes it); without one
    the call builds its own, so nothing outlives it.
    """
    from repro.callloop import select_with_options
    from repro.callloop.serialization import graph_to_dict, marker_set_to_dict
    from repro.workloads import get_workload

    if kept is None:
        kept = WorkerState()
    workload = get_workload(query.workload)
    program = kept.program(workload)
    program_input = workload.input_for(query.which)
    graph, source, trace = _acquire_graph(
        query, program, program_input, cache, trace_store, kept
    )
    if trace is None and query.kind in ("stream", "bbv", "vli", "phases"):
        trace = _acquire_trace(query, program, program_input, trace_store, kept)
    doc: Dict[str, Any] = {
        "payload_version": PAYLOAD_VERSION,
        "query": query.as_dict(),
    }
    if query.kind == "profile":
        doc["graph"] = graph_to_dict(graph)
        return doc, source
    markers = select_with_options(
        graph, query.ilower, query.max_limit, query.procedures_only
    ).markers
    if query.kind == "markers":
        doc["markers"] = marker_set_to_dict(markers)
        return doc, source

    if query.kind == "stream":
        # streaming session: batch-selected markers seed an online
        # monitor replaying the recorded trace through the incremental
        # path; window=0 disables drift and is bit-equivalent to the
        # batch monitor (docs/STREAMING.md), so the payload is still a
        # pure function of the query
        from repro.callloop import SelectionParams
        from repro.streaming import StreamingConfig, stream_trace

        config = StreamingConfig(
            slot_instructions=STREAM_SLOT_INSTRUCTIONS,
            window_slots=query.window,
            drift_threshold=STREAM_DRIFT_THRESHOLD if query.window else None,
            selection=SelectionParams(
                ilower=query.ilower, procedures_only=query.procedures_only
            ),
        )
        monitor = stream_trace(program, trace, marker_set=markers, config=config)
        doc["stream"] = {
            "window_slots": query.window,
            "slot_instructions": config.slot_instructions,
            "batch_equivalent": query.window == 0,
            "events": monitor.events_fed,
            "total_instructions": int(trace.total_instructions),
            "slots_sealed": monitor.slots_sealed,
            "slots_evicted": monitor.window.evicted_slots,
            "drift_events": monitor.drift_events,
            "reselections": [
                {
                    "t": r.t,
                    "slot": r.slot,
                    "num_markers": r.num_markers,
                    "drifted_edges": r.drifted_edges,
                }
                for r in monitor.reselections
            ],
            "phase_changes": len(monitor.changes),
            "phases_visited": len(monitor.time_in_phase),
            "markers": marker_set_to_dict(monitor.marker_set),
        }
        return doc, source

    # bbv / vli / phases: split the recorded run at the selected markers
    # and summarize
    import hashlib as _hashlib

    import numpy as np

    from repro.intervals import collect_bbvs, split_at_markers

    intervals = split_at_markers(program, trace, markers)

    def _digest(column) -> str:
        return _hashlib.sha256(
            np.ascontiguousarray(column, dtype=np.int64).tobytes()
        ).hexdigest()

    if query.kind == "vli":
        # the interval partition itself: every column pinned by digest,
        # the shape summarized in transferable integers
        doc["vli"] = {
            "num_intervals": len(intervals),
            "num_phases": intervals.num_phases,
            "total_instructions": int(intervals.lengths.sum()),
            "row_bounds_digest": _digest(intervals.row_bounds),
            "start_ts_digest": _digest(intervals.start_ts),
            "lengths_digest": _digest(intervals.lengths),
            "phase_ids_digest": _digest(intervals.phase_ids),
        }
        return doc, source

    if query.kind == "phases":
        # per-phase roll-up of the partition (integer-only, so the
        # canonical bytes are stable across platforms)
        phases = []
        for phase in sorted(set(intervals.phase_ids.tolist())):
            mask = intervals.phase_ids == phase
            phases.append(
                {
                    "phase": int(phase),
                    "intervals": int(mask.sum()),
                    "instructions": int(intervals.lengths[mask].sum()),
                }
            )
        doc["phases"] = {
            "num_intervals": len(intervals),
            "num_phases": intervals.num_phases,
            "total_instructions": int(intervals.lengths.sum()),
            "per_phase": phases,
        }
        return doc, source

    # bbv: summarize the basic-block-vector matrix (full matrices are
    # big; the digest pins every byte while the summary stays
    # transferable)
    bbvs = collect_bbvs(intervals, trace, program.num_blocks)
    doc["bbv"] = {
        "num_intervals": len(intervals),
        "num_phases": intervals.num_phases,
        "num_blocks": program.num_blocks,
        "total_instructions": int(intervals.lengths.sum()),
        "interval_lengths_digest": _hashlib.sha256(
            np.ascontiguousarray(intervals.lengths, dtype=np.int64).tobytes()
        ).hexdigest(),
        "matrix_digest": _hashlib.sha256(
            np.ascontiguousarray(bbvs, dtype=np.float64).tobytes()
        ).hexdigest(),
    }
    return doc, source


def compute_payload(query: Query, cache=None, trace_store=None) -> bytes:
    """The canonical payload bytes for *query* (the byte-equivalence
    contract between ``repro query`` and ``repro serve``)."""
    doc, _ = compute_result(query, cache=cache, trace_store=trace_store)
    return canonical_json_bytes(doc)


# -- pool jobs -----------------------------------------------------------------


class WorkerState:
    """What a ``repro serve`` pool worker keeps from one query to the next.

    The :class:`~repro.ir.program.Program` built per workload, the
    call-loop graph decoded per profile-cache entry, and the mapped trace
    (columns and span index) loaded per trace-store entry.  Each store
    entry is kept with the identity its store reported just before the
    load (:meth:`~repro.runner.cache.ProfileCache.identity`,
    :meth:`~repro.runner.traces.TraceStore.identity`), and reused only
    while the entry still reports it; on any difference the kept object
    is dropped unread and the entry loads afresh, where a corrupt entry
    is a miss like any other.  Products — markers, intervals, BBVs,
    payload bytes — are recomputed per query.  What is kept is bounded by
    the distinct (workload, input, store root) triples the worker has
    served.
    """

    def __init__(self) -> None:
        self.programs: Dict[str, Any] = {}
        #: (store root, key) -> (identity, graph or trace); graph and trace
        #: keys are distinct fingerprints, so one map holds both
        self.entries: Dict[Tuple[str, str], Tuple[Any, Any]] = {}

    def clear(self) -> None:
        self.programs.clear()
        self.entries.clear()

    def program(self, workload):
        """*workload*'s built program, built on first use."""
        program = self.programs.get(workload.name)
        if program is None:
            program = self.programs[workload.name] = workload.build()
        else:
            _count("serve.worker.kept.program")
        return program

    def load(self, what: str, store, key: str, load: Callable[[str], Any]):
        """*store*'s entry *key*: the kept object while the entry's
        identity is unchanged, else ``load(key)``, kept when it hits.
        *what* ("graph" or "trace") names the counters."""
        slot = (str(store.root), key)
        identity = store.identity(key)
        held = self.entries.get(slot)
        if held is not None:
            if held[0] == identity:
                _count(f"serve.worker.kept.{what}")
                return held[1]
            # dropped unread: the pages of a truncated file must not be
            # touched
            del self.entries[slot]
            _count(f"serve.worker.reloaded.{what}")
        loaded = load(key)
        if loaded is not None and identity is not None:
            self.entries[slot] = (identity, loaded)
        return loaded


def _count(name: str) -> None:
    from repro.telemetry import get_telemetry

    get_telemetry().counter(name)


#: this process's kept entries; only :func:`run_query_job` fills them
WORKER_STATE = WorkerState()


@dataclass(frozen=True)
class QueryJob:
    """A picklable query computation for a server pool worker.

    ``cache_dir``/``trace_root`` point the worker at the shared on-disk
    stores (None disables them); ``run_id`` stitches the worker's
    telemetry snapshot into the server session, exactly like
    :class:`~repro.runner.jobs.ProfileJob`.
    """

    query: Query
    cache_dir: Optional[str] = None
    trace_root: Optional[str] = None
    run_id: Optional[str] = field(default=None, compare=False)


@dataclass
class QueryJobResult:
    """Payload bytes plus provenance from one worker computation."""

    key: str
    payload: bytes
    graph_source: str
    seconds: float
    worker_pid: int
    telemetry: Optional[Dict[str, Any]] = None


def run_query_job(job: QueryJob) -> QueryJobResult:
    """Worker entry point: compute one query payload start-to-finish.

    Module-level function of picklable arguments by design (the process
    pool requirement).  Reuses what this process kept from earlier jobs
    (:data:`WORKER_STATE`).  Records into
    :func:`~repro.telemetry.worker_session`, like
    :func:`repro.runner.jobs.run_profile_job`.
    """
    from repro import telemetry
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    with telemetry.worker_session(job.run_id) as local:
        tm = telemetry.get_telemetry()
        start = time.perf_counter()
        with tm.span(
            "serve.compute", query=job.query.label(), kind=job.query.kind
        ) as span:
            cache = ProfileCache(job.cache_dir) if job.cache_dir else None
            store = TraceStore(job.trace_root) if job.trace_root else None
            doc, source = compute_result(
                job.query, cache=cache, trace_store=store, kept=WORKER_STATE
            )
            span.set("graph_source", source)
        seconds = time.perf_counter() - start
    return QueryJobResult(
        key=job.query.key(),
        payload=canonical_json_bytes(doc),
        graph_source=source,
        seconds=seconds,
        worker_pid=os.getpid(),
        telemetry=local.snapshot() if local is not None else None,
    )
