"""The phase-marker serving layer: ``repro serve`` + ``repro loadgen``.

The ROADMAP's "heavy traffic" scenario made concrete: the batch
pipeline (record → profile → select → split → bbv) wrapped behind a
long-lived asyncio HTTP service, exercised by an MLPerf-loadgen-style
client harness, and regression-gated on latency percentiles and
achieved QPS (``make bench-serve``).

* :mod:`repro.serving.queries` — the query model and the one contract
  everything rests on: a payload is a pure function of its query, so
  served bytes equal batch-CLI bytes (``repro query``).
* :mod:`repro.serving.batcher` — event-loop in-flight dedup: N
  concurrent identical queries cost one pool job.
* :mod:`repro.serving.server` — the asyncio HTTP service with a
  process-pool compute backend, shared profile cache / trace store,
  health/stats endpoints, and drain-first graceful shutdown.
* :mod:`repro.serving.client` — the asyncio client.
* :mod:`repro.serving.loadgen` — SingleStream / Server scenarios on a
  seeded Poisson schedule, with p50/p90/p99 + achieved-QPS reporting.

Scenarios, endpoints, flags, and baseline numbers: ``docs/SERVING.md``.
"""

from repro.serving.batcher import BatcherClosed, QueryBatcher
from repro.serving.client import AsyncServeClient, ServeClientError
from repro.serving.loadgen import (
    SCENARIOS,
    LoadGenSettings,
    LoadGenSummary,
    LoadPlan,
    build_plan,
    expected_payloads,
    percentile,
    run_loadgen,
    run_loadgen_async,
)
from repro.serving.queries import (
    PAYLOAD_VERSION,
    QUERY_KINDS,
    STREAM_DRIFT_THRESHOLD,
    STREAM_SLOT_INSTRUCTIONS,
    Query,
    QueryError,
    QueryJob,
    QueryJobResult,
    canonical_json_bytes,
    compute_payload,
    compute_result,
    query_from_dict,
    run_query_job,
)
from repro.serving.server import PhaseMarkerServer, ServeStats, run_server

__all__ = [
    "AsyncServeClient",
    "BatcherClosed",
    "LoadGenSettings",
    "LoadGenSummary",
    "LoadPlan",
    "PAYLOAD_VERSION",
    "PhaseMarkerServer",
    "QUERY_KINDS",
    "Query",
    "QueryBatcher",
    "QueryError",
    "QueryJob",
    "QueryJobResult",
    "SCENARIOS",
    "STREAM_DRIFT_THRESHOLD",
    "STREAM_SLOT_INSTRUCTIONS",
    "ServeClientError",
    "ServeStats",
    "build_plan",
    "canonical_json_bytes",
    "compute_payload",
    "compute_result",
    "expected_payloads",
    "percentile",
    "query_from_dict",
    "run_loadgen",
    "run_loadgen_async",
    "run_query_job",
    "run_server",
]
