"""Unified telemetry: spans, counters, and per-stage metrics.

The measurement substrate for the whole reproduction pipeline — you
cannot scale or speed up what you cannot measure, the same lesson that
motivates profiling in the source paper itself.  Three pieces:

* :mod:`repro.telemetry.core` — hierarchical **spans** (context manager
  + :func:`timed` decorator, monotonic timings, parent/child nesting,
  per-span attributes) and the process-wide session
  (:func:`get_telemetry` / :func:`enable_telemetry`), with a no-op fast
  path when disabled;
* :mod:`repro.telemetry.registry` — **counters, gauges, and
  histograms** (nodes/edges built, trace events replayed, selection
  candidates kept vs. rejected, cache hits/misses, pool queue depth),
  snapshot/merge-able across processes;
* :mod:`repro.telemetry.exporters` — the stderr tree/table report, the
  Chrome-trace-compatible JSONL writer behind ``--telemetry[=PATH]``,
  the Prometheus text exposition writer, and the aggregation behind
  ``repro stats``;
* :mod:`repro.telemetry.sampler` — the background **metrics sampler**
  (``--metrics-series``): a bounded ring-buffer time series of
  counters/gauges with JSONL export;
* :mod:`repro.telemetry.analysis` — **critical-path and attribution
  analysis** over a stitched trace (``repro stats --critical-path``):
  per-span self time, the straggler chain, per-lane busy time, and
  parallel efficiency.

Span taxonomy, metric names, lane/stitching model, and the JSONL
schema are documented in ``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.analysis import (
    CriticalPathReport,
    analyze_critical_path,
    critical_path_report,
    series_report,
)
from repro.telemetry.core import (
    InstantRecord,
    NoopTelemetry,
    SpanRecord,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    install_telemetry,
    telemetry_session,
    timed,
    worker_session,
)
from repro.telemetry.exporters import (
    JSONL_SCHEMA_VERSION,
    chrome_events,
    default_series_path,
    default_trace_path,
    prometheus_text,
    read_jsonl,
    render_report,
    span_table,
    stats_report,
    trace_metrics,
    write_jsonl,
)
from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.sampler import (
    MetricsSampler,
    read_series_jsonl,
    write_series_jsonl,
)

__all__ = [
    "CriticalPathReport",
    "InstantRecord",
    "MetricsSampler",
    "NoopTelemetry",
    "SpanRecord",
    "Telemetry",
    "analyze_critical_path",
    "critical_path_report",
    "disable_telemetry",
    "enable_telemetry",
    "get_telemetry",
    "install_telemetry",
    "read_series_jsonl",
    "series_report",
    "telemetry_session",
    "timed",
    "worker_session",
    "write_series_jsonl",
    "JSONL_SCHEMA_VERSION",
    "chrome_events",
    "default_series_path",
    "default_trace_path",
    "prometheus_text",
    "read_jsonl",
    "render_report",
    "span_table",
    "stats_report",
    "trace_metrics",
    "write_jsonl",
    "Histogram",
    "MetricsRegistry",
]
