"""Rendering a telemetry session: stderr report, JSONL trace, stats.

Three pluggable outputs over the same session data:

* :func:`render_report` — the human-readable tree/table shown on stderr
  at the end of a ``--telemetry`` run, built from
  :class:`~repro.util.tables.Table` like every other report in the repo;
* :func:`write_jsonl` / :func:`read_jsonl` — a JSON-Lines trace file,
  one event per line with Chrome-trace-compatible fields (``ph``/``ts``/
  ``dur`` in microseconds; complete spans are ``ph: "X"`` events,
  counters/gauges/histograms are ``ph: "C"`` events), so a trace can be
  dropped into ``chrome://tracing``-style viewers or grepped directly;
* :func:`stats_report` — the stage-by-stage aggregation ``repro stats``
  prints from a previously written JSONL trace.

JSONL schema (one JSON object per line)
---------------------------------------
``{"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}`` where
``cat`` is ``meta`` (header + ``process_name``/``thread_name`` lane
labels), ``span``, ``instant``, ``counter``, ``gauge``, or
``histogram``; span ``args`` carry the span ``path``, ``id``,
``parent``, and user attributes; counter/gauge ``args`` carry
``{"value": v}``; histogram ``args`` map bucket labels to counts.
``tid`` is the lane (one per worker/phase track — see
:meth:`~repro.telemetry.core.Telemetry.lane`); the header carries the
run id.

:func:`prometheus_text` renders a metrics snapshot in the Prometheus
text exposition format — the groundwork for a scrape endpoint on the
future ``repro serve``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.telemetry.core import SpanRecord, Telemetry
from repro.util.tables import Table

#: bump when the JSONL layout changes incompatibly
#: (2: multi-lane ``tid`` + thread_name metadata, instant events,
#: run id in the header, fractional histogram buckets)
JSONL_SCHEMA_VERSION = 2


def default_trace_path() -> Path:
    """Where ``--telemetry`` (no path) writes and ``repro stats`` reads:
    ``$REPRO_TELEMETRY_DIR`` else ``~/.cache/repro/telemetry``, file
    ``last-run.jsonl``."""
    env = os.environ.get("REPRO_TELEMETRY_DIR")
    if env:
        return Path(env) / "last-run.jsonl"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "telemetry" / "last-run.jsonl"


def default_series_path() -> Path:
    """Where ``--metrics-series`` (no path) writes and
    ``repro stats --series`` reads: next to the default trace."""
    return default_trace_path().with_name("last-series.jsonl")


# -- Chrome-trace JSONL -------------------------------------------------------


def span_to_chrome(span: SpanRecord, pid: Optional[int] = None) -> Dict[str, Any]:
    """One complete-span event (``ph: "X"``, timestamps in microseconds).

    *pid* is the run's process-group id for the stitched timeline
    (default: the span's own).  A span recorded by a different process
    keeps its origin as ``args["worker_pid"]``.
    """
    args = {"path": span.path, "id": span.span_id, "parent": span.parent_id}
    if pid is not None and span.pid and span.pid != pid:
        args["worker_pid"] = span.pid
    args.update(span.attrs)
    return {
        "name": span.name,
        "cat": "span",
        "ph": "X",
        "ts": span.start_us,
        "dur": span.duration_us,
        "pid": pid if pid is not None else span.pid,
        "tid": span.tid,
        "args": args,
    }


def chrome_events(tm: Telemetry) -> Iterator[Dict[str, Any]]:
    """Every event of the session, metadata lines first.

    All events share one ``pid`` (the session's) and spread across
    lanes via ``tid``; ``thread_name`` metadata labels every lane, so
    Chrome-trace viewers render one process group with one named row
    per worker/phase track.
    """
    pid = tm.pid
    yield {
        "name": "telemetry",
        "cat": "meta",
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": 0,
        "args": {
            "schema": JSONL_SCHEMA_VERSION,
            "tool": "repro",
            "run_id": tm.run_id,
        },
    }
    yield {
        "name": "process_name",
        "cat": "meta",
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": 0,
        "args": {"name": f"repro run {tm.run_id}"},
    }
    for tid in sorted(tm.lane_labels):
        yield {
            "name": "thread_name",
            "cat": "meta",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tid,
            "args": {"name": tm.lane_labels[tid]},
        }
    end_ts = 0.0
    for span in tm.spans:
        end_ts = max(end_ts, span.start_us + span.duration_us)
        yield span_to_chrome(span, pid=pid)
    for inst in tm.instants:
        end_ts = max(end_ts, inst.ts_us)
        yield {
            "name": inst.name,
            "cat": "instant",
            "ph": "i",
            "ts": inst.ts_us,
            "pid": pid,
            "tid": inst.tid,
            "s": "t",
            "args": dict(inst.attrs),
        }
    metrics = tm.metrics
    for cat, mapping in (("counter", metrics.counters), ("gauge", metrics.gauges)):
        for name in sorted(mapping):
            yield {
                "name": name,
                "cat": cat,
                "ph": "C",
                "ts": end_ts,
                "pid": pid,
                "tid": 0,
                "args": {"value": mapping[name]},
            }
    for name in sorted(metrics.histograms):
        yield {
            "name": name,
            "cat": "histogram",
            "ph": "C",
            "ts": end_ts,
            "pid": pid,
            "tid": 0,
            "args": dict(metrics.histograms[name].rows()),
        }


def write_jsonl(tm: Telemetry, path: Union[str, Path]) -> Path:
    """Write the session as one JSON object per line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for event in chrome_events(tm):
            f.write(json.dumps(event, sort_keys=True))
            f.write("\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a trace written by :func:`write_jsonl`; blank lines and
    malformed lines are skipped (a truncated trace still renders)."""
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


# -- Prometheus text exposition -----------------------------------------------

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A metric name in Prometheus form: dots and other invalid
    characters become underscores, everything prefixed ``repro_``."""
    return "repro_" + _PROM_INVALID.sub("_", name)


def _prom_number(value: float) -> str:
    v = float(value)
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(int(v)) if v.is_integer() else repr(v)


def hist_bounds(buckets: Mapping[str, int]) -> List[Tuple[float, int]]:
    """Parse histogram bucket labels (``"[2, 4)"``, ``"0"``, ``"inf"``)
    back into (upper bound, count) pairs, ascending by bound."""
    rows = []
    for label, count in buckets.items():
        if label == "invalid":
            continue
        if label == "0":
            upper = 0.0
        elif label == "inf":
            upper = float("inf")
        else:
            # "[lower, upper)" — bounds separated by ", ", thousands
            # separators are bare commas inside a bound
            upper_text = label.strip("[)").split(", ")[-1]
            upper = float(upper_text.replace(",", ""))
        rows.append((upper, int(count)))
    return sorted(rows)


def prometheus_text(
    counters: Mapping[str, float],
    gauges: Mapping[str, float],
    histograms: Mapping[str, Mapping[str, int]],
) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``,
    and histograms cumulative ``_bucket{le="..."}`` series plus
    ``_count`` (the registry tracks bucket counts, not value sums, so
    no ``_sum`` series is emitted).  *histograms* map name → bucket
    label → count, the shape both :meth:`Histogram.rows` (via ``dict``)
    and the JSONL histogram events carry.
    """
    lines: List[str] = []
    for name in sorted(counters):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_number(counters[name])}")
    for name in sorted(gauges):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(gauges[name])}")
    for name in sorted(histograms):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        rows = hist_bounds(histograms[name])
        cumulative = 0
        for upper, count in rows:
            cumulative += count
            le = "+Inf" if upper == float("inf") else _prom_number(upper)
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        if not rows or rows[-1][0] != float("inf"):
            lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_count {cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- aggregation --------------------------------------------------------------


def trace_metrics(
    events: Iterable[Dict[str, Any]],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, int]]]:
    """``(counters, gauges, histograms)`` from a parsed JSONL trace."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, int]] = {}
    for e in events:
        cat = e.get("cat")
        if cat == "counter":
            counters[e["name"]] = e["args"]["value"]
        elif cat == "gauge":
            gauges[e["name"]] = e["args"]["value"]
        elif cat == "histogram":
            histograms[e["name"]] = dict(e["args"])
    return counters, gauges, histograms


def _aggregate(paths_durations: Iterable[Tuple[str, float]]) -> Dict[str, List[float]]:
    """path -> [count, total_us], in first-seen order (dicts are ordered)."""
    agg: Dict[str, List[float]] = {}
    for path, dur_us in paths_durations:
        entry = agg.get(path)
        if entry is None:
            agg[path] = [1, dur_us]
        else:
            entry[0] += 1
            entry[1] += dur_us
    return agg


def _self_us(agg: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-path self time: total minus the totals of direct children."""
    self_us = {path: entry[1] for path, entry in agg.items()}
    for path, entry in agg.items():
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            if parent in self_us:
                self_us[parent] -= entry[1]
    return self_us


def span_table(paths_durations: Iterable[Tuple[str, float]], title: str) -> Table:
    """The stage-by-stage span aggregation as an indented tree table."""
    agg = _aggregate(paths_durations)
    self_us = _self_us(agg)
    table = Table(title, ["span", "count", "total s", "self s", "mean ms"], digits=3)
    for path in sorted(agg):
        count, total_us = agg[path]
        depth = path.count("/")
        name = ("  " * depth) + path.rsplit("/", 1)[-1]
        table.add_row(
            [
                name,
                int(count),
                total_us / 1e6,
                max(0.0, self_us[path]) / 1e6,
                total_us / count / 1e3,
            ]
        )
    return table


def metrics_tables(
    counters: Dict[str, float],
    gauges: Dict[str, float],
    histograms: Dict[str, Dict[str, int]],
) -> List[Table]:
    """Counter/gauge and histogram tables (omitted when empty)."""
    tables: List[Table] = []
    if counters or gauges:
        table = Table("Telemetry: counters and gauges", ["metric", "value"], digits=3)
        for name in sorted(counters):
            value = counters[name]
            table.add_row([name, int(value) if float(value).is_integer() else value])
        for name in sorted(gauges):
            table.add_row([f"{name} (gauge)", gauges[name]])
        tables.append(table)
    if histograms:
        table = Table(
            "Telemetry: histograms", ["histogram", "bucket", "count"], digits=0
        )
        for name in sorted(histograms):
            for label, count in histograms[name].items():
                table.add_row([name, label, int(count)])
        tables.append(table)
    return tables


def render_report(tm: Telemetry) -> str:
    """The end-of-run stderr report for a live session."""
    parts = []
    if tm.spans:
        parts.append(
            span_table(
                ((s.path, s.duration_us) for s in tm.spans),
                "Telemetry: per-stage spans",
            ).render()
        )
    metrics = tm.metrics
    parts.extend(
        t.render()
        for t in metrics_tables(
            metrics.counters,
            metrics.gauges,
            {n: dict(h.rows()) for n, h in metrics.histograms.items()},
        )
    )
    if not parts:
        return "Telemetry: no spans or metrics recorded"
    return "\n\n".join(parts)


def stats_report(events: List[Dict[str, Any]], source: Optional[str] = None) -> str:
    """Render ``repro stats`` output from a parsed JSONL trace."""
    spans = [
        (e["args"].get("path", e["name"]), float(e.get("dur", 0.0)))
        for e in events
        if e.get("ph") == "X"
    ]
    counters, gauges, histograms = trace_metrics(events)
    title = "Telemetry: per-stage spans"
    if source:
        title += f" ({source})"
    parts = []
    if spans:
        parts.append(span_table(spans, title).render())
    parts.extend(t.render() for t in metrics_tables(counters, gauges, histograms))
    if not parts:
        return "Telemetry: trace contains no spans or metrics"
    return "\n\n".join(parts)
