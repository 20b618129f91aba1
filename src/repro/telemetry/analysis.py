"""Critical-path and attribution analysis over a telemetry trace.

*Parallel Binary Code Analysis* (Meng et al.) makes the case that a
parallel analysis pipeline is tunable only once you can answer two
questions: **where did the wall-clock actually go** (critical path —
the chain of stragglers no amount of extra workers can hide) and **how
efficient were the workers you paid for** (busy time over wall x
workers).  This module answers both from a stitched Chrome-trace JSONL
(``repro stats --critical-path``) or a live session's events:

* per-span **self time** (duration minus direct children) aggregated by
  span path — attribution that separates a stage's own cost from its
  substages';
* the **critical path**: from the longest root span, repeatedly descend
  into the longest child — the chain whose spans bound the run end to
  end;
* per-lane **busy time** (union of span intervals per ``tid``) and
  **parallel efficiency** — worker-lane busy time / (wall x worker
  lanes) — for ``--jobs`` pool workers;
* the **series report** behind ``repro stats --series``: per-metric
  first/last/min/max and rate over a sampler time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.tables import Table


@dataclass
class SpanEvent:
    """One complete-span event lifted out of a parsed JSONL trace."""

    span_id: Optional[int]
    parent_id: Optional[int]
    name: str
    path: str
    ts: float
    dur: float
    tid: int
    children: List["SpanEvent"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.ts + self.dur


def span_events(events: Sequence[Mapping[str, Any]]) -> List[SpanEvent]:
    """The ``ph: "X"`` events of a parsed trace as :class:`SpanEvent`s
    with child links resolved (orphaned parent ids become roots)."""
    spans: List[SpanEvent] = []
    by_id: Dict[int, SpanEvent] = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        span = SpanEvent(
            span_id=args.get("id"),
            parent_id=args.get("parent"),
            name=e.get("name", "?"),
            path=args.get("path", e.get("name", "?")),
            ts=float(e.get("ts", 0.0)),
            dur=float(e.get("dur", 0.0)),
            tid=int(e.get("tid", 0)),
        )
        spans.append(span)
        if span.span_id is not None:
            by_id[span.span_id] = span
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None and parent is not span:
            parent.children.append(span)
    return spans


def lane_names(events: Sequence[Mapping[str, Any]]) -> Dict[int, str]:
    """``tid`` → label from the trace's ``thread_name`` metadata."""
    names: Dict[int, str] = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[int(e.get("tid", 0))] = e.get("args", {}).get("name", "")
    return names


def _merged_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of (start, end) intervals — overlap collapses, gaps stay."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def lane_busy_us(spans: Sequence[SpanEvent]) -> Dict[int, float]:
    """Per-lane busy time: the union of each lane's span intervals.

    Union, not sum — nested spans on one lane cover the same wall time
    once, so a lane's busy time never exceeds the wall.
    """
    by_lane: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        by_lane.setdefault(span.tid, []).append((span.ts, span.end))
    return {
        tid: sum(end - start for start, end in _merged_intervals(ivs))
        for tid, ivs in by_lane.items()
    }


@dataclass
class CriticalPathStep:
    """One span on the critical path."""

    name: str
    path: str
    duration_us: float
    self_us: float
    tid: int


@dataclass
class CriticalPathReport:
    """Everything ``repro stats --critical-path`` reports."""

    wall_us: float
    #: root-to-leaf chain of straggler spans
    steps: List[CriticalPathStep]
    #: span path -> (count, total_us, self_us)
    attribution: Dict[str, Tuple[int, float, float]]
    #: lane tid -> busy microseconds (interval union)
    busy_us: Dict[int, float]
    #: lane tid -> label
    lanes: Dict[int, str]
    #: busy/(wall x lanes) over the non-main lanes (None: no worker lanes)
    parallel_efficiency: Optional[float]
    #: number of non-main lanes with any spans
    worker_lanes: int


def _self_times(spans: Sequence[SpanEvent]) -> Dict[int, float]:
    """Exact per-span self time: duration minus direct children's
    durations, clamped at zero (defensive against clock skew)."""
    return {
        id(span): max(0.0, span.dur - sum(c.dur for c in span.children))
        for span in spans
    }


def analyze_critical_path(
    events: Sequence[Mapping[str, Any]],
) -> Optional[CriticalPathReport]:
    """Analyze a parsed JSONL trace; ``None`` when it has no spans."""
    spans = span_events(events)
    if not spans:
        return None
    self_us = _self_times(spans)

    wall_us = max(s.end for s in spans) - min(s.ts for s in spans)

    # attribution by path
    attribution: Dict[str, Tuple[int, float, float]] = {}
    for span in spans:
        count, total, self_total = attribution.get(span.path, (0, 0.0, 0.0))
        attribution[span.path] = (
            count + 1,
            total + span.dur,
            self_total + self_us[id(span)],
        )

    # critical path: longest root, then repeatedly the longest child
    child_ids = {id(c) for s in spans for c in s.children}
    roots = [s for s in spans if id(s) not in child_ids]
    steps: List[CriticalPathStep] = []
    node: Optional[SpanEvent] = max(roots, key=lambda s: s.dur, default=None)
    while node is not None:
        steps.append(
            CriticalPathStep(
                name=node.name,
                path=node.path,
                duration_us=node.dur,
                self_us=self_us[id(node)],
                tid=node.tid,
            )
        )
        node = max(node.children, key=lambda s: s.dur, default=None)

    busy = lane_busy_us(spans)
    lanes = lane_names(events)
    worker_tids = [tid for tid in busy if tid != 0]
    efficiency: Optional[float] = None
    if worker_tids and wall_us > 0:
        efficiency = sum(busy[t] for t in worker_tids) / (
            wall_us * len(worker_tids)
        )
    return CriticalPathReport(
        wall_us=wall_us,
        steps=steps,
        attribution=attribution,
        busy_us=busy,
        lanes=lanes,
        parallel_efficiency=efficiency,
        worker_lanes=len(worker_tids),
    )


def critical_path_report(
    events: Sequence[Mapping[str, Any]], source: Optional[str] = None
) -> str:
    """Render the critical-path/attribution analysis as report tables."""
    report = analyze_critical_path(events)
    if report is None:
        return "Telemetry: trace contains no spans to analyze"
    suffix = f" ({source})" if source else ""
    parts: List[str] = []

    chain = Table(
        f"Critical path{suffix}: wall {report.wall_us / 1e6:.3f} s",
        ["step", "span", "lane", "total s", "self s", "% of wall"],
        digits=3,
    )
    for i, step in enumerate(report.steps):
        label = report.lanes.get(step.tid, str(step.tid))
        share = 100.0 * step.duration_us / report.wall_us if report.wall_us else 0.0
        chain.add_row(
            [i, step.name, label, step.duration_us / 1e6, step.self_us / 1e6, share]
        )
    parts.append(chain.render())

    attr = Table(
        "Self-time attribution (top spans by self time)",
        ["span", "count", "total s", "self s", "child s"],
        digits=3,
    )
    ranked = sorted(
        report.attribution.items(), key=lambda kv: kv[1][2], reverse=True
    )
    for path, (count, total, self_total) in ranked[:15]:
        attr.add_row(
            [
                path.rsplit("/", 1)[-1] if "/" in path else path,
                count,
                total / 1e6,
                self_total / 1e6,
                max(0.0, total - self_total) / 1e6,
            ]
        )
    parts.append(attr.render())

    eff = Table(
        "Parallel efficiency: per-lane busy time",
        ["lane", "busy s", "utilization %"],
        digits=3,
    )
    for tid in sorted(report.busy_us):
        label = report.lanes.get(tid, f"lane {tid}")
        busy = report.busy_us[tid]
        util = 100.0 * busy / report.wall_us if report.wall_us else 0.0
        eff.add_row([label, busy / 1e6, util])
    summary = (
        f"{report.worker_lanes} worker lane(s); parallel efficiency "
        + (
            f"{report.parallel_efficiency:.1%}"
            if report.parallel_efficiency is not None
            else "n/a (no worker lanes)"
        )
    )
    parts.append(eff.render() + "\n" + summary)
    return "\n\n".join(parts)


# -- metrics time series ------------------------------------------------------


def series_report(
    samples: Sequence[Mapping[str, Any]],
    source: Optional[str] = None,
    skipped_lines: int = 0,
) -> str:
    """Render a sampler time series as a per-metric summary table.

    ``skipped_lines`` (from ``read_series_jsonl`` meta) flags a
    truncated/corrupted series in the report title instead of letting
    data loss pass silently.
    """
    truncated = (
        f" — WARNING: {skipped_lines} malformed line(s) skipped"
        if skipped_lines
        else ""
    )
    if not samples:
        return "Telemetry: series contains no samples" + truncated
    t0 = float(samples[0].get("t_s", 0.0))
    t1 = float(samples[-1].get("t_s", 0.0))
    span_s = t1 - t0

    metrics: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for sample in samples:
        t = float(sample.get("t_s", 0.0))
        for kind in ("counters", "gauges"):
            for name, value in sample.get(kind, {}).items():
                metrics.setdefault((kind[:-1], name), []).append((t, float(value)))

    suffix = f" ({source})" if source else ""
    table = Table(
        f"Telemetry: metrics time series{suffix} — "
        f"{len(samples)} samples over {span_s:.2f} s{truncated}",
        ["metric", "kind", "samples", "first", "last", "min", "max", "rate/s"],
        digits=3,
    )
    for (kind, name) in sorted(metrics, key=lambda k: (k[1], k[0])):
        points = metrics[(kind, name)]
        values = [v for _, v in points]
        rate = ""
        if kind == "counter" and len(points) > 1:
            dt = points[-1][0] - points[0][0]
            if dt > 0:
                rate = (points[-1][1] - points[0][1]) / dt
        table.add_row(
            [
                name,
                kind,
                len(points),
                values[0],
                values[-1],
                min(values),
                max(values),
                rate,
            ]
        )
    return table.render()
