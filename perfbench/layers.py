"""Per-layer metrics of a traced run, and what each one should move.

:data:`MOVES` records, for every per-layer metric of ``BENCHMARK.json``,
the end-to-end metric and workload it should move and a workload where
it should not (``BENCHMARK.json`` itself holds only names and units).
A change claiming a gain in one layer names its metric here, shows the
end-to-end move on the first workload and no move on the second.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads import workload_names

from perfbench.tracing import Tracer

PC, SE, SM, SD = "pipeline-corpus", "simpoint-eval", "serve-mixed", "stream-drift"


def _moves(moves, not_on):
    return {"moves": [list(m) for m in moves], "not_on": not_on}


_ENGINE = _moves([("minstr_per_s", PC), ("op_tail_ms", PC)], SM)
_PROFILE = _moves(
    [("minstr_per_s", PC), ("op_tail_ms", PC), ("minstr_per_s", SE)], SM
)
_SELECT = _moves([("op_p50_ms", SM), ("minstr_per_s", SD)], PC)
_SPLIT = _moves([("op_p50_ms", SM), ("op_tail_ms", SM), ("minstr_per_s", PC)], SD)
_EVAL = _moves([("minstr_per_s", SE), ("op_p50_ms", SE)], PC)
_WRITES = _moves([("minstr_per_s", SE)], SD)
_READS = _moves([("op_p50_ms", SM)], PC)
_SERVING = _moves([("op_tail_ms", SM), ("minstr_per_s", SM)], PC)
_STREAMING = _moves([("minstr_per_s", SD), ("op_tail_ms", SD)], SM)

#: per-layer metric (or ``prefix*``) -> what it should and should not move
MOVES: Dict[str, dict] = {
    "engine.record_s": _ENGINE,
    "engine.record_mrows_per_s": _ENGINE,
    "pipeline.*.record_s": _ENGINE,
    "callloop.profile_s": _PROFILE,
    "callloop.profile_mrows_per_s": _PROFILE,
    "pipeline.*.profile_s": _PROFILE,
    "callloop.select_s": _SELECT,
    "callloop.markers": _SELECT,
    "intervals.split_s": _SPLIT,
    "intervals.intervals": _SPLIT,
    "intervals.bbv_s": _SPLIT,
    "intervals.prescan_ratio": _SPLIT,
    "intervals.metrics_s": _EVAL,
    "intervals.fixed_s": _EVAL,
    "cache.stackdist_s": _EVAL,
    "cache.stackdist_mevents_per_s": _EVAL,
    "perf.branch_s": _EVAL,
    "simpoint.cluster_s": _EVAL,
    "simpoint.kmeans_runs": _EVAL,
    "simpoint.kmeans_iters": _EVAL,
    "runner.graph_store_s": _WRITES,
    "runner.trace_store_s": _WRITES,
    "runner.pool_busy_ratio": _WRITES,
    "runner.graph_load_s": _READS,
    "runner.trace_load_s": _READS,
    "runner.cache_hit_ratio": _READS,
    "serving.compute_ms": _SERVING,
    "serving.overhead_ms": _SERVING,
    "serving.dedup_ratio": _SERVING,
    "serving.batch_mean": _SERVING,
    "loadgen.late_ms": _SERVING,
    "streaming.feed_s": _STREAMING,
    "streaming.reselect_s": _STREAMING,
    "streaming.reselections": _STREAMING,
    "streaming.slots_evicted": _STREAMING,
    # the tracer's own cost: moves no end-to-end metric (those run untraced)
    "telemetry.overhead_ratio": _moves([], PC),
    # a layer's share of the traced wall clock moves whatever that layer moves
    "layer.*": _moves([("minstr_per_s", PC), ("minstr_per_s", SE)], SM),
}


def moves_for(name: str) -> dict:
    if name in MOVES:
        return MOVES[name]
    for pattern, entry in MOVES.items():
        if pattern.endswith("*") and name.startswith(pattern[:-1]):
            return entry
        head, _, tail = pattern.partition("*")
        if tail and name.startswith(head) and name.endswith(tail):
            return entry
    raise KeyError(name)


def _rate(count: float, seconds: float) -> float:
    return count / seconds / 1e6 if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, extras: Dict[str, float], names: List[str]) -> Dict[str, float]:
    """Every metric in *names*; a layer the workload never ran reads 0."""
    s = tracer.name_self_s()
    c = tracer.counts
    m = {
        "engine.record_s": s["engine.record"],
        "engine.record_mrows_per_s": _rate(c["engine.rows"], s["engine.record"]),
        "callloop.profile_s": s["callloop.profile"],
        "callloop.profile_mrows_per_s": _rate(c["callloop.rows"], s["callloop.profile"]),
        "callloop.select_s": s["callloop.select"],
        "callloop.markers": c["callloop.markers"],
        "intervals.split_s": s["intervals.split"],
        "intervals.intervals": c["intervals.intervals"],
        "intervals.bbv_s": s["intervals.bbv"],
        "intervals.prescan_ratio": (
            c["intervals.prescans"] / c["intervals.splits"] if c["intervals.splits"] else 0.0
        ),
        "intervals.metrics_s": s["intervals.metrics"],
        "intervals.fixed_s": s["intervals.fixed"],
        "cache.stackdist_s": s["cache.stackdist"],
        "cache.stackdist_mevents_per_s": _rate(
            c["cache.stackdist_events"], s["cache.stackdist"]
        ),
        "perf.branch_s": s["perf.branch"],
        "simpoint.cluster_s": s["simpoint.cluster"],
        "simpoint.kmeans_runs": c["simpoint.kmeans_runs"],
        "simpoint.kmeans_iters": c["simpoint.kmeans_iters"],
        "runner.graph_load_s": s["runner.graph_load"],
        "runner.graph_store_s": s["runner.graph_store"],
        "runner.trace_load_s": s["runner.trace_load"],
        "runner.trace_store_s": s["runner.trace_store"],
        "runner.cache_hit_ratio": (
            c["runner.graph_hits"] / c["runner.graph_loads"] if c["runner.graph_loads"] else 0.0
        ),
        "runner.pool_busy_ratio": (
            tracer.pool_busy_s / tracer.pool_capacity_s if tracer.pool_capacity_s else 0.0
        ),
        "streaming.feed_s": s["streaming.feed"],
        "streaming.reselect_s": s["streaming.reselect"],
        "streaming.reselections": c["streaming.reselections"],
        "streaming.slots_evicted": c["streaming.slots_evicted"],
    }
    programs = tracer.program_self_s()
    for program in workload_names():
        for span, short in (("engine.record", "record"), ("callloop.profile", "profile")):
            m[f"pipeline.{program}.{short}_s"] = programs.get((program, span), 0.0)
    m.update(tracer.layer_report())
    m.update(extras)
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: float(m.get(name, 0.0)) for name in names}
