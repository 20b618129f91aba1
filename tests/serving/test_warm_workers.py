"""Warm pool workers: what ``run_query_job`` keeps across queries.

A worker keeps the program per workload, the graph decoded per
profile-cache entry and the mapped trace per trace-store entry, and
recomputes every product.  Reusing them must never change a byte: no
consumer may mutate a kept program, graph or trace.  Inline computations
(``compute_payload``, ``repro query``, the loadgen's expected payloads)
keep nothing.
"""

from collections import Counter

import pytest

from repro.runner.cache import ProfileCache
from repro.runner.traces import TraceStore
from repro.serving import QUERY_KINDS, Query, QueryJob, compute_payload, run_query_job
from repro.serving.queries import WORKER_STATE
from repro.telemetry import telemetry_session

WORKLOADS = ("compress95", "tomcatv")
TRACE_KINDS = ("bbv", "vli", "phases", "stream")


def _queries():
    """Every kind on both workloads, the workloads interleaved."""
    return [Query(kind=kind, workload=w) for kind in QUERY_KINDS for w in WORKLOADS]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Each query's payload computed inline on stores no worker touched."""
    root = tmp_path_factory.mktemp("fresh")
    cache, store = ProfileCache(root / "cache"), TraceStore(root / "traces")
    return {q.key(): compute_payload(q, cache, store) for q in _queries()}


def _counters(result):
    return result.telemetry["metrics"]["counters"]


def test_kept_entries_answer_byte_identically(tmp_path, fresh):
    cache_dir, trace_root = str(tmp_path / "cache"), str(tmp_path / "traces")
    for round_ in range(2):
        for query in _queries():
            result = run_query_job(QueryJob(query, cache_dir, trace_root))
            assert result.payload == fresh[query.key()], (round_, query.label())
            if round_ == 1:
                counters = _counters(result)
                assert counters["serve.worker.kept.program"] == 1
                assert counters["serve.worker.kept.graph"] == 1
                assert counters.get("serve.worker.kept.trace", 0) == (
                    query.kind in TRACE_KINDS
                )
                assert not any(k.startswith("serve.worker.reloaded") for k in counters)
    assert len(WORKER_STATE.programs) == len(WORKLOADS)
    roots = Counter(root for root, _ in WORKER_STATE.entries)
    assert roots == {cache_dir: len(WORKLOADS), trace_root: len(WORKLOADS)}


def test_a_replaced_entry_is_reloaded(tmp_path, fresh):
    """A kept trace whose entry was re-spilled (new inodes) is dropped
    and the new entry mapped; the bytes do not change."""
    cache_dir, trace_root = str(tmp_path / "cache"), str(tmp_path / "traces")
    query = Query(kind="vli", workload=WORKLOADS[0])
    job = QueryJob(query, cache_dir, trace_root)
    run_query_job(job)
    run_query_job(job)  # the entries exist now: this load is kept
    assert _counters(run_query_job(job))["serve.worker.kept.trace"] == 1
    TraceStore(trace_root).clear()
    compute_payload(query, ProfileCache(cache_dir), TraceStore(trace_root))
    result = run_query_job(job)
    assert result.payload == fresh[query.key()]
    counters = _counters(result)
    assert counters["serve.worker.reloaded.trace"] == 1
    assert "serve.worker.kept.trace" not in counters
    assert _counters(run_query_job(job))["serve.worker.kept.trace"] == 1


def test_inline_computation_keeps_nothing(serving_dirs):
    cache_dir, trace_root = serving_dirs
    cache, store = ProfileCache(cache_dir), TraceStore(trace_root)
    with telemetry_session() as tm:
        for _ in range(2):
            for kind in QUERY_KINDS:
                query = Query(kind=kind, workload=WORKLOADS[0])
                compute_payload(query, cache, store)
    assert not WORKER_STATE.programs and not WORKER_STATE.entries
    counters = tm.snapshot()["metrics"]["counters"]
    assert not [name for name in counters if name.startswith("serve.worker.")]
