"""Store faults under a warm pool worker.

A ``repro serve`` pool worker keeps the graph it decoded and the trace
it mapped, and reuses them while their store entries report the same
identity.  Each test breaks one entry behind the worker's back — the
trace's row ids truncated in place, the trace entry deleted, the
profile-cache JSON overwritten with garbage — and checks that the next
queries still answer with the bytes of fresh stores, in bounded time,
with no 5xx.
The server runs one pool worker in a child process, so a stale mapping
that is read after truncation kills that worker, not the test run.
"""

import asyncio
import json
import os
import shutil

import pytest

from repro.runner.cache import ProfileCache
from repro.runner.traces import TraceStore
from repro.serving import AsyncServeClient, PhaseMarkerServer, Query, compute_payload
from repro.telemetry import telemetry_session
from repro.workloads import get_workload

WORKLOAD = "compress95"
QUERY = Query(kind="bbv", workload=WORKLOAD)
#: seconds any one answer may take; a re-record, re-profile and re-spill
#: of compress95 takes well under one
ANSWER_BOUND_S = 30.0


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    root = tmp_path_factory.mktemp("fresh")
    cache, store = ProfileCache(root / "cache"), TraceStore(root / "traces")
    return compute_payload(QUERY, cache, store)


def _program_input():
    return get_workload(WORKLOAD).input_for("ref")


def _trace_entry(trace_root):
    store = TraceStore(trace_root)
    return store.path_for(store.trace_key(WORKLOAD, "ref", _program_input()))


def _truncate_column(cache_dir, trace_root):
    column = _trace_entry(trace_root) / "ids.npy"
    os.truncate(column, column.stat().st_size // 2)


def _delete_trace_entry(cache_dir, trace_root):
    shutil.rmtree(_trace_entry(trace_root))


def _garble_graph(cache_dir, trace_root):
    cache = ProfileCache(cache_dir)
    cache.path_for(cache.graph_key(WORKLOAD, "ref", _program_input())).write_text(
        "garbage"
    )


@pytest.mark.parametrize(
    "fault, reloaded",
    [
        (_truncate_column, "trace"),
        (_delete_trace_entry, "trace"),
        (_garble_graph, "graph"),
    ],
)
def test_a_broken_entry_is_reloaded_not_reused(tmp_path, expected, fault, reloaded):
    cache_dir, trace_root = str(tmp_path / "cache"), str(tmp_path / "traces")
    # warm stores: the worker's first query loads both entries and keeps them
    compute_payload(QUERY, ProfileCache(cache_dir), TraceStore(trace_root))

    async def main():
        server = PhaseMarkerServer(
            port=0, jobs=1, cache_dir=cache_dir, trace_root=trace_root
        )
        await server.start()
        client = AsyncServeClient(server.host, server.port)
        try:
            answers = [await asyncio.wait_for(client.query(QUERY), ANSWER_BOUND_S)]
            fault(cache_dir, trace_root)
            for _ in range(2):
                answers.append(
                    await asyncio.wait_for(client.query(QUERY), ANSWER_BOUND_S)
                )
            stats = json.loads(await client.request("GET", "/stats"))
        finally:
            await client.close()
            await server.shutdown()
        return answers, stats

    with telemetry_session() as tm:
        answers, stats = asyncio.run(main())
    assert answers == [expected] * 3
    assert not any(status.startswith("5") for status in stats["by_status"])
    assert stats["errors"] == 0
    counters = tm.metrics.counters
    assert counters[f"serve.worker.reloaded.{reloaded}"] == 1
    # the untouched entry stayed kept through the fault
    untouched = "graph" if reloaded == "trace" else "trace"
    assert counters[f"serve.worker.kept.{untouched}"] == 2
    assert counters["serve.worker.kept.program"] == 2
