"""End-to-end acceptance tests for the ``repro serve`` service.

Each test runs the real server in-process on an ephemeral port with the
real process-pool backend, mounted on the session-warmed cache/trace
dirs, and speaks actual HTTP to it.
"""

import asyncio
import json

import pytest

from repro.serving import (
    AsyncServeClient,
    PhaseMarkerServer,
    Query,
    ServeClientError,
    compute_payload,
)

from .conftest import WORKLOAD


def run_with_server(coro_fn, serving_dirs):
    """asyncio.run a test body with a started server; always drains."""
    cache_dir, trace_root = serving_dirs

    async def main():
        server = PhaseMarkerServer(
            port=0,
            jobs=2,
            cache_dir=cache_dir,
            trace_root=trace_root,
        )
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.shutdown()

    return asyncio.run(main())


def test_e2e_roundtrip_matches_batch_computation(serving_dirs):
    query = Query(kind="markers", workload=WORKLOAD)

    async def body(server):
        client = AsyncServeClient(server.host, server.port)
        try:
            served = await client.query(query)
            health = json.loads(
                await client.request("GET", "/healthz")
            )
            stats = json.loads(await client.request("GET", "/stats"))
        finally:
            await client.close()
        return served, health, stats

    served, health, stats = run_with_server(body, serving_dirs)
    # the acceptance contract: served bytes == batch-path bytes
    assert served == compute_payload(query)
    assert health["status"] == "ok"
    assert health["jobs"] == 2
    assert stats["requests"] >= 1
    assert stats["by_kind"] == {"markers": 1}
    assert stats["errors"] == 0


def test_all_kinds_round_trip(serving_dirs):
    from repro.runner.cache import ProfileCache
    from repro.runner.traces import TraceStore

    cache_dir, trace_root = serving_dirs
    queries = [
        Query(kind=k, workload=WORKLOAD)
        for k in ("profile", "markers", "bbv", "stream")
    ] + [Query(kind="stream", workload=WORKLOAD, window=4)]

    async def body(server):
        client = AsyncServeClient(server.host, server.port)
        try:
            return [await client.query(q) for q in queries]
        finally:
            await client.close()

    served = run_with_server(body, serving_dirs)
    cache, store = ProfileCache(cache_dir), TraceStore(trace_root)
    for query, payload in zip(queries, served):
        assert payload == compute_payload(query, cache=cache, trace_store=store)


def test_concurrent_clients_share_one_computation(serving_dirs):
    """N clients x the same query -> one pool job, identical payloads."""
    query = Query(kind="markers", workload=WORKLOAD)
    n = 8

    async def body(server):
        clients = [AsyncServeClient(server.host, server.port) for _ in range(n)]
        try:
            payloads = await asyncio.gather(*(c.query(query) for c in clients))
            stats = json.loads(await clients[0].request("GET", "/stats"))
        finally:
            for c in clients:
                await c.close()
        return payloads, stats

    # the duplicates land while the first query is in flight (pool
    # fork plus compute), so they share its computation
    payloads, stats = run_with_server(body, serving_dirs)
    assert len(set(payloads)) == 1
    assert payloads[0] == compute_payload(query)
    batcher = stats["batcher"]
    assert batcher["submitted"] == n
    assert batcher["computed"] == 1
    assert batcher["deduplicated"] == n - 1


def test_malformed_requests_get_4xx_not_crashes(serving_dirs):
    async def body(server):
        client = AsyncServeClient(server.host, server.port)
        errors = {}
        try:
            for name, (method, path, payload) in {
                "bad_json": ("POST", "/v1/query", b"{nope"),
                "unknown_field": (
                    "POST",
                    "/v1/query",
                    json.dumps({"kind": "markers", "workload": WORKLOAD, "x": 1}).encode(),
                ),
                "unknown_workload": (
                    "POST",
                    "/v1/query",
                    json.dumps({"kind": "markers", "workload": "nope"}).encode(),
                ),
                "no_route": ("GET", "/nope", b""),
                "wrong_method": ("GET", "/v1/query", b""),
            }.items():
                try:
                    await client.request(method, path, payload)
                except ServeClientError as exc:
                    errors[name] = exc.status
            # the connection and server survive all of the above
            health = json.loads(await client.request("GET", "/healthz"))
        finally:
            await client.close()
        return errors, health

    errors, health = run_with_server(body, serving_dirs)
    assert errors == {
        "bad_json": 400,
        "unknown_field": 400,
        "unknown_workload": 400,
        "no_route": 404,
        "wrong_method": 405,
    }
    assert health["status"] == "ok"


def test_graceful_shutdown_drains_inflight_requests(serving_dirs, tmp_path):
    """A request in flight when shutdown starts is still answered."""
    # fresh stores: the query must actually be slow (cold profile)
    query = Query(kind="markers", workload="swim")

    async def main():
        server = PhaseMarkerServer(
            port=0,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            trace_root=str(tmp_path / "traces"),
        )
        await server.start()
        client = AsyncServeClient(server.host, server.port)
        try:
            pending = asyncio.create_task(client.query(query))
            await asyncio.sleep(0.05)  # the query is now in the pool
            assert not pending.done()
            await server.shutdown(drain=True)
            return await pending, server.stats.errors
        finally:
            await client.close()

    served, errors = asyncio.run(main())
    assert served == compute_payload(query)
    assert errors == 0


def test_shutdown_endpoint_starts_drain(serving_dirs):
    async def main():
        cache_dir, trace_root = serving_dirs
        server = PhaseMarkerServer(
            port=0, jobs=1, cache_dir=cache_dir, trace_root=trace_root
        )
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        client = AsyncServeClient(server.host, server.port)
        try:
            reply = json.loads(await client.request("POST", "/v1/shutdown"))
        finally:
            await client.close()
        await asyncio.wait_for(serve_task, timeout=30)
        return reply

    reply = asyncio.run(main())
    assert reply == {"status": "draining"}


def test_server_telemetry_records_request_spans(serving_dirs):
    from repro import telemetry

    query = Query(kind="markers", workload=WORKLOAD)
    tm = telemetry.enable_telemetry()
    try:

        async def body(server):
            client = AsyncServeClient(server.host, server.port)
            try:
                await client.query(query)
                await client.request("GET", "/healthz")
            finally:
                await client.close()

        run_with_server(body, serving_dirs)
    finally:
        telemetry.disable_telemetry()
    names = [s.name for s in tm.spans]
    assert names.count("serve.request") == 2
    # the worker's serve.compute span was merged into the session
    assert "serve.compute" in names
    assert tm.metrics.counters["serve.requests"] == 2
    assert "serve" in tm.lane_labels.values()
