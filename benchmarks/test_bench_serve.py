"""Serving benchmark: ``repro serve`` under the MLPerf-style loadgen.

``make bench-serve`` boots the real server in-process (process-pool
backend, warm shared cache/trace stores) and drives both loadgen
scenarios against it:

* **Server** — open-loop Poisson arrivals at ``TARGET_QPS`` with
  ``--check``-style byte verification of every response.  Gates: zero
  errors, zero byte mismatches, achieved QPS >= 90% of target.
* **SingleStream** — closed loop, one outstanding query; pins the
  best-case round-trip latency.

Numbers land in ``benchmarks/results/BENCH_serve_server.json`` and
``BENCH_serve_singlestream.json`` only once both scenarios pass their
gates; a stitched telemetry trace of the Server run (request spans on
the serve lane + merged worker compute spans) is exported to
``BENCH_serve_trace.jsonl`` for the CI artifact.

``test_bench_serve_smoke_regression`` is the CI guard: a short Server
run that fails if achieved QPS drops below 90% of the committed
baseline's target or p99 latency grows past 2.5x the committed p99
(latency gates are generous — shared CI runners are noisy; the QPS gate
is the hard one).  It warms the pool first, one query per worker, so
its p99 (about the maximum of ~34 queries) is not the first request
waiting for the workers to fork.
"""

import asyncio
import json
from pathlib import Path

import pytest

from perfbench.common import fingerprint
from repro.serving import (
    LoadGenSettings,
    PhaseMarkerServer,
    Query,
    expected_payloads,
)

RESULTS = Path(__file__).parent / "results"

WORKLOADS = ("compress95", "tomcatv")
TARGET_QPS = 60.0
SEED = 0


def bench_queries():
    return [
        Query(kind=kind, workload=workload)
        for workload in WORKLOADS
        for kind in ("markers", "profile")
    ]


@pytest.fixture(scope="module")
def serve_dirs(tmp_path_factory):
    """Warm shared stores: the bench measures serving, not cold profiling."""
    root = tmp_path_factory.mktemp("bench-serve")
    cache_dir, trace_root = str(root / "cache"), str(root / "traces")
    expected = expected_payloads(
        bench_queries(), cache_dir=cache_dir, trace_root=trace_root
    )
    return cache_dir, trace_root, expected


async def _warm(server):
    """One distinct query per pool worker, concurrently, so every
    worker is forked and has answered before the load starts."""
    from repro.serving import AsyncServeClient

    clients = [AsyncServeClient(server.host, server.port) for _ in range(server.jobs)]
    try:
        await asyncio.gather(
            *(c.query(q) for c, q in zip(clients, bench_queries()))
        )
    finally:
        for client in clients:
            await client.close()


def _run_scenario(serve_dirs, settings, check=True, telemetry_to=None, warm=False):
    from repro import telemetry

    cache_dir, trace_root, expected = serve_dirs

    async def main():
        server = PhaseMarkerServer(
            port=0, jobs=2, cache_dir=cache_dir, trace_root=trace_root
        )
        await server.start()
        try:
            if warm:
                await _warm(server)
            from repro.serving import run_loadgen_async

            return await run_loadgen_async(
                server.host,
                server.port,
                bench_queries(),
                settings,
                expected=expected if check else None,
            )
        finally:
            await server.shutdown()

    if telemetry_to is None:
        return asyncio.run(main())
    tm = telemetry.enable_telemetry()
    try:
        summary = asyncio.run(main())
    finally:
        telemetry.disable_telemetry()
    from repro.telemetry import write_jsonl

    write_jsonl(tm, telemetry_to)
    return summary


def test_bench_serve_scenarios(serve_dirs, results_dir):
    server_settings = LoadGenSettings(
        scenario="server",
        target_qps=TARGET_QPS,
        max_async_queries=32,
        min_duration_s=2.0,
        max_duration_s=20.0,
        min_queries=100,
        seed=SEED,
    )
    single_settings = LoadGenSettings(
        scenario="singlestream",
        target_qps=TARGET_QPS,  # unused by the closed loop; kept for the record
        min_duration_s=1.0,
        max_duration_s=20.0,
        min_queries=50,
        seed=SEED,
    )

    trace_path = results_dir / "BENCH_serve_trace.jsonl"
    server_summary = _run_scenario(
        serve_dirs, server_settings, telemetry_to=trace_path
    )
    single_summary = _run_scenario(serve_dirs, single_settings)
    summaries = (("server", server_summary), ("singlestream", single_summary))
    for _name, summary in summaries:
        print()
        print(summary.render())

    # the acceptance gates: byte-perfect answers at (>= 90% of) target
    # rate; only a passing run rewrites the committed baseline
    assert server_summary.errors == 0
    assert server_summary.check_mismatches == 0
    assert server_summary.achieved_qps >= 0.9 * TARGET_QPS
    assert single_summary.errors == 0
    assert single_summary.check_mismatches == 0
    assert trace_path.exists()

    for name, summary in summaries:
        doc = {
            "benchmark": (
                "repro serve (2 pool workers, warm cache) under "
                f"loadgen {name} scenario, seed {SEED}"
            ),
            "queries": [q.label() for q in bench_queries()],
            "fingerprint": fingerprint(SEED),
            **summary.as_dict(),
        }
        (results_dir / f"BENCH_serve_{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        (results_dir / f"serve_{name}.txt").write_text(
            summary.render() + "\n"
        )


def test_bench_serve_smoke_regression(serve_dirs):
    """Short Server run gated on the committed baseline (the CI job)."""
    baseline_path = RESULTS / "BENCH_serve_server.json"
    if not baseline_path.exists():
        pytest.skip(
            "no committed serve baseline; run `make bench-serve` first"
        )
    committed = json.loads(baseline_path.read_text())

    settings = LoadGenSettings(
        scenario="server",
        target_qps=committed["target_qps"],
        max_async_queries=32,
        min_duration_s=0.5,
        max_duration_s=10.0,
        min_queries=30,
        seed=SEED,
    )
    summary = _run_scenario(serve_dirs, settings, warm=True)
    qps_floor = 0.9 * committed["target_qps"]
    p99_ceiling = 2.5 * committed["latency_ms"]["p99"]
    print(
        f"\nserve smoke: {summary.achieved_qps:.1f} QPS "
        f"(floor {qps_floor:.1f}), p99 {summary.p99_ms:.2f} ms "
        f"(ceiling {p99_ceiling:.2f})"
    )
    assert summary.errors == 0
    assert summary.check_mismatches == 0
    assert summary.achieved_qps >= qps_floor, (
        f"serve throughput regressed: {summary.achieved_qps:.1f} QPS vs "
        f"floor {qps_floor:.1f}"
    )
    assert summary.p99_ms <= p99_ceiling, (
        f"serve p99 regressed: {summary.p99_ms:.2f} ms vs committed "
        f"{committed['latency_ms']['p99']:.2f} ms (ceiling {p99_ceiling:.2f})"
    )
