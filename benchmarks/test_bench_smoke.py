"""Smoke benchmark: one small experiment through the parallel, cached path.

This is what ``make bench-smoke`` runs (``pytest benchmarks -q -k smoke``):
Figure 7 over two workloads, three ways — serial, parallel with 2 jobs,
and warm-cache — asserting the headline guarantees of the execution
layer: parallel output is byte-identical to serial, and a warm-cache
re-run skips profiling entirely.

The parallel leg runs under a telemetry session with the background
sampler on, and exports the stitched multi-lane Chrome trace plus the
metrics time series into ``benchmarks/results/`` — CI uploads both as
artifacts, so every run leaves an inspectable timeline behind.
"""

import time

from conftest import save_table

from repro.experiments import fig7
from repro.experiments.runner import Runner
from repro.runner import ProfileCache
from repro.telemetry import (
    MetricsSampler,
    telemetry_session,
    write_jsonl,
    write_series_jsonl,
)
from repro.util.tables import Table

SPECS = ["gzip/graphic", "vortex/one"]
PAIRS = [(spec, which) for spec in SPECS for which in ("ref", "train")]


def test_bench_smoke_parallel_cached_experiment(results_dir, tmp_path):
    cache_dir = tmp_path / "profile-cache"

    start = time.perf_counter()
    serial = Runner()
    serial_table = fig7.run(serial, specs=SPECS).render()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with telemetry_session() as tm:
        with MetricsSampler(tm, interval_s=0.02) as sampler:
            parallel = Runner(cache=ProfileCache(cache_dir), jobs=2)
            parallel.prefetch_graphs(PAIRS)
            parallel_table = fig7.run(parallel, specs=SPECS).render()
    parallel_s = time.perf_counter() - start
    # the stitched trace and metrics series ride along as CI artifacts
    write_jsonl(tm, results_dir / "smoke_trace.jsonl")
    write_series_jsonl(
        sampler.samples(),
        results_dir / "smoke_series.jsonl",
        run_id=tm.run_id,
        interval_s=sampler.interval_s,
        dropped=sampler.dropped,
    )
    assert any(
        label.startswith("worker ") for label in tm.lane_labels.values()
    ), "parallel smoke run should stitch worker lanes into the trace"

    start = time.perf_counter()
    warm = Runner(cache=ProfileCache(cache_dir))
    warm.prefetch_graphs(PAIRS)
    warm_table = fig7.run(warm, specs=SPECS).render()
    warm_s = time.perf_counter() - start

    # the guarantees: identical output, zero profiler passes when warm
    assert parallel_table == serial_table
    assert warm_table == serial_table
    summary = warm.run_summary().render()
    assert f"{len(PAIRS)} cache hits / 0 misses" in summary
    assert warm.cache.hits == len(PAIRS)
    assert warm.cache.misses == 0

    table = Table(
        f"Smoke: fig7 over {SPECS} — serial vs parallel vs warm cache",
        ["mode", "wall seconds", "graphs profiled", "cache hits"],
        digits=2,
    )
    table.add_row(["serial", serial_s, len(PAIRS), 0])
    table.add_row(["parallel (2 jobs)", parallel_s, len(PAIRS), 0])
    table.add_row(["warm cache", warm_s, 0, warm.cache.hits])
    save_table(results_dir, "smoke_parallel_cache", table)
    print(summary)
