"""Benchmark: the Section 5.1 selection-speed claim, and the profile
acquisition modes of the parallel/cached execution layer.

Selection uses pytest-benchmark's statistics for real: marker selection
over the largest call-loop graph must run in far less than a second
(the paper: "seconds on every call-loop graph we have collected", for
full SPEC profiles).  The profile-modes table records what the
``repro.runner`` layer buys: serial vs parallel vs warm-cache wall
clock for the same set of profiles."""

import json
import time

from conftest import save_table

from perfbench.common import fingerprint
from repro.callloop import SelectionParams, select_markers, select_markers_scalar
from repro.experiments import selection_time
from repro.experiments.runner import Runner
from repro.runner import ProfileCache
from repro.util.tables import Table
from repro.workloads import all_workloads


def test_bench_selection_table(benchmark, runner, results_dir):
    table = benchmark.pedantic(
        lambda: selection_time.run(runner), rounds=1, iterations=1
    )
    save_table(results_dir, "sec51_selection_time", table)
    for spec in ("gcc/166", "galgel/ref"):
        timing = selection_time.measure(runner, spec)
        assert timing.nolimit_seconds < 0.1
        assert timing.limit_seconds < 0.1


def test_bench_selection_speed(benchmark, runner):
    graph = runner.graph("galgel/ref")  # the largest graph in the suite
    params = SelectionParams(ilower=runner.config.ilower)
    result = benchmark(lambda: select_markers(graph, params))
    assert len(result.markers) > 0


def test_bench_perf_selection_speedup(runner, results_dir):
    """Vectorized vs scalar selection over the full 16-workload corpus.

    One "pass" runs both selection passes on every corpus graph.  The
    scalar engine is the faithful pre-vectorization implementation
    (per-edge loops, uncached depth ordering); the vectorized engine is
    the shipping default.  Baseline and after numbers are committed as
    ``BENCH_selection_*.json``; the tentpole target is a >= 3x speedup.
    """
    specs = [w.spec_name for w in all_workloads()]
    graphs = [runner.graph(spec) for spec in specs]
    params = SelectionParams(ilower=runner.config.ilower)

    def run_pass(engine):
        for graph in graphs:
            engine(graph, params)

    def best_of(engine, rounds=5):
        run_pass(engine)  # warm caches / allocator
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            run_pass(engine)
            best = min(best, time.perf_counter() - start)
        return best

    scalar_s = best_of(select_markers_scalar)
    vector_s = best_of(select_markers)
    speedup = scalar_s / vector_s

    # both engines must agree on every corpus graph before the numbers count
    for graph in graphs:
        vec = select_markers(graph, params)
        ref = select_markers_scalar(graph, params)
        assert [m.edge_key for m in vec.markers] == [
            m.edge_key for m in ref.markers
        ]

    common = {
        "benchmark": "selection over 16-workload corpus",
        "workloads": specs,
        "fingerprint": fingerprint(0),
        "unit": "seconds per full-corpus pass (best of 5)",
    }
    (results_dir / "BENCH_selection_baseline.json").write_text(
        json.dumps(
            {**common, "engine": "scalar", "seconds_per_pass": scalar_s},
            indent=2,
        )
        + "\n"
    )
    (results_dir / "BENCH_selection_vectorized.json").write_text(
        json.dumps(
            {
                **common,
                "engine": "vectorized",
                "seconds_per_pass": vector_s,
                "speedup_vs_scalar": speedup,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\nselection: scalar {scalar_s * 1e3:.2f}ms -> "
        f"vectorized {vector_s * 1e3:.2f}ms per pass ({speedup:.1f}x)"
    )
    assert speedup >= 3.0


def test_bench_profile_modes(results_dir, tmp_path):
    """Serial vs parallel vs warm-cache acquisition of the same profiles."""
    pairs = [("gzip/graphic", "ref"), ("vortex/one", "ref"), ("tomcatv/ref", "ref")]
    cache_dir = tmp_path / "profile-cache"

    def timed(mode_runner, jobs):
        start = time.perf_counter()
        profiled = mode_runner.prefetch_graphs(pairs, jobs=jobs)
        return time.perf_counter() - start, profiled

    serial_s, serial_n = timed(Runner(), 1)
    parallel_s, parallel_n = timed(Runner(), 2)
    cold = Runner(cache=ProfileCache(cache_dir))
    cold.prefetch_graphs(pairs, jobs=1)
    warm = Runner(cache=ProfileCache(cache_dir))
    warm_s, warm_n = timed(warm, 1)

    table = Table(
        "Profile acquisition modes (3 workloads)",
        ["mode", "seconds", "profiled", "cache hits"],
        digits=3,
    )
    table.add_row(["serial", serial_s, serial_n, 0])
    table.add_row(["parallel (2 jobs)", parallel_s, parallel_n, 0])
    table.add_row(["warm cache", warm_s, warm_n, warm.cache.hits])
    save_table(results_dir, "profile_modes", table)

    assert serial_n == parallel_n == len(pairs)
    assert warm_n == 0  # every profile served from disk
    assert warm.cache.hits == len(pairs)
    assert warm_s < serial_s  # cache load is far cheaper than re-profiling
