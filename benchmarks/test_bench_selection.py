"""Benchmark: the Section 5.1 selection-speed claim, and the profile
acquisition modes of the parallel/cached execution layer.

Selection uses pytest-benchmark's statistics for real: marker selection
over the largest call-loop graph must run in far less than a second
(the paper: "seconds on every call-loop graph we have collected", for
full SPEC profiles).  The profile-modes table records what the
``repro.runner`` layer buys: serial vs parallel vs warm-cache wall
clock for the same set of profiles."""

import time

from conftest import save_table

from repro.callloop import SelectionParams, select_markers
from repro.experiments import selection_time
from repro.experiments.runner import Runner
from repro.runner import ProfileCache
from repro.util.tables import Table


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
