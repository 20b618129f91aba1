"""Substrate throughput benchmarks (multi-round, statistical).

Unlike the figure benchmarks (one-shot table regenerations), these
measure the hot paths of the library itself — useful when tuning the
profiler or cache simulator.
"""

import pytest

from repro.callloop import CallLoopProfiler
from repro.callloop.graph import NodeTable
from repro.cache.stackdist import MultiAssocCacheSim
from repro.engine import Trace
from repro.intervals import split_at_markers, split_fixed
from repro.intervals.bbv import collect_bbvs

SPEC = "vortex/one"


@pytest.fixture(scope="module")
def prepared(runner):
    program = runner.program(SPEC)
    trace = runner.trace(SPEC)
    markers = runner.markers(SPEC, "nolimit-self")
    memory = runner.memory(SPEC)
    return program, trace, markers, memory


def test_bench_profiler_throughput(benchmark, prepared):
    program, trace, _, _ = prepared

    def profile():
        # a bare copy each round, so every round builds the span index
        bare = Trace(trace.ids, trace.table)
        return CallLoopProfiler(program).profile_trace(bare)

    graph = benchmark(profile)
    rate = trace.total_instructions / benchmark.stats["mean"]
    print(f"\nprofiler: {rate / 1e6:.1f}M instructions/s")
    assert graph.total_instructions == trace.total_instructions


def test_bench_profile_cache_roundtrip(benchmark, runner, tmp_path):
    """Store + load one profile through the on-disk cache.

    This is the warm-cache fast path; compare its mean against
    ``test_bench_profiler_throughput`` to see what a cache hit saves
    (a JSON load vs a full trace walk)."""
    import json

    from repro.callloop.serialization import graph_to_dict
    from repro.runner import ProfileCache

    graph = runner.graph(SPEC)
    cache = ProfileCache(tmp_path / "cache")
    key = cache.graph_key(SPEC, "ref", runner.input_for(SPEC, "ref"))

    def roundtrip():
        cache.store_graph(key, graph)
        return cache.load_graph(key)

    loaded = benchmark(roundtrip)
    assert json.dumps(graph_to_dict(loaded), sort_keys=True) == json.dumps(
        graph_to_dict(graph), sort_keys=True
    )


def test_bench_vli_split_throughput(benchmark, prepared):
    program, trace, markers, _ = prepared
    intervals = benchmark(lambda: split_at_markers(program, trace, markers))
    intervals.check_partition(trace.total_instructions)


def test_bench_fixed_split_and_bbv(benchmark, prepared):
    program, trace, _, _ = prepared

    def run():
        intervals = split_fixed(trace, 10_000, program.name)
        collect_bbvs(intervals, trace, program.num_blocks)
        return intervals

    intervals = benchmark(run)
    assert len(intervals) > 10


def test_bench_cache_sim_throughput(benchmark, prepared):
    _, trace, _, memory = prepared
    memory.reset()
    addresses = memory.addresses_for_blocks(trace.block_ids()[:100_000])

    def simulate():
        sim = MultiAssocCacheSim(num_sets=512, line_bytes=64, max_ways=8)
        sim.access_many(addresses)
        return sim

    sim = benchmark(simulate)
    rate = len(addresses) / benchmark.stats["mean"]
    print(f"\ncache sim: {rate / 1e6:.2f}M accesses/s (all 8 ways at once)")
    assert sim.accesses == len(addresses)
