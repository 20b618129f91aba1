"""Substrate throughput benchmarks (multi-round, statistical).

Unlike the figure benchmarks (one-shot table regenerations), these
measure the hot paths of the library itself — useful when tuning the
profiler or cache simulator.
"""

import json
import time

import pytest

from perfbench.common import fingerprint
from repro.callloop import CallLoopProfiler
from repro.callloop.graph import NodeTable
from repro.cache.stackdist import MultiAssocCacheSim
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
        return CallLoopProfiler(program).profile_trace(trace)

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


def test_bench_perf_kernel_throughput(results_dir):
    """Vectorized vs scalar selection on one synthetic many-edge graph.

    The corpus graphs top out at a few hundred edges; this layered
    synthetic graph (~4k edges) shows the kernels' headroom where the
    per-edge Python loop cost dominates.  Results are committed as
    ``BENCH_throughput.json``."""
    import numpy as np

    from repro.callloop import SelectionParams, select_markers, select_markers_scalar
    from repro.callloop.graph import CallLoopGraph, Node, NodeKind, ROOT
    from repro.callloop.stats import RunningStats

    rng = np.random.default_rng(1234)
    graph = CallLoopGraph("synthetic")
    layers = [
        [
            Node(NodeKind.PROC_HEAD, f"l{d}_p{i}", label=f"l{d}_p{i}")
            for i in range(40)
        ]
        for d in range(8)
    ]
    for node in layers[0]:
        graph.edge(ROOT, node).stats = RunningStats(
            count=1, mean=1e7, m2=0.0, max_value=1e7
        )
    for depth in range(len(layers) - 1):
        for src in layers[depth]:
            for dst in rng.choice(layers[depth + 1], size=13, replace=False):
                # log-uniform interval sizes: with ilower=60k only a few
                # percent of edges are candidates, so the benchmark
                # measures the pass filters, not marker materialization
                mean = float(10.0 ** rng.uniform(2.0, 5.0))
                count = int(rng.integers(2, 50))
                graph.edge(src, dst).stats = RunningStats(
                    count=count,
                    mean=mean,
                    m2=float(rng.uniform(0, 0.2)) * mean * mean * count,
                    max_value=mean * 2,
                )
    params = SelectionParams(ilower=60_000)

    def best_of(engine, rounds=5):
        engine(graph, params)  # warm caches / allocator
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            engine(graph, params)
            best = min(best, time.perf_counter() - start)
        return best

    scalar_s = best_of(select_markers_scalar)
    vector_s = best_of(select_markers)
    speedup = scalar_s / vector_s

    vec = select_markers(graph, params)
    ref = select_markers_scalar(graph, params)
    assert [m.edge_key for m in vec.markers] == [m.edge_key for m in ref.markers]

    (results_dir / "BENCH_throughput.json").write_text(
        json.dumps(
            {
                "benchmark": "selection on synthetic graph",
                "num_edges": graph.num_edges,
                "fingerprint": fingerprint(0),
                "unit": "seconds per selection (best of 5)",
                "scalar_seconds": scalar_s,
                "vectorized_seconds": vector_s,
                "speedup_vs_scalar": speedup,
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\nkernels ({graph.num_edges} edges): scalar {scalar_s * 1e3:.2f}ms -> "
        f"vectorized {vector_s * 1e3:.2f}ms ({speedup:.1f}x)"
    )
    assert speedup >= 3.0


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
