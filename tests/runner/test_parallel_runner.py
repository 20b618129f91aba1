"""Integration tests: Runner + prefetch + cache, parallel vs serial.

The headline guarantees: a parallel run produces results identical to a
serial run, and a warm-cache re-run of a figure experiment skips
profiling entirely (observable through the run-summary counters).
"""

import json

from repro.callloop.serialization import graph_to_dict
from repro.experiments import fig3
from repro.experiments.runner import Runner
from repro.runner import ProfileCache

SPECS = [("vortex/one", "ref"), ("tomcatv/ref", "ref")]


def graph_doc(graph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True)


def test_parallel_prefetch_equals_serial_graphs():
    serial = Runner()
    serial_docs = {pair: graph_doc(serial.graph(*pair)) for pair in SPECS}

    parallel = Runner(jobs=2)
    profiled = parallel.prefetch_graphs(SPECS)
    assert profiled == len(SPECS)
    for pair in SPECS:
        assert graph_doc(parallel.graph(*pair)) == serial_docs[pair]
    assert {a[2] for a in parallel.acquisitions} == {"worker"}


def test_prefetch_skips_memoized_and_cached(tmp_path):
    runner = Runner(cache=ProfileCache(tmp_path))
    runner.graph(*SPECS[0])
    assert runner.prefetch_graphs([SPECS[0]]) == 0  # memoized in-process

    fresh = Runner(cache=ProfileCache(tmp_path))
    assert fresh.prefetch_graphs([SPECS[0]]) == 0  # served from disk
    assert fresh.cache.hits == 1
    assert fresh.acquisitions[0][2] == "cache"


def test_prefetch_deduplicates_pairs():
    runner = Runner()
    assert runner.prefetch_graphs([SPECS[0], SPECS[0]], jobs=1) == 1


def test_warm_cache_figure_experiment_skips_profiling(tmp_path):
    """The acceptance check: a warm re-run of fig3 is all cache hits."""
    cold = Runner(cache=ProfileCache(tmp_path))
    cold_table = fig3.run(cold).render()
    assert "profiled" in {a[2] for a in cold.acquisitions}
    assert cold.cache.stores >= 1

    warm = Runner(cache=ProfileCache(tmp_path))
    warm_table = fig3.run(warm).render()
    assert warm_table == cold_table  # byte-identical figure output
    assert {a[2] for a in warm.acquisitions} == {"cache"}  # zero profiler passes
    assert warm.cache.hits >= 1
    assert warm.cache.misses == 0

    summary = warm.run_summary().render()
    assert "cache" in summary
    assert "0 misses" in summary


def test_run_summary_lists_every_acquisition():
    runner = Runner()
    runner.prefetch_graphs(SPECS, jobs=1)
    table = runner.run_summary()
    rendered = table.render()
    assert "vortex" in rendered
    assert "tomcatv" in rendered
    assert f"total ({len(SPECS)})" in rendered
    assert [a[2] for a in runner.acquisitions] == ["profiled"] * len(SPECS)
    assert sum(a[3] for a in runner.acquisitions) > 0
