"""Tests for the content-addressed profile cache.

Covers the ISSUE's cache contract: miss-then-store on a cold run, exact
hits on a warm run, key invalidation when any configuration input
changes, and graceful fallback to re-profiling when an entry is
corrupted on disk.
"""

import json

from repro.callloop.serialization import graph_to_dict
from repro.experiments.runner import Runner
from repro.ir.program import ProgramInput
from repro.runner import ProfileCache
from repro.runner import cache as cache_module

SPEC = "vortex/one"


def graph_doc(graph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True)


def test_cold_run_misses_and_stores(tmp_path):
    cache = ProfileCache(tmp_path)
    runner = Runner(cache=cache)
    graph = runner.graph(SPEC)
    assert cache.misses == 1
    assert cache.hits == 0
    assert cache.stores == 1
    key = cache.graph_key(SPEC, "ref", runner.input_for(SPEC, "ref"))
    assert cache.path_for(key).exists()
    assert runner.acquisitions[0][2] == "profiled"
    assert graph.total_instructions > 0


def test_warm_run_hits_with_identical_graph(tmp_path):
    cold = Runner(cache=ProfileCache(tmp_path))
    original = cold.graph(SPEC)

    warm_cache = ProfileCache(tmp_path)
    warm = Runner(cache=warm_cache)
    loaded = warm.graph(SPEC)
    assert warm_cache.hits == 1
    assert warm_cache.misses == 0
    assert graph_doc(loaded) == graph_doc(original)
    assert [a[2] for a in warm.acquisitions] == ["cache"]


def test_memoized_graph_not_reloaded(tmp_path):
    cache = ProfileCache(tmp_path)
    runner = Runner(cache=cache)
    assert runner.graph(SPEC) is runner.graph(SPEC)
    assert cache.misses == 1  # second call is in-process memoization


def test_key_is_deterministic_and_config_sensitive(tmp_path):
    cache = ProfileCache(tmp_path)
    base = ProgramInput("one", {"scale": 2.0}, seed=7)
    key = cache.graph_key("vortex", "ref", base)
    assert key == cache.graph_key("vortex", "ref", base)
    # every fingerprint field invalidates the key
    assert key != cache.graph_key("vortex/one", "ref", base)  # variant label
    assert key != cache.graph_key("gzip", "ref", base)
    assert key != cache.graph_key("vortex", "train", base)
    assert key != cache.graph_key("vortex", "ref", base.with_seed(8))
    assert key != cache.graph_key(
        "vortex", "ref", ProgramInput("one", {"scale": 3.0}, seed=7)
    )
    assert key != cache.graph_key(
        "vortex", "ref", base, extra={"max_instructions": 100}
    )


def test_key_distinguishes_workload_variants(tmp_path):
    """``name/input`` spec labels must not collapse onto the bare name
    (the old key truncated at the first ``/``, aliasing every variant)."""
    cache = ProfileCache(tmp_path)
    base = ProgramInput("one", seed=7)
    keys = {
        cache.graph_key(spec, "ref", base)
        for spec in ("vortex", "vortex/one", "vortex/two", "vortex/one/extra")
    }
    assert len(keys) == 4


def test_key_preserves_param_types(tmp_path):
    """1, 1.0, True and "1" are different configurations, not one key
    (the old key coerced every value through float())."""
    cache = ProfileCache(tmp_path)
    keys = {
        cache.graph_key(
            "vortex", "ref", ProgramInput("one", {"scale": v}, seed=7)
        )
        for v in (1, 1.0, True, "1", "true")
    }
    assert len(keys) == 5


def test_key_accepts_non_numeric_params(tmp_path):
    """String/list/None parameter values must hash, not raise."""
    cache = ProfileCache(tmp_path)
    params = {"mode": "fast", "stages": [1, 2], "limit": None}
    base = ProgramInput("one", params, seed=7)
    key = cache.graph_key("vortex", "ref", base)
    assert key == cache.graph_key("vortex", "ref", base)
    assert key != cache.graph_key(
        "vortex", "ref", ProgramInput("one", {**params, "mode": "slow"}, seed=7)
    )


def test_code_version_change_invalidates(tmp_path, monkeypatch):
    cache = ProfileCache(tmp_path)
    program_input = ProgramInput("one", seed=7)
    before = cache.graph_key("vortex", "ref", program_input)
    monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 999)
    assert cache.graph_key("vortex", "ref", program_input) != before


def test_corrupted_entry_falls_back_to_reprofile(tmp_path):
    cold = Runner(cache=ProfileCache(tmp_path))
    original = cold.graph(SPEC)

    cache = ProfileCache(tmp_path)
    key = cache.graph_key(SPEC, "ref", cold.input_for(SPEC, "ref"))
    cache.path_for(key).write_text("{ this is not json")

    runner = Runner(cache=cache)
    graph = runner.graph(SPEC)
    assert cache.invalid == 1
    assert cache.hits == 0
    assert cache.misses == 1
    assert runner.acquisitions[0][2] == "profiled"
    assert graph_doc(graph) == graph_doc(original)
    # the bad file was replaced by the fresh profile
    assert cache.stores == 1
    assert cache.path_for(key).exists()
    assert ProfileCache(tmp_path).load_graph(key) is not None


def test_stale_format_version_treated_as_miss(tmp_path):
    cold = Runner(cache=ProfileCache(tmp_path))
    cold.graph(SPEC)

    cache = ProfileCache(tmp_path)
    key = cache.graph_key(SPEC, "ref", cold.input_for(SPEC, "ref"))
    doc = json.loads(cache.path_for(key).read_text())
    doc["graph"]["graph_format_version"] = 99
    cache.path_for(key).write_text(json.dumps(doc))
    assert cache.load_graph(key) is None
    assert cache.invalid == 1
    assert not cache.path_for(key).exists()


def test_missing_entry_is_a_plain_miss(tmp_path):
    cache = ProfileCache(tmp_path)
    assert cache.load_graph("0" * 64) is None
    assert cache.misses == 1
    assert cache.invalid == 0


def test_clear_removes_entries(tmp_path):
    runner = Runner(cache=ProfileCache(tmp_path))
    runner.graph(SPEC)
    cache = ProfileCache(tmp_path)
    assert cache.clear() == 1
    assert cache.clear() == 0


def test_clear_sweeps_orphaned_tmp_files(tmp_path):
    """A crashed writer leaves ``.tmp`` droppings next to the entries;
    ``clear()`` must remove them and count them accurately."""
    runner = Runner(cache=ProfileCache(tmp_path))
    runner.graph(SPEC)
    cache = ProfileCache(tmp_path)
    key = cache.graph_key(SPEC, "ref", runner.input_for(SPEC, "ref"))
    shard = cache.path_for(key).parent
    (shard / "crashed-write-1.tmp").write_text("{ partial")
    (shard / "crashed-write-2.tmp").write_text("")
    assert cache.clear() == 3  # 1 entry + 2 orphans
    assert list(tmp_path.glob("*/*")) == []
    assert cache.clear() == 0
