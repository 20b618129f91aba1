"""Integration tests for the memoizing experiment runner.

These use the two smallest workloads (tomcatv-train and vortex) to keep
runtime modest; the full pipelines over all workloads run under
``benchmarks/``.
"""

import numpy as np
import pytest

from repro.callloop.serialization import graph_to_dict
from repro.callloop.spans import EdgeOpens, SpanBuilder
from repro.experiments.runner import MARKER_VARIANTS, Runner
from repro.ir.linker import ALPHA_O0, ALPHA_PEAK
from repro.runner import ProfileCache, ProfileJob, TraceStore, run_profile_job
from repro.serving import Query, compute_payload
from repro.workloads import get_workload

SPEC = "vortex/one"


@pytest.fixture(scope="module")
def runner():
    return Runner()


def test_program_cached(runner):
    base = runner.program(SPEC)
    assert runner.program(SPEC) is base
    # linking a variant links the memoized base and leaves it memoized
    runner.program(SPEC, ALPHA_PEAK)
    assert runner.program(SPEC) is base


def test_trace_cached_and_partition_consistent(runner):
    t1 = runner.trace(SPEC, "train")
    t2 = runner.trace(SPEC, "train")
    assert t1 is t2
    assert t1.total_instructions > 0


def test_variant_program_differs(runner):
    base = runner.program(SPEC)
    o0 = runner.program(SPEC, ALPHA_O0)
    assert o0 is not base
    assert o0.variant == "alpha-O0"
    assert runner.trace(SPEC, variant=ALPHA_O0).total_instructions > (
        runner.trace(SPEC).total_instructions
    )


def test_graph_self_vs_cross(runner):
    self_graph = runner.graph(SPEC, "ref")
    cross_graph = runner.graph(SPEC, "train")
    assert self_graph is not cross_graph
    assert self_graph.total_instructions != cross_graph.total_instructions


@pytest.mark.parametrize("variant", MARKER_VARIANTS)
def test_all_marker_variants_produce_markers(runner, variant):
    markers = runner.markers(SPEC, variant)
    assert len(markers) >= 1
    assert runner.markers(SPEC, variant) is markers  # cached


def test_unknown_variant_rejected(runner):
    with pytest.raises(ValueError):
        runner.markers(SPEC, "bogus")


def test_fixed_intervals_have_metrics(runner):
    intervals, profile = runner.fixed_intervals(SPEC, 10_000, "train")
    intervals.check_partition(runner.trace(SPEC, "train").total_instructions)
    assert intervals.cpis is not None
    assert profile.hits.shape[1] == 8
    # misses monotone non-increasing in ways
    misses = [profile.misses_at(w).sum() for w in range(1, 9)]
    assert misses == sorted(misses, reverse=True)


def test_vli_intervals_have_phase_ids(runner):
    intervals, _ = runner.vli_intervals(SPEC, "nolimit-self")
    assert intervals.num_phases >= 2
    assert intervals.cpis is not None


def test_trace_metrics_shared_between_partitions(runner):
    tm1 = runner.trace_metrics(SPEC, "train")
    tm2 = runner.trace_metrics(SPEC, "train")
    assert tm1 is tm2


def test_partitions_conserve_totals(runner):
    """Different partitions of one run attribute the same totals."""
    fixed, fprof = runner.fixed_intervals(SPEC, 10_000)
    vli, vprof = runner.vli_intervals(SPEC, "nolimit-self")
    assert fixed.total_instructions == vli.total_instructions
    assert fprof.accesses.sum() == vprof.accesses.sum()
    assert fprof.hits.sum(axis=0).tolist() == vprof.hits.sum(axis=0).tolist()
    assert fixed.branch_mispredicts.sum() == vli.branch_mispredicts.sum()
    assert fixed.cycles.sum() == pytest.approx(vli.cycles.sum())


def _runner_graph(cache, store):
    return graph_to_dict(Runner(cache=cache, trace_store=store).graph(SPEC))


def _profile_job(cache, store):
    return run_profile_job(ProfileJob(SPEC, "ref", trace_root=str(store.root))).graph_data


def _served_profile(cache, store):
    return compute_payload(Query(kind="profile", workload=SPEC), cache, store)


@pytest.mark.parametrize(
    "acquire",
    [_runner_graph, _profile_job, _served_profile],
    ids=["runner", "profile_job", "serving"],
)
def test_cold_graph_spills_the_profiles_index(tmp_path, monkeypatch, acquire):
    """A graph-cache miss profiles the fresh recording before spilling
    it: one span-builder pass profiles and indexes it, and the spilled
    entry maps back with the index.  A later profile of the spilled
    trace, which has its index, collects none.  The same for the Runner,
    a profile job and a served query."""
    indexed = []
    build = SpanBuilder.build

    def counted(self, trace, index=True):
        indexed.append(index)
        return build(self, trace, index)

    monkeypatch.setattr(SpanBuilder, "build", counted)
    cache = ProfileCache(tmp_path / "profiles")
    store = TraceStore(tmp_path / "traces")
    cold = acquire(cache, store)
    assert indexed == [True]
    key = store.trace_key(SPEC, "ref", get_workload(SPEC).input_for("ref"))
    spilled = store.load(key)
    assert isinstance(spilled.ids, np.memmap)
    assert isinstance(spilled.opens, EdgeOpens)

    cache.clear()
    indexed.clear()
    assert acquire(cache, store) == cold  # a trace-store hit
    assert indexed == [False]
