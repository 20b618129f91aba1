"""Unit tests for the two-pass marker selection algorithm."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.callloop import SelectionParams, build_call_loop_graph, select_markers
from repro.callloop.graph import CallLoopGraph, Node, NodeKind, ROOT
from repro.callloop.selection import (
    _cov_threshold,
    collect_candidates,
    cov_threshold_stats,
)
from repro.ir.program import ProgramInput


def node(name, kind=NodeKind.PROC_HEAD):
    return Node(kind, name)


def make_graph(edges):
    """edges: list of (src, dst, [hierarchical counts])."""
    g = CallLoopGraph("p")
    for src, dst, values in edges:
        for v in values:
            g.observe(src, dst, v)
    return g


class TestPass1:
    def test_ilower_prunes_small_edges(self):
        g = make_graph(
            [
                (ROOT, node("main"), [10_000]),
                (node("main"), node("big"), [5_000, 5_100]),
                (node("main"), node("small"), [50, 60]),
            ]
        )
        _, cands = collect_candidates(g, SelectionParams(ilower=1000))
        keys = {(e.src.proc, e.dst.proc) for e in cands}
        assert ("main", "big") in keys
        assert ("main", "small") not in keys

    def test_root_edges_excluded(self):
        g = make_graph([(ROOT, node("main"), [10_000])])
        _, cands = collect_candidates(g, SelectionParams(ilower=10))
        assert cands == []

    def test_procedures_only_excludes_loops(self, loop_only_program):
        graph = build_call_loop_graph(
            loop_only_program, [ProgramInput("i", seed=3)]
        )
        _, all_cands = collect_candidates(graph, SelectionParams(ilower=100))
        _, proc_cands = collect_candidates(
            graph, SelectionParams(ilower=100, procedures_only=True)
        )
        assert any(e.dst.kind.is_loop for e in all_cands)
        assert all(not e.dst.kind.is_loop for e in proc_cands)

    def test_invalid_ilower(self):
        with pytest.raises(ValueError):
            SelectionParams(ilower=0)


class TestThreshold:
    def test_stats_of_empty(self):
        assert cov_threshold_stats([]) == (0.0, 0.0)

    def test_linear_scaling(self):
        # at ilower the threshold is base; at avg_hi it's base+spread
        assert _cov_threshold(100, 100, 1000, 0.1, 0.2) == pytest.approx(0.1)
        assert _cov_threshold(1000, 100, 1000, 0.1, 0.2) == pytest.approx(0.3)
        mid = _cov_threshold(550, 100, 1000, 0.1, 0.2)
        assert 0.1 < mid < 0.3

    def test_clamped_above_hi(self):
        assert _cov_threshold(5000, 100, 1000, 0.1, 0.2) == pytest.approx(0.3)

    def test_degenerate_range(self):
        assert _cov_threshold(100, 100, 100, 0.1, 0.2) == pytest.approx(0.1)


class TestNonFiniteCov:
    """NaN/inf CoV edges must not poison the adaptive threshold
    (the old ``cov_threshold_stats`` averaged them straight in)."""

    def _poisoned_graph(self):
        from repro.callloop.stats import RunningStats

        g = make_graph(
            [
                (ROOT, node("main"), [40_000]),
                (node("main"), node("stable"), [5_000] * 4),
                (node("main"), node("steady"), [6_000] * 4),
                (node("main"), node("flat"), [7_000] * 4),
            ]
        )
        # candidate edge whose variance accumulator overflowed: cov = inf
        e = g.edge(node("main"), node("spiky"))
        e.stats = RunningStats(count=5, mean=2e4, m2=float("inf"), max_value=2e4)
        return g

    def test_infinite_cov_does_not_poison_stats(self):
        g = self._poisoned_graph()
        _, cands = collect_candidates(g, SelectionParams(ilower=1000))
        assert any(e.cov == float("inf") for e in cands)
        base, spread = cov_threshold_stats(cands)
        assert base == pytest.approx(0.0)
        assert spread == pytest.approx(0.0)

    def test_nan_cov_filtered_from_stats(self):
        edges = [
            SimpleNamespace(cov=c)
            for c in (0.1, float("nan"), 0.3, float("inf"))
        ]
        base, spread = cov_threshold_stats(edges)
        assert base == pytest.approx(0.2)
        assert spread == pytest.approx(0.1)

    def test_all_non_finite_covs_give_zero_stats(self):
        edges = [SimpleNamespace(cov=float("nan")), SimpleNamespace(cov=float("inf"))]
        assert cov_threshold_stats(edges) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_stats_match_fsum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        covs = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 200))).tolist()
        covs += [float("inf"), float("-inf"), float("nan")]
        base, spread = cov_threshold_stats([SimpleNamespace(cov=c) for c in covs])
        finite = [c for c in covs if math.isfinite(c)]
        mean = math.fsum(finite) / len(finite)
        var = math.fsum((c - mean) ** 2 for c in finite) / len(finite)
        assert base == pytest.approx(mean, abs=1e-9)
        assert spread == pytest.approx(math.sqrt(var), abs=1e-9)

    def test_selection_survives_poisoned_edge(self):
        g = self._poisoned_graph()
        result = select_markers(g, SelectionParams(ilower=1000))
        dsts = {m.dst.proc for m in result.markers}
        assert "stable" in dsts  # stable edges still selected
        assert "spiky" not in dsts  # inf cov can never pass a finite threshold


class TestSelection:
    def test_stable_edge_selected_unstable_rejected(self):
        g = make_graph(
            [
                (ROOT, node("main"), [40_000]),
                # stable edges: CoV 0 (these set a low threshold base)
                (node("main"), node("stable"), [5_000] * 4),
                (node("main"), node("steady"), [6_000] * 4),
                (node("main"), node("flat"), [7_000] * 4),
                # wildly unstable and near ilower (tightest threshold)
                (node("main"), node("wild"), [1_000, 2_600, 1_200, 2_400]),
            ]
        )
        result = select_markers(g, SelectionParams(ilower=1000))
        dsts = {m.dst.proc for m in result.markers}
        assert "stable" in dsts
        assert "wild" not in dsts

    def test_marker_ids_dense_from_one(self, toy_program, toy_input):
        graph = build_call_loop_graph(toy_program, [toy_input])
        result = select_markers(graph, SelectionParams(ilower=500))
        ids = [m.marker_id for m in result.markers]
        assert ids == list(range(1, len(ids) + 1))

    def test_markers_meet_ilower(self, toy_program, toy_input):
        graph = build_call_loop_graph(toy_program, [toy_input])
        result = select_markers(graph, SelectionParams(ilower=500))
        assert result.markers
        assert all(m.avg_interval >= 500 for m in result.markers)

    def test_deterministic(self, toy_program, toy_input):
        graph = build_call_loop_graph(toy_program, [toy_input])
        a = select_markers(graph, SelectionParams(ilower=500))
        b = select_markers(graph, SelectionParams(ilower=500))
        assert [m.edge_key for m in a.markers] == [m.edge_key for m in b.markers]

    def test_larger_ilower_fewer_or_equal_markers(self, toy_program, toy_input):
        graph = build_call_loop_graph(toy_program, [toy_input])
        small = select_markers(graph, SelectionParams(ilower=100))
        large = select_markers(graph, SelectionParams(ilower=50_000))
        assert len(large.candidates) <= len(small.candidates)

    def test_empty_graph(self):
        g = CallLoopGraph("p")
        result = select_markers(g, SelectionParams(ilower=100))
        assert len(result.markers) == 0

    def test_loop_markers_found_in_monolithic_program(self, loop_only_program):
        """The 'all code in main' case: only loops can mark phases."""
        graph = build_call_loop_graph(loop_only_program, [ProgramInput("i", seed=3)])
        result = select_markers(graph, SelectionParams(ilower=400))
        assert any(m.dst.kind.is_loop for m in result.markers)
        proc_only = select_markers(
            graph, SelectionParams(ilower=400, procedures_only=True)
        )
        # Procedure-only analysis degenerates to the trivial whole-program
        # marker (the paper's vpr case): every marker spans ~all execution.
        total = graph.total_instructions
        assert all(m.avg_interval > 0.9 * total for m in proc_only.markers)
