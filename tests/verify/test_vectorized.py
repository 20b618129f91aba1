"""Fuzz-backed equivalence: array kernels vs their scalar oracles, and
marker selection vs its oracle on degenerate graphs.

The grouped CoV aggregation, the kmeans distance matrix, and the
reuse-distance binning promise *bit-for-bit* agreement with the
per-element Python code they replaced; these tests drive both sides with
seeded random inputs and compare exactly.  Marker selection is checked
against ``oracle_select_markers`` through ``diff_selection`` on random
graphs with non-finite corner cases (count-0 edges, inf/NaN moments).
"""

import numpy as np
import pytest

from repro.analysis.cov import _weighted_cov, phase_cov
from repro.callloop import build_call_loop_graph
from repro.callloop.graph import CallLoopGraph, Node, NodeKind, ROOT
from repro.callloop.selection import SelectionParams
from repro.callloop.stats import RunningStats
from repro.intervals.base import IntervalSet
from repro.reuse.distance import (
    prev_occurrences,
    reuse_distances,
    reuse_histogram,
)
from repro.simpoint.kmeans import pairwise_sq_dists
from repro.verify.diff import diff_selection
from repro.verify.fuzz import build_program, generate_spec
from repro.verify.oracles import oracle_reuse_histogram


def random_graph(seed: int) -> CallLoopGraph:
    """A random call-loop graph: realistic Welford-accumulated edges plus
    directly-assigned degenerate statistics."""
    rng = np.random.default_rng(seed)
    g = CallLoopGraph(f"fuzz-{seed}")
    kinds = [
        NodeKind.PROC_HEAD,
        NodeKind.PROC_BODY,
        NodeKind.LOOP_HEAD,
        NodeKind.LOOP_BODY,
    ]
    nodes = [
        Node(kinds[i % 4], f"p{i // 4}", label=f"n{i}") for i in range(12)
    ]
    g.observe(ROOT, nodes[0], float(rng.integers(1, 100_000)))
    n_edges = int(rng.integers(5, 25))
    for _ in range(n_edges):
        src, dst = rng.choice(len(nodes), size=2, replace=False)
        e = g.edge(nodes[src], nodes[dst])
        for _ in range(int(rng.integers(1, 6))):
            e.stats.add(float(rng.integers(0, 1_000_000)))
    a, b = nodes[-1], nodes[-2]
    g.edge(a, b)  # count 0: mean 0, m2 0, max -inf
    e = g.edge(b, a)
    e.stats = RunningStats(count=1, mean=5e4, m2=0.0, max_value=5e4)
    e = g.edge(nodes[0], nodes[-1])
    e.stats = RunningStats(
        count=3, mean=2e4, m2=float("inf"), max_value=2e4
    )  # cov = inf
    e = g.edge(nodes[1], nodes[-2])
    e.stats = RunningStats(
        count=2, mean=float("nan"), m2=4.0, max_value=1e3
    )  # avg = cov = nan
    return g


class TestSelectionEngines:
    """``select_markers`` vs ``oracle_select_markers``."""

    @pytest.mark.parametrize("seed", range(25))
    def test_agree_on_random_graphs(self, seed):
        g = random_graph(seed)
        for params in (
            SelectionParams(ilower=1_000),
            SelectionParams(ilower=100_000, procedures_only=True),
            SelectionParams(ilower=50, cov_floor=0.0),
        ):
            assert diff_selection(g, params) == []

    @pytest.mark.parametrize("seed", [3, 17, 42, 91])
    def test_agree_on_fuzzed_programs(self, seed):
        program, program_input = build_program(generate_spec(seed))
        graph = build_call_loop_graph(program, [program_input])
        assert diff_selection(graph, SelectionParams(ilower=500)) == []


class TestKmeansDistances:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 4), (50, 8, 16)])
    def test_bit_equal_to_broadcast(self, shape):
        n, k, d = shape
        rng = np.random.default_rng(n * 100 + k)
        points = rng.normal(size=(n, d))
        centroids = rng.normal(size=(k, d))
        got = pairwise_sq_dists(points, centroids)
        want = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(got, want)


class TestReuseKernels:
    @pytest.mark.parametrize("seed", range(10))
    def test_prev_occurrences_matches_dict_scan(self, seed):
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 40, size=int(rng.integers(0, 300)))
        got = prev_occurrences(lines)
        last = {}
        for t, line in enumerate(lines.tolist()):
            assert got[t] == last.get(line, -1)
            last[line] = t

    @pytest.mark.parametrize("seed", range(10))
    def test_histogram_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 20, size=400)
        distances = reuse_distances(addresses)
        got = reuse_histogram(distances)
        assert got.tolist() == oracle_reuse_histogram(distances)
        assert int(got.sum()) == len(distances)

    def test_histogram_saturates_and_counts_infinities(self):
        d = np.array([0.0, 1.0, 2.0**30, np.inf, np.inf])
        got = reuse_histogram(d, num_bins=8)
        assert got[7] == 2  # infinities in the last bin
        assert got[6] == 1  # 2**30 saturates into the last finite bin
        assert got.tolist() == oracle_reuse_histogram(d, num_bins=8)

    def test_histogram_rejects_tiny_bin_count(self):
        with pytest.raises(ValueError):
            reuse_histogram(np.array([1.0]), num_bins=1)


class TestPhaseCovAggregation:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_phase_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        lengths = rng.integers(0, 10_000, size=n)
        phase_ids = rng.integers(0, 6, size=n)
        values = rng.uniform(0.2, 4.0, size=n)
        iset = IntervalSet(
            "fuzz",
            "fixed",
            row_bounds=np.arange(n + 1, dtype=np.int64),
            start_ts=np.concatenate([[0], np.cumsum(lengths)[:-1]]),
            lengths=lengths,
            phase_ids=phase_ids,
        )
        result = phase_cov(iset, values)
        weights = lengths.astype(np.float64)
        for p, cov in result.per_phase.items():
            mask = phase_ids == p
            want = _weighted_cov(values[mask], weights[mask])
            assert cov == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_weight_phase_reports_zero(self):
        iset = IntervalSet(
            "z",
            "fixed",
            row_bounds=np.array([0, 1, 2]),
            start_ts=np.array([0, 0]),
            lengths=np.array([0, 10]),
            phase_ids=np.array([1, 2]),
        )
        result = phase_cov(iset, np.array([1.5, 2.5]))
        assert result.per_phase[1] == 0.0
        assert result.phase_weights[1] == 0.0
