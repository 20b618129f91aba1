"""Unit and property tests for running statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.callloop.stats import MomentStats, RunningStats

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


def fill(values):
    s = RunningStats()
    for v in values:
        s.add(v)
    return s


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.std == 0.0
        assert s.cov == 0.0

    def test_single_value(self):
        s = fill([42.0])
        assert s.mean == 42.0
        assert s.std == 0.0
        assert s.max_value == 42.0
        assert s.min_value == 42.0

    def test_known_values(self):
        s = fill([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.std == pytest.approx(2.0)
        assert s.cov == pytest.approx(0.4)
        assert s.max_value == 9.0

    def test_total(self):
        s = fill([1.0, 2.0, 3.0])
        assert s.total == pytest.approx(6.0)

    def test_cov_zero_mean(self):
        s = fill([1.0, -1.0])
        assert s.cov == 0.0  # mean 0: CoV defined as 0

    @given(st.lists(finite, min_size=1, max_size=200))
    def test_matches_numpy(self, values):
        s = fill(values)
        arr = np.array(values)
        assert s.count == len(values)
        assert s.mean == pytest.approx(arr.mean(), rel=1e-6, abs=1e-6)
        assert s.std == pytest.approx(arr.std(), rel=1e-6, abs=1e-3)
        assert s.max_value == arr.max()
        assert s.min_value == arr.min()

    @given(
        st.lists(finite, min_size=0, max_size=50),
        st.lists(finite, min_size=0, max_size=50),
    )
    def test_merge_equals_concatenation(self, xs, ys):
        merged = fill(xs).merge(fill(ys))
        combined = fill(xs + ys)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-6, abs=1e-6)
        assert merged.std == pytest.approx(combined.std, rel=1e-5, abs=1e-3)
        if xs or ys:
            assert merged.max_value == combined.max_value

    @given(
        st.lists(finite, min_size=1, max_size=30),
        st.lists(finite, min_size=1, max_size=30),
    )
    def test_merge_commutative(self, xs, ys):
        a = fill(xs).merge(fill(ys))
        b = fill(ys).merge(fill(xs))
        assert a.count == b.count
        assert a.mean == pytest.approx(b.mean, rel=1e-9, abs=1e-9)
        assert a.m2 == pytest.approx(b.m2, rel=1e-6, abs=1e-3)

    def test_merge_with_empty_is_identity(self):
        s = fill([1.0, 5.0, 9.0])
        merged = s.merge(RunningStats())
        assert merged.count == s.count
        assert merged.mean == s.mean
        merged2 = RunningStats().merge(s)
        assert merged2.count == s.count

    @given(st.lists(finite, min_size=1, max_size=100))
    def test_count_times_avg_is_total(self, values):
        s = fill(values)
        assert s.total == pytest.approx(sum(values), rel=1e-6, abs=1e-3)

    @given(st.lists(finite, min_size=1, max_size=100))
    def test_max_geq_mean_geq_min(self, values):
        s = fill(values)
        assert s.max_value >= s.mean - 1e-9 or math.isclose(s.max_value, s.mean)
        assert s.min_value <= s.mean + 1e-9


# -- exact integer moments ---------------------------------------------------


def test_moment_stats_partition_invariance():
    """Any batching of the same observations gives identical moments."""
    values = [3, 7, 7, 1, 0, 12, 7, 5, 9, 2, 2, 8]
    one_by_one = MomentStats()
    for v in values:
        one_by_one.add(v)

    batched = MomentStats()
    batched.add_run(np.asarray(values[:5], dtype=np.int64))
    batched.add_run(np.asarray(values[5:], dtype=np.int64))

    merged = MomentStats()
    for lo, hi in ((0, 3), (3, 4), (4, 12)):
        part = MomentStats()
        for v in values[lo:hi]:
            part.add(v)
        merged.merge(part)

    for other in (batched, merged):
        assert other.count == one_by_one.count
        assert other.total == one_by_one.total
        assert other.sumsq == one_by_one.sumsq
        assert other.max_value == one_by_one.max_value
        assert other.min_value == one_by_one.min_value

    rs = one_by_one.to_running_stats()
    assert rs.count == len(values)
    assert rs.mean == pytest.approx(sum(values) / len(values))
    assert rs.variance == pytest.approx(np.var(values))
    assert rs.max_value == max(values)
    assert rs.min_value == min(values)


def test_moment_stats_empty():
    empty = MomentStats()
    assert empty.to_running_stats() == RunningStats()
    target = MomentStats()
    target.add(4)
    target.merge(empty)
    assert target.count == 1 and target.total == 4
