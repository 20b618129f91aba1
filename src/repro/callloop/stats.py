"""Streaming statistics for call-loop edge annotations.

Each edge of the call-loop graph tracks the count, average, standard
deviation, and maximum of the hierarchical instruction count across its
traversals (paper Section 4.2).  Welford's online algorithm gives
numerically stable single-pass mean/variance; `merge` combines stats from
independent profiles (used when aggregating multiple runs of the same
input set).

:class:`MomentStats` is the accumulator behind the profile: it keeps
the *raw* moments — count, sum, sum of squares — as arbitrary-precision
Python integers.  Hierarchical instruction counts are integers, so the
moments are exact, and exact addition is associative and commutative:
folding observations one at a time, in vectorized back-edge batches, or
as merged streaming window slots produces the same integers, which is
what makes the streaming window's merged graph bit-identical to the
batch profile.  The float statistics are derived once at the end
(:meth:`MomentStats.to_running_stats`), each with a single
correctly-rounded division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class RunningStats:
    """Single-pass count/mean/variance/max accumulator (Welford)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    max_value: float = -math.inf
    min_value: float = math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self.mean * self.count

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than 2 observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    @property
    def cov(self) -> float:
        """Coefficient of variation: std / mean (0 when mean is 0)."""
        if self.mean == 0:
            return 0.0
        return self.std / abs(self.mean)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combined stats of both accumulators (Chan's parallel formula)."""
        if other.count == 0:
            return RunningStats(
                self.count, self.mean, self.m2, self.max_value, self.min_value
            )
        if self.count == 0:
            return RunningStats(
                other.count, other.mean, other.m2, other.max_value, other.min_value
            )
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return RunningStats(
            n,
            mean,
            m2,
            max(self.max_value, other.max_value),
            min(self.min_value, other.min_value),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.2f}, "
            f"std={self.std:.2f}, max={self.max_value:.0f})"
        )


class MomentStats:
    """Exact integer moments of a stream of non-negative integers.

    ``add``/``add_run``/``merge`` are all plain integer additions, so
    any partition of the observations into batches — per-iteration
    callbacks, vectorized back-edge runs, or streaming window slots —
    accumulates to identical integers.  ``to_running_stats`` converts to
    the float :class:`RunningStats` form the graph stores:

    * ``mean = total / count`` — one correctly-rounded division;
    * ``m2 = (count * sumsq - total²) / count`` — the numerator is an
      exact (non-negative, by Cauchy-Schwarz) integer, so unlike a
      Welford stream the result carries no accumulated rounding.
    """

    __slots__ = ("count", "total", "sumsq", "max_value", "min_value")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.sumsq = 0
        self.max_value: int | None = None
        self.min_value: int | None = None

    def add(self, value: int) -> None:
        """Fold one observation into the moments."""
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if self.max_value is None:
            self.max_value = value
            self.min_value = value
        else:
            if value > self.max_value:
                self.max_value = value
            if value < self.min_value:
                self.min_value = value

    def add_run(self, values: np.ndarray) -> None:
        """Fold a batch of observations (int64 array) in one shot.

        Equivalent to ``add`` in a loop; the numpy reductions are used
        only when ``len * max²`` provably fits int64, otherwise the
        batch falls back to exact Python-int summation.
        """
        k = len(values)
        if k == 0:
            return
        mx = int(values.max())
        mn = int(values.min())
        if self.max_value is None:
            self.max_value = mx
            self.min_value = mn
        else:
            if mx > self.max_value:
                self.max_value = mx
            if mn < self.min_value:
                self.min_value = mn
        self.count += k
        if mx * mx * k < 2**63:
            self.total += int(values.sum(dtype=np.int64))
            self.sumsq += int(np.dot(values, values))
        else:  # pragma: no cover - astronomically long spans
            for v in values.tolist():
                self.total += v
                self.sumsq += v * v

    def merge(self, other: "MomentStats") -> None:
        """Fold *other*'s moments into this accumulator (in place)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        if self.max_value is None:
            self.max_value = other.max_value
            self.min_value = other.min_value
        else:
            if other.max_value > self.max_value:
                self.max_value = other.max_value
            if other.min_value < self.min_value:
                self.min_value = other.min_value

    def to_running_stats(self) -> RunningStats:
        """The float :class:`RunningStats` these moments determine."""
        if self.count == 0:
            return RunningStats()
        mean = self.total / self.count
        m2 = (self.count * self.sumsq - self.total * self.total) / self.count
        return RunningStats(
            self.count, mean, m2, float(self.max_value), float(self.min_value)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MomentStats(n={self.count}, total={self.total}, "
            f"sumsq={self.sumsq})"
        )
