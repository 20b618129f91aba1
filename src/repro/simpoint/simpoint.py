"""The SimPoint pipeline: project, cluster over k, choose, pick points.

``run_simpoint`` works on any BBV matrix; ``run_simpoint_on_intervals``
is the convenience entry taking an :class:`IntervalSet` — with
``weighted=True`` it is the SimPoint 3.0 VLI algorithm (weights are each
interval's fraction of execution), with ``weighted=False`` it is the
classic SimPoint 2.0 on fixed-length intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.intervals.base import IntervalSet
from repro.simpoint.bic import bic_score, choose_k
from repro.simpoint.kmeans import KMeansResult, PreparedPoints, kmeans_best_of
from repro.simpoint.projection import project_bbvs


@dataclass(frozen=True)
class SimPointOptions:
    """Knobs of the SimPoint pipeline (paper defaults in brackets)."""

    dims: int = 15  #: projected dimensionality [15]
    k_max: int = 10  #: maximum clusters considered [10/30/100 by interval size]
    bic_threshold: float = 0.9  #: fraction of BIC range required [0.9]
    seeds: int = 5  #: random k-means restarts per k
    seed: int = 2006  #: base RNG seed (projection + clustering)
    #: how to break near-ties when choosing each cluster's representative:
    #: "median" avoids the cold-start bias of always picking the earliest;
    #: "early" minimizes fast-forwarding before each simulation point (the
    #: "early simulation points" optimization of Perelman et al.), at the
    #: cost of picking warm-up-affected intervals on short runs
    pick: str = "median"

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 < self.bic_threshold <= 1.0:
            raise ValueError("bic_threshold must be in (0, 1]")
        if self.pick not in ("median", "early"):
            raise ValueError("pick must be 'median' or 'early'")


@dataclass
class SimPointResult:
    """A phase classification plus one simulation point per phase."""

    phase_ids: np.ndarray  #: (n,) cluster of each interval
    k: int
    sim_point_indices: np.ndarray  #: (k,) chosen interval per cluster
    cluster_weights: np.ndarray  #: (k,) fraction of execution per cluster
    bic_scores: List[float]
    projected: np.ndarray

    @property
    def num_phases(self) -> int:
        return self.k


def run_simpoint(
    bbvs: np.ndarray,
    weights: Optional[np.ndarray] = None,
    options: SimPointOptions = SimPointOptions(),
) -> SimPointResult:
    """Cluster BBVs into phases and pick simulation points.

    *weights* are per-interval execution fractions (VLI mode); None means
    equal weights (fixed-length mode).
    """
    n = bbvs.shape[0]
    if n == 0:
        raise ValueError("no intervals to cluster")
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    weights = weights / total

    projected = project_bbvs(bbvs, dims=options.dims, seed=options.seed)
    # every (k, seed) run below shares one prepared set: run (k, s) is
    # seeded options.seed + k + s, so each seed's k-means++ draws serve
    # up to options.seeds values of k
    prepared = PreparedPoints(projected, weights)

    results: List[KMeansResult] = []
    scores: List[float] = []
    for k in range(1, min(options.k_max, n) + 1):
        result = kmeans_best_of(
            prepared, k, seeds=options.seeds, base_seed=options.seed + k
        )
        results.append(result)
        scores.append(bic_score(projected, result, weights))
    chosen = choose_k(scores, options.bic_threshold)
    best = results[chosen]

    # One simulation point per cluster: the interval closest to the centroid.
    k = best.k
    sim_points = np.zeros(k, dtype=np.int64)
    cluster_weights = np.zeros(k)
    for j in range(k):
        members = np.nonzero(best.assignments == j)[0]
        if len(members) == 0:
            sim_points[j] = 0
            continue
        d2 = ((projected[members] - best.centroids[j]) ** 2).sum(axis=1)
        # Near-ties (identical code signatures) are common; breaking them
        # toward the lowest index would systematically pick the earliest —
        # coldest — interval, so "median" takes the temporally middle
        # candidate; "early" deliberately takes the first to minimize
        # fast-forwarding.
        near = members[d2 <= d2.min() * (1.0 + 1e-9) + 1e-18]
        sim_points[j] = near[0] if options.pick == "early" else near[len(near) // 2]
        cluster_weights[j] = weights[members].sum()

    return SimPointResult(
        phase_ids=best.assignments,
        k=k,
        sim_point_indices=sim_points,
        cluster_weights=cluster_weights,
        bic_scores=scores,
        projected=projected,
    )


def run_simpoint_on_intervals(
    interval_set: IntervalSet,
    options: SimPointOptions = SimPointOptions(),
    weighted: bool = True,
) -> SimPointResult:
    """Run SimPoint on an interval set's BBVs.

    ``weighted=True`` (SimPoint 3.0 VLI) weights intervals by instruction
    count — required whenever intervals have different lengths.
    """
    if interval_set.bbvs is None:
        raise ValueError("interval set has no BBVs; run collect_bbvs first")
    weights = interval_set.lengths.astype(np.float64) if weighted else None
    return run_simpoint(interval_set.bbvs, weights, options)
