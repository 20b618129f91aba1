"""Weighted k-means with k-means++ seeding.

SimPoint 2.0 clusters equal-weight intervals; SimPoint 3.0 VLI weights
each interval by the fraction of execution it represents so that a long
interval influences the centroids proportionally.  Both reduce to this
one implementation.

SimPoint clusters one input many times (k = 1..k_max, several seeds
per k); :class:`PreparedPoints` holds what those runs share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.telemetry import get_telemetry


@dataclass
class KMeansResult:
    """A clustering: assignments, centroids, and its within-cluster SSE."""

    assignments: np.ndarray  # (n,) int
    centroids: np.ndarray  # (k, d)
    sse: float  # weighted sum of squared distances
    iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)


#: distance passes over fewer (point, centroid) pairs than this skip
#: the filter: below it, the filter's dozen array calls cost more than
#: the pairs they save (measurements in docs/PERFORMANCE.md)
FILTER_MIN_PAIRS = 512


def pairwise_sq_dists(
    points: np.ndarray,
    centroids: np.ndarray,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distances, shape (n, k).

    One subtract-square-sum per pair, as the naive broadcast
    ``((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)``: each pair's
    value is the pairwise sum of its own length-d row of squares, so it
    does not depend on which other pairs share the operand.  With
    *candidates* (an (n, k) bool mask) only those pairs are gathered
    into one (pairs, d) operand, and each comes out bit-identical to
    the same entry of the full matrix; every other entry is ``+inf``.

    The matmul expansion ``|x|^2 - 2x.c + |c|^2`` is *not* bit-identical
    (BLAS sums in its own order and cancels catastrophically near 0), so
    it only decides which pairs are candidates (see :func:`kmeans`).
    """
    if candidates is None:
        diff = points[:, None, :] - centroids[None, :, :]
        return np.add.reduce(diff * diff, axis=2)
    rows, cols = np.nonzero(candidates)
    out = np.full(candidates.shape, np.inf)
    diff = points[rows] - centroids[cols]
    out[rows, cols] = np.add.reduce(diff * diff, axis=1)
    return out


def _error_scale(dims: int) -> float:
    """Per (||x|| + ||c||)^2, a bound on how far the BLAS expansion of a
    squared distance can fall from the subtract-square-sum value."""
    return 8.0 * (dims + 3) * 2.0**-53


def _candidates(
    points: np.ndarray, norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """(n, k) mask of the pairs that can hold a point's nearest centroid.

    ``|x|^2`` is common to a point's row, so it drops out of every
    comparison within the row; the row's largest bound stands in for
    each pair's own.
    """
    c_sq = np.add.reduce(centroids * centroids, axis=1)
    approx = points @ centroids.T
    approx *= -2.0
    approx += c_sq
    reach = norms + np.sqrt(c_sq.max())
    reach *= reach
    reach *= 2.0 * _error_scale(points.shape[1])
    reach += approx.min(axis=1)
    return approx <= reach[:, None]


class _PairCounts:
    """Pairs a plain run would compute exactly, and those computed."""

    __slots__ = ("pairs", "exact")

    def __init__(self) -> None:
        self.pairs = 0
        self.exact = 0


class _Draws:
    """One seed's k-means++ sequence: the points drawn so far, and each
    distinct row's distance to the nearest of them."""

    __slots__ = ("rng", "picks", "closest")

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.picks: List[int] = []
        self.closest: Optional[np.ndarray] = None


class PreparedPoints:
    """Points and weights prepared once for every k-means run on them.

    Holds the weighted points, the points' distinct rows (distinct by
    bytes) with each point's row index and the rows' norms, and one
    k-means++ draw sequence per seed, extended on demand.  Exact
    distances are computed over the distinct rows and gathered back to
    the points through :attr:`row_of`.
    """

    def __init__(self, points: np.ndarray, weights: Optional[np.ndarray] = None):
        points = np.asarray(points, dtype=np.float64)
        n = len(points)
        if n == 0:
            raise ValueError("cannot cluster zero points")
        if weights is None:
            weights = np.ones(n)
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != n:
            raise ValueError("weights length mismatch")
        total = weights.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.points = points
        self.weights = weights
        self.probs = weights / total
        self.weighted = points * weights[:, None]
        contiguous = np.ascontiguousarray(points)
        keys = contiguous.view(np.dtype((np.void, contiguous[0].nbytes))).ravel()
        _, first, self.row_of = np.unique(keys, return_index=True, return_inverse=True)
        self.rows = points[first]
        self.sq_norms = np.add.reduce(self.rows * self.rows, axis=1)
        self.norms = np.sqrt(self.sq_norms)
        self._draws: Dict[int, _Draws] = {}

    def initial_centroids(self, k: int, seed: int, counts: _PairCounts) -> np.ndarray:
        """The first *k* centroids of *seed*'s k-means++ sequence, in a
        new array: the centroids ``kmeans(points, k, weights, seed)``
        starts from.  A sequence that stopped short (every point
        coincides with a drawn one) fills the rest with its first draw."""
        draws = self._draws.get(seed)
        if draws is None:
            draws = self._draws[seed] = _Draws(seed)
        _plusplus_init(self, draws, k, counts)
        picks = draws.picks[:k]
        counts.pairs += len(self.points) * len(picks)
        centroids = np.empty((k, self.points.shape[1]))
        centroids[: len(picks)] = self.points[picks]
        centroids[len(picks) :] = centroids[0]
        return centroids


def _plusplus_init(
    prepared: PreparedPoints, draws: _Draws, k: int, counts: _PairCounts
) -> None:
    """Extend a seed's k-means++ sequence (weighted) to *k* draws, or
    until every point coincides with a drawn one.

    Each draw is ``rng.choice`` over all points, weighted by their
    distance to the nearest drawn point.  Those distances are kept per
    distinct row: after each draw, a row's ``closest`` distance changes
    only if the new centroid is nearer; the filter bound of
    :func:`kmeans` rules that out for most rows, so only the rest get
    the exact subtract-square-sum, and ``np.minimum`` sees the same
    values as on the full column.
    """
    points, rows, rng = prepared.points, prepared.rows, draws.rng
    n, m = len(points), len(rows)
    if not draws.picks:
        draws.picks.append(int(rng.choice(n, p=prepared.probs)))
    while len(draws.picks) < k:
        if draws.closest is None:
            first = points[draws.picks[0]]
            draws.closest = np.add.reduce(np.square(rows - first), axis=1)
            counts.exact += m
        closest = draws.closest
        scores = closest[prepared.row_of] * prepared.weights
        total = np.add.reduce(scores)
        if total <= 0:
            break
        idx = int(rng.choice(n, p=scores / total))
        draws.picks.append(idx)
        centroid = points[idx]
        if m < FILTER_MIN_PAIRS:
            dist = np.add.reduce(np.square(rows - centroid), axis=1)
            np.minimum(closest, dist, out=closest)
            counts.exact += m
            continue
        row = prepared.row_of[idx]
        approx = rows @ centroid
        approx *= -2.0
        approx += prepared.sq_norms
        approx += prepared.sq_norms[row]
        bound = prepared.norms + prepared.norms[row]
        bound *= bound
        bound *= _error_scale(rows.shape[1])
        approx -= bound
        near = np.nonzero(approx <= closest)[0]
        dist = np.add.reduce(np.square(rows[near] - centroid), axis=1)
        closest[near] = np.minimum(closest[near], dist)
        counts.exact += len(near)


def _update_centroids(
    centroids: np.ndarray,
    assignments: np.ndarray,
    weights: np.ndarray,
    weighted: np.ndarray,
    points: np.ndarray,
    served: np.ndarray,
) -> None:
    """Move every centroid to its members' weighted mean, in place; an
    empty (or weightless) cluster re-seeds at the worst-served point,
    by each point's weight times *served*, its squared distance to its
    centroid.  Summation order: see :func:`kmeans`."""
    # NumPy sorts integers of 16 bits or fewer by radix, in linear time;
    # a stable sort of the same keys gives the same order
    keys = assignments.astype(np.int16) if len(centroids) <= 1 << 15 else assignments
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(
        assignments[order], np.arange(len(centroids) + 1)
    ).tolist()
    sorted_weights = weights[order]
    sorted_weighted = weighted[order]
    worst = None
    for j in range(len(centroids)):
        lo, hi = bounds[j], bounds[j + 1]
        total = np.add.reduce(sorted_weights[lo:hi])
        if total > 0:
            centroids[j] = np.add.reduce(sorted_weighted[lo:hi], axis=0) / total
        else:
            if worst is None:
                worst = (served * weights).argmax()
            centroids[j] = points[worst]


def kmeans(
    points: Union[np.ndarray, PreparedPoints],
    k: int,
    weights: Optional[np.ndarray] = None,
    seed: int = 0,
    max_iter: int = 100,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ init; deterministic per seed.

    *points* is an (n, d) array, or a :class:`PreparedPoints` that
    carries its own weights (*weights* must then be None): runs on one
    prepared set share its distinct rows and each seed's k-means++
    draws, and give the results a plain array would.

    Bit-identical to :func:`repro.verify.oracles.oracle_kmeans` (the
    plain algorithm: a full subtract-square-sum distance matrix per
    pass, masked per-cluster sums), at a fraction of the distance work:

    * **Distinct rows.**  Equal points have equal distances, so every
      exact distance (seeding updates, the filter below, the Lloyd
      passes, the final SSE and the empty-cluster re-seed) is computed
      once per distinct row and gathered back to the points.  The
      k-means++ draws and the per-cluster sums stay over all points.
    * **Shared draws.**  The first k centroids of a seed's k-means++
      sequence do not depend on k, so runs on one prepared set draw
      each seed's sequence once, extending it when a larger k needs
      more; every run starts from its own copy.
    * **Filter.**  The BLAS expansion ``a = |x|^2 - 2x.c + |c|^2`` of a
      squared distance is cheap for all pairs at once.  Against the true
      distance, a dot product of length d rounds by at most
      ``gamma_d * sum|x_i c_i|`` (any summation order, FMA or not) with
      ``gamma_m = m u / (1 - m u)``, ``u = 2^-53``; with the norms and
      the two additions, ``|a - true| <= gamma_{d+2} (||x|| + ||c||)^2``.
      The subtract-square-sum value ``e`` is within
      ``gamma_{d+2} ||x - c||^2 <= gamma_{d+2} (||x|| + ||c||)^2`` of
      the true distance too, so ``|a - e| <= E = 8 (d + 3) u
      (||x|| + ||c||)^2``, with room for the rounding of E itself and of
      the comparison.  Centroid j stays a candidate for x when
      ``a_j - E_j <= min_i (a_i + E_i)``; every centroid whose exact
      distance ties the minimum passes, so ``argmin`` over the exact
      candidate values (others ``+inf``) picks the same lowest index as
      over the full matrix.  The Lloyd pass tests a looser form of that
      rule: ``|x|^2`` is common to the row and drops out, and every
      ``E_j`` is replaced by the row's largest (``||c||`` at its
      maximum), which only admits more candidates.  Seeding tests
      ``a - E <= closest`` per row to skip the rows the new centroid
      cannot bring closer.  Passes over fewer than
      :data:`FILTER_MIN_PAIRS` pairs of distinct rows and centroids
      compute them all.
    * **No redundant pass.**  When the loop stops on unchanged
      assignments, the centroids have not moved since the last distance
      pass, so its matrix and assignments are final; only a run that
      hits ``max_iter`` needs one more pass.
    * **Summation order.**  Each cluster's weight total is the
      add-reduction (what ``.sum()`` runs) of its slice of the
      stable-sorted weights: the same 1-D operand as ``weights[mask]``,
      so the same pairwise sum (``bincount`` would add sequentially).
      Each centroid's weighted sum reduces its slice of the stable-sorted
      weighted points over axis 0: the same (members, d) operand as the
      masked product, so the same reduction order whatever NumPy picks
      for it — ``np.add.at`` adds rows one by one, and NumPy's axis-0
      reduction does not always (with d = 1 it sums pairwise).
    """
    if isinstance(points, PreparedPoints):
        if weights is not None:
            raise ValueError("a prepared point set carries its own weights")
        prepared = points
    else:
        prepared = PreparedPoints(points, weights)
    if k <= 0:
        raise ValueError("k must be positive")
    points, rows, row_of = prepared.points, prepared.rows, prepared.row_of
    weights = prepared.weights
    n, m = len(points), len(rows)
    k = min(k, n)

    counts = _PairCounts()
    centroids = prepared.initial_centroids(k, seed, counts)
    labels = np.full(m, -1, dtype=np.int64)  # each distinct row's cluster
    iterations = 0
    converged = False

    def distances() -> np.ndarray:
        counts.pairs += n * k
        if m * k < FILTER_MIN_PAIRS:
            counts.exact += m * k
            return pairwise_sq_dists(rows, centroids)
        candidates = _candidates(rows, prepared.norms, centroids)
        counts.exact += int(np.count_nonzero(candidates))
        return pairwise_sq_dists(rows, centroids, candidates)

    for iterations in range(1, max_iter + 1):
        d2 = distances()
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        served = d2[np.arange(m), labels][row_of]
        _update_centroids(
            centroids, labels[row_of], weights, prepared.weighted, points, served
        )
    if not converged:
        d2 = distances()
        labels = d2.argmin(axis=1)
    served = d2[np.arange(m), labels][row_of]
    sse = float((served * weights).sum())
    tm = get_telemetry()
    if tm.enabled:
        tm.counter("simpoint.kmeans.pairs", counts.pairs)
        tm.counter("simpoint.kmeans.exact_pairs", counts.exact)
    return KMeansResult(labels[row_of], centroids, sse, iterations)


def kmeans_best_of(
    points: Union[np.ndarray, PreparedPoints],
    k: int,
    weights: Optional[np.ndarray] = None,
    seeds: int = 5,
    base_seed: int = 0,
    max_iter: int = 100,
) -> KMeansResult:
    """The lowest-SSE clustering over several random initializations."""
    best: Optional[KMeansResult] = None
    for s in range(seeds):
        result = kmeans(points, k, weights, seed=base_seed + s, max_iter=max_iter)
        if best is None or result.sse < best.sse:
            best = result
    assert best is not None
    return best
