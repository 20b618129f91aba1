"""Weighted k-means with k-means++ seeding.

SimPoint 2.0 clusters equal-weight intervals; SimPoint 3.0 VLI weights
each interval by the fraction of execution it represents so that a long
interval influences the centroids proportionally.  Both reduce to this
one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """Pairs a plain pass would compute exactly, and those computed."""

    __slots__ = ("pairs", "exact")

    def __init__(self) -> None:
        self.pairs = 0
        self.exact = 0


def _plusplus_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    norms: np.ndarray,
    sq_norms: np.ndarray,
    counts: _PairCounts,
) -> np.ndarray:
    """k-means++ seeding (weighted).

    After each draw, a point's ``closest`` distance changes only if the
    new centroid is nearer; the filter bound of :func:`kmeans` rules
    that out for most points, so only the rest get the exact
    subtract-square-sum, and ``np.minimum`` sees the same values as on
    the full column.
    """
    n = len(points)
    scale = _error_scale(points.shape[1])
    centroids = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centroids[0] = points[first]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    counts.pairs += n
    counts.exact += n
    for j in range(1, k):
        scores = closest * weights
        total = np.add.reduce(scores)
        if total <= 0:
            # all points coincide with chosen centroids; duplicate one
            centroids[j:] = centroids[0]
            break
        idx = rng.choice(n, p=scores / total)
        centroids[j] = points[idx]
        counts.pairs += n
        if n < FILTER_MIN_PAIRS:
            dist = np.add.reduce(np.square(points - centroids[j]), axis=1)
            np.minimum(closest, dist, out=closest)
            counts.exact += n
            continue
        approx = points @ centroids[j]
        approx *= -2.0
        approx += sq_norms
        approx += sq_norms[idx]
        bound = norms + norms[idx]
        bound *= bound
        bound *= scale
        approx -= bound
        near = np.nonzero(approx <= closest)[0]
        dist = np.add.reduce(np.square(points[near] - centroids[j]), axis=1)
        closest[near] = np.minimum(closest[near], dist)
        counts.exact += len(near)
    return centroids


def _update_centroids(
    centroids: np.ndarray,
    assignments: np.ndarray,
    weights: np.ndarray,
    weighted: np.ndarray,
    points: np.ndarray,
    d2: np.ndarray,
) -> None:
    """Move every centroid to its members' weighted mean, in place; an
    empty (or weightless) cluster re-seeds at the worst-served point.
    Summation order: see :func:`kmeans`."""
    order = np.argsort(assignments, kind="stable")
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
                worst = (d2[np.arange(len(points)), assignments] * weights).argmax()
            centroids[j] = points[worst]


def kmeans(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    seed: int = 0,
    max_iter: int = 100,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ init; deterministic per seed.

    Bit-identical to :func:`repro.verify.oracles.oracle_kmeans` (the
    plain algorithm: a full subtract-square-sum distance matrix per
    pass, masked per-cluster sums), at a fraction of the distance work:

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
      ``a - E <= closest`` per point to skip the points the new
      centroid cannot bring closer.  Passes over fewer than
      :data:`FILTER_MIN_PAIRS` pairs compute them all.
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
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != n:
        raise ValueError("weights length mismatch")
    if weights.sum() <= 0:
        raise ValueError("total weight must be positive")

    counts = _PairCounts()
    sq_norms = (points * points).sum(axis=1)
    norms = np.sqrt(sq_norms)
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(points, weights, k, rng, norms, sq_norms, counts)
    weighted = points * weights[:, None]
    assignments = np.full(n, -1, dtype=np.int64)
    iterations = 0
    converged = False

    def distances() -> np.ndarray:
        counts.pairs += n * k
        if n * k < FILTER_MIN_PAIRS:
            counts.exact += n * k
            return pairwise_sq_dists(points, centroids)
        candidates = _candidates(points, norms, centroids)
        counts.exact += int(np.count_nonzero(candidates))
        return pairwise_sq_dists(points, centroids, candidates)

    for iterations in range(1, max_iter + 1):
        d2 = distances()
        new_assignments = d2.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        _update_centroids(centroids, assignments, weights, weighted, points, d2)
    if not converged:
        d2 = distances()
        assignments = d2.argmin(axis=1)
    sse = float((d2[np.arange(n), assignments] * weights).sum())
    tm = get_telemetry()
    if tm.enabled:
        tm.counter("simpoint.kmeans.pairs", counts.pairs)
        tm.counter("simpoint.kmeans.exact_pairs", counts.exact)
    return KMeansResult(assignments, centroids, sse, iterations)


def kmeans_best_of(
    points: np.ndarray,
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
