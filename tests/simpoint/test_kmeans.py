"""Unit tests for weighted k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simpoint.kmeans import kmeans, kmeans_best_of
from repro.verify.oracles import oracle_kmeans


def blobs(seed=0, n=50, centers=((0, 0), (10, 10), (-10, 5)), spread=0.5):
    rng = np.random.default_rng(seed)
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(rng.normal(c, spread, size=(n, len(c))))
        labels.extend([i] * n)
    return np.vstack(points), np.array(labels)


def test_recovers_separated_blobs():
    points, truth = blobs()
    result = kmeans_best_of(points, 3, seeds=5)
    # clusters match truth up to relabeling
    for t in range(3):
        members = result.assignments[truth == t]
        assert len(set(members.tolist())) == 1


def test_assignment_is_nearest_centroid():
    points, _ = blobs()
    result = kmeans(points, 3, seed=1)
    d2 = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(result.assignments, d2.argmin(axis=1))


def test_k1_centroid_is_weighted_mean():
    points = np.array([[0.0], [10.0]])
    weights = np.array([3.0, 1.0])
    result = kmeans(points, 1, weights=weights, seed=0)
    assert result.centroids[0, 0] == pytest.approx(2.5)


def test_weights_pull_centroids():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    heavy_low = kmeans(points, 1, weights=np.array([100.0, 100.0, 1.0, 1.0]))
    heavy_high = kmeans(points, 1, weights=np.array([1.0, 1.0, 100.0, 100.0]))
    assert heavy_low.centroids[0, 0] < heavy_high.centroids[0, 0]


def test_k_capped_at_n():
    points = np.array([[0.0], [1.0]])
    result = kmeans(points, 10)
    assert result.k <= 2


def test_identical_points():
    points = np.zeros((10, 3))
    result = kmeans(points, 3, seed=2)
    assert result.sse == pytest.approx(0.0)


def test_deterministic_per_seed():
    points, _ = blobs(seed=3)
    a = kmeans(points, 3, seed=42)
    b = kmeans(points, 3, seed=42)
    assert np.array_equal(a.assignments, b.assignments)


def test_best_of_no_worse_than_single():
    points, _ = blobs(seed=4, spread=3.0)
    single = kmeans(points, 3, seed=0)
    best = kmeans_best_of(points, 3, seeds=8, base_seed=0)
    assert best.sse <= single.sse + 1e-9


def test_validation():
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)), 2)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 2, weights=np.ones(2))
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 2, weights=np.zeros(3))


def test_sse_decreases_with_k():
    points, _ = blobs(seed=5, spread=2.0)
    sses = [kmeans_best_of(points, k, seeds=4).sse for k in (1, 2, 3, 5)]
    assert sses == sorted(sses, reverse=True)


# -- bit-identity with the plain algorithm ------------------------------------


def _identical(got, want):
    return (
        np.array_equal(got.assignments, want.assignments)
        and got.centroids.tobytes() == want.centroids.tobytes()
        and got.sse == want.sse
        and got.iterations == want.iterations
    )


def _points(shape, n, d, rng):
    if shape == "gauss":
        # mixed magnitudes stress the filter bound's norm terms
        return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    if shape == "duplicates":
        distinct = rng.normal(size=(max(1, n // 25), d))
        return distinct[rng.integers(0, len(distinct), n)]
    if shape == "lattice":
        # integer grid points: many exactly equidistant centroid pairs
        return rng.integers(0, 3, size=(n, d)).astype(float)
    raise ValueError(shape)


def _weights(kind, n, rng):
    if kind == "none":
        return None
    w = rng.random(n)
    if kind == "zeros":
        w[rng.random(n) < 0.3] = 0.0
        w[0] = 1.0
    return w


@pytest.mark.parametrize("d", [1, 2, 15, 20])
@pytest.mark.parametrize("shape", ["gauss", "duplicates", "lattice"])
@pytest.mark.parametrize("weights", ["none", "random", "zeros"])
def test_bit_identical_to_oracle(d, shape, weights):
    """Assignments, centroid bytes, SSE and iteration counts equal the
    plain algorithm's: on either side of the filter's size switch, with
    ties, duplicate points (empty clusters), zero weights and k >= n."""
    rng = np.random.default_rng(d * 100 + len(shape) * 10 + len(weights))
    for n, k in ((9, 12), (60, 5), (300, 8), (700, 30)):
        points = _points(shape, n, d, rng)
        w = _weights(weights, n, rng)
        got = kmeans(points, k, w, seed=n)
        assert _identical(got, oracle_kmeans(points, k, w, seed=n)), (n, k)


def test_bit_identical_to_oracle_large():
    rng = np.random.default_rng(2006)
    points = _points("duplicates", 3000, 15, rng)
    weights = rng.random(3000)
    for k in (2, 10, 30):
        assert _identical(kmeans(points, k, weights, seed=k), oracle_kmeans(points, k, weights, seed=k))


def test_bit_identical_when_max_iter_stops_the_loop():
    points, _ = blobs(seed=6, spread=4.0)
    for max_iter in (0, 1, 2):
        got = kmeans(points, 3, seed=1, max_iter=max_iter)
        assert _identical(got, oracle_kmeans(points, 3, seed=1, max_iter=max_iter))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 120),
    d=st.sampled_from([1, 2, 3, 15]),
    k=st.integers(1, 12),
    distinct=st.integers(1, 40),
)
def test_bit_identical_property(seed, n, d, k, distinct):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(distinct, d))[rng.integers(0, distinct, n)]
    weights = rng.random(n) * (rng.random(n) < 0.8)
    if weights.sum() <= 0:
        weights[0] = 1.0
    assert _identical(kmeans(points, k, weights, seed=seed), oracle_kmeans(points, k, weights, seed=seed))
