"""Unit tests for weighted k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simpoint.kmeans import PreparedPoints, kmeans, kmeans_best_of
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


# -- runs sharing one prepared set ---------------------------------------------


def _sweep(points, weights, runs):
    """Run every (k, seed) of *runs* in order on one prepared set; each
    must equal a plain oracle run, and so must its initial centroids
    (``max_iter=0``), which Lloyd updates could otherwise wash out."""
    prepared = PreparedPoints(points, weights)
    for k, seed in runs:
        for max_iter in (0, 100):
            got = kmeans(prepared, k, seed=seed, max_iter=max_iter)
            want = oracle_kmeans(points, k, weights, seed=seed, max_iter=max_iter)
            assert _identical(got, want), (k, seed, max_iter)
    return prepared


def _simpoint_runs(k_max, seeds, base=0):
    """SimPoint's sweep: run (k, s) is seeded base + k + s."""
    return [(k, base + k + s) for k in range(1, k_max + 1) for s in range(seeds)]


@pytest.mark.parametrize("weighted", [False, True])
def test_simpoint_sweep_over_repeated_rows(weighted):
    """k = 1..30 with 5 seeds per k on 900 points over 100 distinct rows:
    each seed's draws are extended across up to five k."""
    rng = np.random.default_rng(900)
    distinct = rng.normal(size=(100, 15)) * 10.0 ** rng.integers(-2, 3, size=(100, 1))
    points = distinct[rng.permutation(np.arange(900) % 100)]
    weights = rng.random(900) if weighted else None
    prepared = _sweep(points, weights, _simpoint_runs(30, 5, base=2006))
    assert len(prepared.rows) == 100


def test_identical_points_fill_then_extend():
    """All points equal: every sequence stops after one draw (``total <=
    0``) and fills with it, at the k that first asks and at larger k."""
    points = np.full((40, 3), 2.5)
    prepared = _sweep(points, None, [(3, 7), (1, 7), (8, 7), (2, 8), (12, 8)])
    assert len(prepared.rows) == 1
    assert all(len(d.picks) == 1 for d in prepared._draws.values())


def test_sequence_exhausts_after_distinct_rows():
    """Three distinct rows: draws stop at the fourth, and the runs that
    ask for more fill with the first draw."""
    rng = np.random.default_rng(3)
    points = np.array([[0.0, 1.0], [4.0, -2.0], [9.0, 9.0]])[rng.integers(0, 3, 60)]
    prepared = _sweep(points, rng.random(60), [(2, 1), (6, 1), (3, 1), (10, 2), (1, 2)])
    assert all(len(d.picks) == 3 for d in prepared._draws.values())


def test_rows_differing_in_the_sign_of_zero():
    """-0.0 and 0.0 are distinct rows by bytes; each centroid keeps the
    bytes of the point it was drawn from."""
    rng = np.random.default_rng(4)
    base = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [3.0, 0.0]])
    points = base[rng.integers(0, len(base), 80)]
    prepared = _sweep(points, None, _simpoint_runs(5, 3))
    assert len(prepared.rows) == len(base)


def test_zero_weights_on_some_copies_of_a_row():
    """A row whose copies are weighted on some points and zero on
    others: draws and cluster totals see each point's own weight."""
    rng = np.random.default_rng(5)
    distinct = rng.normal(size=(12, 4))
    points = distinct[np.arange(120) % 12]
    weights = rng.random(120)
    weights[(np.arange(120) % 12 < 6) & (np.arange(120) % 24 < 12)] = 0.0
    _sweep(points, weights, _simpoint_runs(10, 3))


def test_k_max_above_the_point_count():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(7, 3))[rng.integers(0, 7, 9)]
    prepared = PreparedPoints(points)
    for k, seed in _simpoint_runs(14, 2):
        got = kmeans(prepared, k, seed=seed)
        assert got.k == min(k, len(points))
        assert _identical(got, oracle_kmeans(points, k, seed=seed)), (k, seed)


def test_smaller_k_after_larger_is_a_prefix():
    """A run for a smaller k after a larger one on the same seed starts
    from the first k draws, not a redraw."""
    rng = np.random.default_rng(7)
    points = rng.normal(size=(300, 15))
    weights = rng.random(300)
    prepared = _sweep(points, weights, [(20, 11), (4, 11), (1, 11), (25, 11), (9, 11)])
    assert len(prepared._draws[11].picks) == 25


def test_runs_start_from_their_own_centroids():
    """One run's Lloyd updates never change the centroids a later run
    on the same seed starts from, and no run writes into another's
    result."""
    points, _ = blobs(seed=8, spread=3.0)
    want = oracle_kmeans(points, 5, seed=3)
    prepared = PreparedPoints(points)
    first = kmeans(prepared, 5, seed=3)
    assert _identical(first, want)
    assert _identical(kmeans(prepared, 4, seed=4), oracle_kmeans(points, 4, seed=4))
    assert _identical(first, want)
    first.centroids[:] = np.nan
    assert _identical(kmeans(prepared, 5, seed=3), want)


def test_prepared_points_carry_their_weights():
    points, _ = blobs()
    with pytest.raises(ValueError):
        kmeans(PreparedPoints(points), 3, weights=np.ones(len(points)))
    with pytest.raises(ValueError):
        kmeans(PreparedPoints(points), 0)
