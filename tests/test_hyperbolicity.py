import numpy as np
import pytest

from hypcloud import (
    DistanceMatrix,
    four_point_delta,
    gromov_delta,
    pairwise_distances,
    sampled_delta,
    sampled_delta_matrix,
)

STAR_TREE = np.array([
    [0.0, 1, 1, 1],
    [1, 0, 2, 2],
    [1, 2, 0, 2],
    [1, 2, 2, 0],
])


def random_tree_metric(rng, n_leaves):
    """Distance matrix of a random weighted star with dyadic edge lengths."""
    edges = rng.integers(1, 64, size=n_leaves) / 16.0
    n = n_leaves + 1
    d = np.zeros((n, n))
    for i in range(n_leaves):
        d[0, i + 1] = d[i + 1, 0] = edges[i]
        for j in range(i):
            d[i + 1, j + 1] = d[j + 1, i + 1] = edges[i] + edges[j]
    return DistanceMatrix(d)


# --- DistanceMatrix ----------------------------------------------------------

def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, -1], [-1, 0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[1.0, 1], [1, 0]]))
    assert DistanceMatrix(STAR_TREE).n == 4


def test_pairwise_euclidean_square():
    pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    dm = pairwise_distances(pts, "euclidean")
    off = sorted(dm.d[np.triu_indices(4, 1)])
    assert off == pytest.approx([1, 1, 1, 1, np.sqrt(2), np.sqrt(2)])


def test_pairwise_identical_points_and_bounds():
    pts = np.array([[1.0, 2, 3], [1.0, 2, 3]])
    assert pairwise_distances(pts).d[0, 1] == 0.0
    with pytest.raises(ValueError):
        pairwise_distances(pts[:1])


def test_pairwise_hyperbolic_symmetric(curv014):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(64, 3))
    dm = pairwise_distances(pts, "hyperbolic", curv=curv014)
    assert np.array_equal(dm.d, dm.d.T)
    assert np.max(np.abs(dm.d - dm.d.T)) < 1e-10
    with pytest.raises(ValueError):
        pairwise_distances(pts, "hyperbolic")


# --- gromov delta ------------------------------------------------------------

def test_two_point_delta_zero():
    dm = DistanceMatrix(np.array([[0.0, 3], [3, 0]]))
    assert gromov_delta(dm, 0) == 0.0


def test_star_tree_delta_zero():
    dm = DistanceMatrix(STAR_TREE)
    for base in range(4):
        assert gromov_delta(dm, base) <= 1e-9


def test_square_delta_oracle():
    pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    dm = pairwise_distances(pts)
    assert gromov_delta(dm, 0) == pytest.approx(np.sqrt(2) - 1, abs=1e-6)


def test_three_point_sets_delta_zero_exact():
    # exactly representable metrics: delta is exactly 0 for any 3-point space
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.integers(1, 200, size=2) / 32.0
        c = rng.integers(max(1, int(32 * abs(a - b)) + 1), int(32 * (a + b)), endpoint=True) / 32.0
        d = np.array([[0, a, b], [a, 0, c], [b, c, 0.0]])
        dm = DistanceMatrix(d)
        for base in range(3):
            assert gromov_delta(dm, base) == 0.0


def test_gromov_delta_bad_base():
    dm = DistanceMatrix(STAR_TREE)
    with pytest.raises(ValueError):
        gromov_delta(dm, 4)
    with pytest.raises(ValueError):
        gromov_delta(dm, -1)


def test_scale_covariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 4))
    dm = pairwise_distances(pts)
    base = 3
    d1 = gromov_delta(dm, base)
    d2 = gromov_delta(DistanceMatrix(2.5 * dm.d), base)
    assert abs(d2 - 2.5 * d1) <= 1e-12 * max(1.0, d1)


def test_fixed_base_below_four_point():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    dm = pairwise_distances(pts)
    exhaustive = four_point_delta(dm)
    for base in range(0, 40, 7):
        assert gromov_delta(dm, base) <= exhaustive + 1e-15


def test_maxmin_workers_identical():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(150, 3))
    dm = pairwise_distances(pts)
    assert gromov_delta(dm, 5, workers=1) == gromov_delta(dm, 5, workers=4)


# --- sampled protocol --------------------------------------------------------

def test_sampled_tree_metric_near_zero():
    rng = np.random.default_rng(5)
    dm = random_tree_metric(rng, 40)
    for seed in (0, 1, 2):
        report = sampled_delta_matrix(dm, batch_size=16, n_batches=4, seed=seed)
        assert report.delta <= 1e-9
        assert not report.exact
        # the exhaustive scan runs on an exact pass only
        assert report.four_point is None


def test_sampled_deterministic():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 5))
    a = sampled_delta(pts, "euclidean", batch_size=20, n_batches=3, seed=9)
    b = sampled_delta(pts, "euclidean", batch_size=20, n_batches=3, seed=9)
    assert a == b


def test_sampled_fallback_exact():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 3))
    dm = pairwise_distances(pts)
    report = sampled_delta(pts, "euclidean", batch_size=1500, n_batches=3, seed=0)
    assert report.exact and report.batches == 1 and report.samples_per_batch == 12
    base = int(np.argmax(dm.d.sum(axis=1)))
    assert report.base_point == base
    assert report.delta == gromov_delta(dm, base)
    assert report.delta_rel == pytest.approx(2 * report.delta / dm.d.max())
    # small sets also report the exhaustive four-point value
    assert report.four_point is not None
    assert report.delta <= report.four_point + 1e-15


def test_sampled_delta_rel_scale_free():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(25, 4))
    a = sampled_delta(pts, "euclidean", seed=3)
    b = sampled_delta(pts * 7.5, "euclidean", seed=3)
    assert a.delta_rel == pytest.approx(b.delta_rel, rel=1e-12)
    assert b.delta == pytest.approx(7.5 * a.delta, rel=1e-12)


def test_sampled_validation():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 3))
    with pytest.raises(ValueError):
        sampled_delta(pts, batch_size=3)
    with pytest.raises(ValueError):
        sampled_delta(pts, n_batches=0)


def test_sampled_base_point_is_input_row():
    rng = np.random.default_rng(10)
    dm = pairwise_distances(rng.normal(size=(300, 3)))
    report = sampled_delta_matrix(dm, batch_size=40, n_batches=3, seed=2)
    # replay the protocol's seeded draws up to the last batch
    draws = np.random.default_rng(np.random.SeedSequence(entropy=2, spawn_key=(5,)))
    for _ in range(3):
        pick = np.sort(draws.choice(300, size=40, replace=False))
    assert report.base_point == pick[np.argmax(dm.d[np.ix_(pick, pick)].sum(axis=1))]


@pytest.mark.parametrize("metric", ["euclidean", "hyperbolic"])
def test_sampled_delta_matches_full_matrix(metric, curv014):
    # sub-matrices built from the sampled rows equal slices of the full matrix
    pts = np.random.default_rng(11).normal(size=(80, 3))
    full = pairwise_distances(pts, metric, curv=curv014)
    for batch_size in (20, 100):
        got = sampled_delta(pts, metric, batch_size=batch_size, n_batches=3, seed=4, curv=curv014)
        assert got == sampled_delta_matrix(full, batch_size=batch_size, n_batches=3, seed=4)
