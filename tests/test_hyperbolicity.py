import math

import numpy as np
import pytest

from hypcloud import (
    Curvature,
    DistanceMatrix,
    gromov_delta,
    pairwise_distances,
    sampled_delta,
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


def test_pairwise_precomputed_validates_the_matrix():
    dm = pairwise_distances(STAR_TREE.tolist(), "precomputed")
    assert dm.d.dtype == np.float64 and np.array_equal(dm.d, STAR_TREE)
    asymmetric = STAR_TREE.copy()
    asymmetric[1, 2] = 3.0
    with pytest.raises(ValueError, match="must be symmetric"):
        pairwise_distances(asymmetric, "precomputed")
    with pytest.raises(ValueError, match="metric must be one of"):
        pairwise_distances(STAR_TREE, "cosine")


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
    exhaustive = four_point_delta(dm.d)
    for base in range(0, 40, 7):
        assert gromov_delta(dm, base) <= exhaustive + 1e-15


# --- the pruned scan against the dense max-min oracle ------------------------

def _dense_maxmin(m):
    """The dense row loop the pruned scan replaced: max_ij of max_k
    min(M[i,k], M[k,j]) - M[i,j], evaluated over every (i, j, k)."""
    worst = -math.inf
    for i in range(m.shape[0]):
        maxmin = np.minimum(m[i][:, None], m).max(axis=0)
        worst = max(worst, float((maxmin - m[i]).max()))
    return worst


def _oracle_delta(d, base):
    m = 0.5 * (d[:, base][:, None] + d[base, :][None, :] - d)
    return max(0.0, _dense_maxmin(m))


def four_point_delta(d):
    """Exhaustive four-point delta of the matrix d: the dense oracle's
    maximum over every base."""
    return max(_oracle_delta(d, b) for b in range(d.shape[0]))


def _symmetric(a):
    d = a + a.T
    np.fill_diagonal(d, 0.0)
    return d


ORACLE_FAMILIES = {
    "euclidean": lambda rng, n: pairwise_distances(rng.normal(size=(n, 3))).d,
    # no triangle inequality: a diagonal entry of M need not be its row max
    "nonmetric": lambda rng, n: _symmetric(rng.uniform(0.0, 3.0, size=(n, n))),
    "ties": lambda rng, n: _symmetric(rng.integers(0, 3, size=(n, n)).astype(float)),
    "clipped": lambda rng, n: pairwise_distances(
        5.0 * rng.normal(size=(n, 3)), "hyperbolic", curv=Curvature(-1.0)).d,
    "tree": lambda rng, n: random_tree_metric(rng, n - 1).d,
}


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_gromov_delta_matches_dense_oracle(family):
    rng = np.random.default_rng(sorted(ORACLE_FAMILIES).index(family))
    for n in (2, 3, 4, 9, 40, 120):
        for _ in range(3):
            dm = DistanceMatrix(ORACLE_FAMILIES[family](rng, n))
            bases = range(n) if n <= 4 else rng.choice(n, size=4, replace=False)
            for base in bases:
                got = gromov_delta(dm, int(base))
                want = _oracle_delta(dm.d, int(base))
                assert got == want and math.copysign(1.0, got) == 1.0, (n, base)
                if family == "tree":
                    assert got == 0.0


def test_four_point_delta_matches_dense_oracle():
    d = pairwise_distances(np.random.default_rng(13).normal(size=(30, 2))).d
    assert max(gromov_delta(DistanceMatrix(d), b) for b in range(30)) == four_point_delta(d)


def test_gromov_delta_leaves_distances_untouched():
    d = pairwise_distances(np.random.default_rng(14).normal(size=(50, 3))).d
    dm = DistanceMatrix(d)
    before = dm.d.tobytes()
    for base in (0, 17, 49):
        gromov_delta(dm, base)
    assert dm.d.tobytes() == before


# --- sampled protocol --------------------------------------------------------

def test_sampled_tree_metric_near_zero():
    rng = np.random.default_rng(5)
    dm = random_tree_metric(rng, 40)
    for seed in (0, 1, 2):
        report = sampled_delta(dm.d, "precomputed", batch_size=16, n_batches=4, seed=seed)
        assert report.delta <= 1e-9
        assert not report.exact


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
    assert report.delta <= four_point_delta(dm.d)


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
    report = sampled_delta(dm.d, "precomputed", batch_size=40, n_batches=3, seed=2)
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
        assert got == sampled_delta(full.d, "precomputed", batch_size=batch_size, n_batches=3,
                                    seed=4)


def test_sampled_precomputed_checks_the_whole_matrix():
    # rows 5 and 7 lie outside the one batch drawn, yet their asymmetric
    # entry is rejected before any batch is drawn
    draws = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(5,)))
    assert not {5, 7} & set(draws.choice(12, size=4, replace=False).tolist())
    d = pairwise_distances(np.random.default_rng(15).normal(size=(12, 3))).d
    assert sampled_delta(d, "precomputed", batch_size=4, n_batches=1).samples_per_batch == 4
    d[5, 7] += 0.5
    with pytest.raises(ValueError, match="must be symmetric"):
        sampled_delta(d, "precomputed", batch_size=4, n_batches=1)
