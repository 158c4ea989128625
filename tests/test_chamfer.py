import math

import numpy as np
import pytest

from hypcloud import (
    Curvature,
    NNIndex,
    PointCloud,
    chamfer_distance,
    geodesic_distance,
    hyper_chamfer,
    project_to_ball,
)


def cloud(rows):
    return PointCloud(np.asarray(rows, dtype=float))


def loop_nn_oracle(data, queries):
    """Independent brute-force NN oracle (plain python loop over math.dist)."""
    idx, dist = [], []
    for q in queries:
        best = min(range(len(data)), key=lambda j: (math.dist(q, data[j]), j))
        idx.append(best)
        dist.append(math.dist(q, data[best]))
    return np.array(idx), np.array(dist)


# --- index -------------------------------------------------------------------

def test_index_single_point():
    idx = NNIndex(cloud([[1.0, 2.0, 3.0]]))
    i, d = idx.query(np.array([5.0, 2.0, 3.0]))
    assert i == 0 and d == 4.0
    i, d = idx.query(np.array([1.0, 2.0, 3.0]))
    assert d == 0.0


def test_index_matches_bruteforce():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(2048, 3))
    queries = rng.normal(size=(1024, 3))
    idx = NNIndex(cloud(data))
    got_i, got_d = idx.query(queries)
    want_i, want_d = loop_nn_oracle(data, queries)
    assert np.array_equal(got_i, want_i)
    assert np.allclose(got_d, want_d, rtol=0, atol=1e-12)


def test_index_tie_breaks_to_lowest_index():
    data = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0]])
    idx = NNIndex(cloud(data))
    i, d = idx.query(np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert list(i) == [0, 1, 0]
    assert np.allclose(d, [0.5, 0.0, 0.0])


def test_index_rejects_empty():
    with pytest.raises(ValueError):
        NNIndex(np.zeros((0, 3)))


# --- euclidean chamfer -------------------------------------------------------

def test_chamfer_identity_both_variants():
    rng = np.random.default_rng(2)
    x = cloud(rng.normal(size=(64, 3)))
    for variant in ("l1", "l2"):
        assert chamfer_distance(x, x, variant) == 0.0


def test_chamfer_single_point_pair():
    x = cloud([[0.0, 0, 0]])
    y = cloud([[1.0, 0, 0]])
    assert chamfer_distance(x, y, "l1") == 2.0
    assert chamfer_distance(x, y, "l2") == 2.0


def test_chamfer_bad_variant():
    x = cloud([[0.0, 0, 0]])
    with pytest.raises(ValueError):
        chamfer_distance(x, x, "l3")
    with pytest.raises(ValueError):
        chamfer_distance(x, x, "l1", method="magic")


def test_chamfer_kdtree_equals_brute_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = cloud(rng.normal(size=(int(rng.integers(1, 300)), 3)))
        y = cloud(rng.normal(size=(int(rng.integers(1, 300)), 3)))
        for variant in ("l1", "l2"):
            fast = chamfer_distance(x, y, variant, method="kdtree")
            brute = chamfer_distance(x, y, variant, method="brute")
            assert fast == brute


def test_chamfer_symmetric_bit_exact():
    rng = np.random.default_rng(4)
    x = cloud(rng.normal(size=(120, 3)))
    y = cloud(rng.normal(size=(75, 3)))
    for variant in ("l1", "l2"):
        assert chamfer_distance(x, y, variant) == chamfer_distance(y, x, variant)


def test_chamfer_against_loop_oracle():
    rng = np.random.default_rng(5)
    x = cloud(rng.normal(size=(40, 3)))
    y = cloud(rng.normal(size=(23, 3)))
    _, d_xy = loop_nn_oracle(y.points, x.points)
    _, d_yx = loop_nn_oracle(x.points, y.points)
    assert chamfer_distance(x, y, "l1") == pytest.approx(d_xy.mean() + d_yx.mean(), rel=1e-13)
    assert chamfer_distance(x, y, "l2") == pytest.approx(
        (d_xy**2).mean() + (d_yx**2).mean(), rel=1e-12)


# --- hyperbolic chamfer ------------------------------------------------------

def test_hypercd_identity(curv014):
    rng = np.random.default_rng(7)
    x = cloud(rng.normal(size=(32, 3)) * 0.3)
    assert hyper_chamfer(x, x, curv014) == 0.0


def test_hypercd_single_pair_oracle(curv014):
    x = cloud([[0.1, 0, 0]])
    y = cloud([[0.0, 0, 0]])
    # scalar oracle: both directions contribute the same geodesic distance
    one_way = (2 / math.sqrt(0.14)) * math.atanh(math.sqrt(0.14) * 0.1)
    assert hyper_chamfer(x, y, curv014) == pytest.approx(2 * one_way, rel=1e-12)
    px = project_to_ball(x.points[0], curv014)
    py = project_to_ball(y.points[0], curv014)
    assert hyper_chamfer(x, y, curv014) == pytest.approx(
        2 * geodesic_distance(px, py), rel=1e-12)


def test_hypercd_symmetric_bit_exact(curv014):
    rng = np.random.default_rng(8)
    x = cloud(rng.normal(size=(90, 3)))
    y = cloud(rng.normal(size=(110, 3)))
    assert hyper_chamfer(x, y, curv014) == hyper_chamfer(y, x, curv014)


def test_hypercd_euclidean_limit_tightens():
    rng = np.random.default_rng(9)
    x = cloud(rng.uniform(-0.28, 0.28, size=(40, 3)))
    y = cloud(rng.uniform(-0.28, 0.28, size=(40, 3)))
    l1 = chamfer_distance(x, y, "l1")
    errors = []
    for c in (1e-4, 1e-6, 1e-8):
        h = hyper_chamfer(x, y, Curvature(-c))
        errors.append(abs(h - 2 * l1) / (2 * l1))
    assert errors[0] < 1e-3
    assert errors[0] > errors[1] > errors[2]


def test_hypercd_nn_is_hyperbolic_not_euclidean():
    # construct a case where the euclidean NN differs from the hyperbolic one:
    # near the boundary, small euclidean offsets cost huge geodesic distance.
    curv = Curvature(-1.0)
    x = cloud([[0.55, 0.0, 0.0]])
    y = cloud([[0.9, 0.0, 0.0], [0.0, 0.3, 0.0]])
    # euclidean nearest to x is y[0] (0.35 < ~0.63), hyperbolic nearest is y[1]
    px = project_to_ball(x.points[0], curv)
    d0 = geodesic_distance(px, project_to_ball(y.points[0], curv))
    d1 = geodesic_distance(px, project_to_ball(y.points[1], curv))
    assert np.linalg.norm(x.points[0] - y.points[0]) < np.linalg.norm(x.points[0] - y.points[1])
    assert d1 < d0
    got = hyper_chamfer(x, y, curv)
    # x -> y picks the hyperbolic minimum d1; both y points map back to x
    assert got == pytest.approx(d1 + (d0 + d1) / 2, rel=1e-12)


def test_chamfer_indiscernibles_set_level():
    # zero iff every point of X has a coincident point in Y and vice versa
    rng = np.random.default_rng(10)
    base = rng.normal(size=(20, 3))
    x = cloud(np.vstack([base, base[:5]]))       # duplicates allowed
    y = cloud(base[rng.permutation(20)])
    assert chamfer_distance(x, y, "l1") == 0.0
    extra = cloud(np.vstack([base, [[50.0, 0, 0]]]))
    assert chamfer_distance(extra, y, "l1") > 0.0
    assert chamfer_distance(y, extra, "l2") > 0.0
