import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import hypcloud.chamfer as chamfer_module
from hypcloud.chamfer import euclidean_distance_matrix
from hypcloud.cli import main
from hypcloud.poincare import CHUNK_ROWS
from hypcloud import (
    Curvature,
    NNIndex,
    NumericalDomainError,
    PointCloud,
    chamfer_distance,
    clip_to_ball,
    evaluate,
    geodesic_distance,
    geodesic_distance_matrix,
    hyper_chamfer,
    write_xyz,
)

from conftest import project_to_ball


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
    # a batch with an exact hit and a far point, through the tree's k=2 query
    i, d = idx.query(np.array([[1.0, 2.0, 3.0], [1e6, 2.0, 3.0], [1.0, -2.0, 0.0]]))
    assert i.dtype == np.intp and list(i) == [0, 0, 0]
    assert list(d) == [0.0, 1e6 - 1.0, 5.0]


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


def tie_pair(kind, scale):
    """(x, y) whose nearest neighbours tie exactly: every target point twice,
    or both clouds on a 0.25 grid.  At scale 6 most rows clip to the ball."""
    rng = np.random.default_rng(21)
    if kind == "duplicated":
        base = rng.normal(size=(50, 3))
        return scale * rng.normal(size=(100, 3)), scale * np.vstack([base, base[rng.permutation(50)]])
    x, y = np.round(4.0 * rng.normal(size=(2, 100, 3))) / 4.0
    return scale * x, scale * y


@pytest.mark.parametrize("scale", [1.0, 6.0], ids=["interior", "x6"])
@pytest.mark.parametrize("kind", ["duplicated", "grid"])
def test_exact_ties(kind, scale, tmp_path, capsys):
    # The tree reports tied rows in any order; the search must still find the
    # lowest index.  A tie repair that ball-queried with the tree's own
    # distance as the radius could find no point and raised here.
    x, y = tie_pair(kind, scale)
    dm = euclidean_distance_matrix(x, y)
    i, d = NNIndex(cloud(y)).query(x)
    assert np.array_equal(i, loop_nn_oracle(y, x)[0])
    assert np.array_equal(d, dm.min(axis=1))
    for variant in ("l1", "l2"):
        assert (chamfer_distance(cloud(x), cloud(y), variant)
                == chamfer_distance(cloud(x), cloud(y), variant, method="brute"))
    d_pred, d_gt = dm.min(axis=1), dm.min(axis=0)
    rep = evaluate(cloud(x), cloud(y), 0.5 * scale)
    prec, recall = (d_pred <= 0.5 * scale).mean(), (d_gt <= 0.5 * scale).mean()
    assert (rep.acc, rep.comp, rep.prec, rep.recall) == (d_pred.mean(), d_gt.mean(), prec, recall)
    assert rep.f1 == 2.0 * prec * recall / (prec + recall)
    curv = Curvature(-0.14)
    xb, yb = clip_to_ball(x, curv), clip_to_ball(y, curv)
    gm = geodesic_distance_matrix(xb, yb, curv)
    d_xy, d_yx = chamfer_module._hyper_minima(xb, yb, curv)
    assert np.array_equal(d_xy, gm.min(axis=1)) and np.array_equal(d_yx, gm.min(axis=0))
    a, b = tmp_path / "x.xyz", tmp_path / "y.xyz"
    write_xyz(a, cloud(x))
    write_xyz(b, cloud(y))
    assert main(["chamfer", str(a), str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == (d_pred.mean() + d_gt.mean())
    assert main(["metrics", str(a), str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["acc"] == d_pred.mean()


def test_nn_queries_go_through_the_module_index(monkeypatch):
    # A benchmark tracer subclasses chamfer.NNIndex by name and counts its
    # queries; every Euclidean query, the tied rows' ball queries included,
    # must reach it.
    seen = {"built": 0, "queries": 0}

    class CountingIndex(chamfer_module.NNIndex):
        def __init__(self, *args, **kwargs):
            seen["built"] += 1
            super().__init__(*args, **kwargs)

        def query(self, queries):
            seen["queries"] += np.atleast_2d(queries).shape[0]
            return super().query(queries)

    monkeypatch.setattr(chamfer_module, "NNIndex", CountingIndex)
    x, y = tie_pair("grid", 1.0)
    x, y = cloud(x), cloud(y[:70])
    want = chamfer_distance(x, y, "l2", method="brute")
    assert chamfer_distance(x, y, "l2") == want
    assert seen == {"built": 2, "queries": 170}
    evaluate(x, y)
    assert seen == {"built": 4, "queries": 340}


def test_index_rejects_empty():
    with pytest.raises(ValueError):
        NNIndex(np.zeros((0, 3)))


# --- euclidean distance matrix ----------------------------------------------

@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_euclidean_matrix_equals_cdist(scale):
    rng = np.random.default_rng(6)
    x = scale * rng.normal(size=(300, 3))
    y = scale * rng.normal(size=(270, 3))
    d = euclidean_distance_matrix(x, y)
    assert np.array_equal(d, cdist(x, y))
    assert np.array_equal(d, euclidean_distance_matrix(y, x).T)
    assert np.all(np.diag(euclidean_distance_matrix(x, x)) == 0.0)


def test_euclidean_matrix_symmetric_in_high_dimension():
    # cdist sums the 16 squares in sequence, so it differs in the last bits
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 16))
    y = rng.normal(size=(270, 16))
    assert np.array_equal(euclidean_distance_matrix(x, y), euclidean_distance_matrix(y, x).T)
    assert np.all(np.diag(euclidean_distance_matrix(x, x)) == 0.0)


def test_euclidean_matrix_memory():
    # The output plus one chunk's difference array squared in place; squaring
    # a difference that is still referenced would hold two of them at once.
    n = 1500
    x = np.random.default_rng(8).normal(size=(n, 3))
    tracemalloc.start()
    try:
        euclidean_distance_matrix(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = CHUNK_ROWS * n * 3 * 8
    assert peak < n * n * 8 + 1.5 * chunk


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


def oracle_pairs(rng, c):
    """(name, x, y) cloud pairs that stress the pruned hyperbolic search."""
    radius = 1.0 / math.sqrt(c)
    inside = rng.uniform(-0.5, 0.5, size=(160, 3)) * radius
    yield "interior", inside, inside[:120] + rng.normal(0.0, 0.02 * radius, size=(120, 3))
    # x6 as in the boundary benchmark: most points land on the clip margin
    gt = rng.normal(0.0, 0.25 * radius, size=(150, 3))
    yield "margin", 6.0 * (gt + rng.normal(0.0, 0.03 * radius, size=gt.shape)), 6.0 * gt[:130]
    sphere = rng.normal(size=(380, 3)) * 6.0 * radius
    yield "margin-only", sphere[:190], sphere[190:]
    direction = rng.normal(size=(220, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    spread = direction * radius * (1.0 - 2.0 ** -rng.uniform(0.0, 18.0, size=(220, 1)))
    yield "shells", spread[:100], spread[100:]
    yield "shells-vs-interior", spread, inside
    dup = np.vstack([inside[:40], inside[:10], inside[5:15]])
    yield "duplicates", dup, inside[rng.permutation(60)]
    yield "same", spread, spread
    lattice = np.round(rng.uniform(-1.0, 1.0, size=(120, 3)) * 3.0) / 3.0 * 0.9 * radius
    yield "lattice", lattice[:70], lattice[70:]
    yield "lattice-margin", 4.0 * lattice[:60], 4.0 * lattice[60:] + 0.5 * radius
    yield "1x1", inside[:1], spread[:1]
    yield "1x50", spread[:1], inside[:50]
    yield "2x1", spread[:2], inside[:1]
    yield "2x2", 6.0 * inside[:2], inside[2:4]
    yield "40x2", 6.0 * gt[:40], spread[:2]


@pytest.mark.parametrize("eps", [1e-5, 1e-7])
@pytest.mark.parametrize("c", [0.14, 1.0, 2.5])
def test_hypercd_pruned_minima_equal_dense(c, eps):
    curv = Curvature(-c)
    rng = np.random.default_rng(11)
    for name, x, y in oracle_pairs(rng, c):
        xb, yb = clip_to_ball(x, curv, eps), clip_to_ball(y, curv, eps)
        dm = geodesic_distance_matrix(xb, yb, curv)
        d_xy, d_yx = chamfer_module._hyper_minima(xb, yb, curv)
        assert np.array_equal(d_xy, dm.min(axis=1)), name
        assert np.array_equal(d_yx, dm.min(axis=0)), name
        want = float(dm.min(axis=1).mean() + dm.min(axis=0).mean())
        assert hyper_chamfer(cloud(x), cloud(y), curv, eps) == want, name


def test_hypercd_oracle_clouds_span_many_shells():
    # shells group a cloud by the binary exponent of 1 - c|y|^2
    curv = Curvature(-2.5)
    clouds = {name: y for name, _, y in oracle_pairs(np.random.default_rng(11), curv.c)}
    for name, least in (("shells", 12), ("margin", 4)):
        yb = clip_to_ball(clouds[name], curv)
        assert len(np.unique(np.frexp(1.0 - curv.c * (yb * yb).sum(axis=1))[1])) >= least, name


def test_hypercd_needs_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hyper_chamfer built the dense distance matrix")

    monkeypatch.setattr(chamfer_module, "geodesic_distance_matrix", refuse)
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, size=(16384, 3))
    y = x + rng.normal(0.0, 0.03, size=x.shape)
    tracemalloc.start()
    try:
        got = hyper_chamfer(cloud(x), cloud(y), Curvature(-0.14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < got < math.inf
    # the dense 16384 x 16384 float64 matrix alone takes 2 GiB
    assert peak < 64 * 2**20


def test_hypercd_vacuous_bound_takes_whole_shells():
    # At eps = 4e-8 the error bound says nothing, so every target is a
    # candidate; whole shells are evaluated in blocks, not as index lists.
    curv = Curvature(-0.14)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2048, 3)) * 6.0 / math.sqrt(0.14)
    y = x + rng.normal(0.0, 0.01, size=x.shape)
    xb, yb = clip_to_ball(x, curv, 4e-8), clip_to_ball(y, curv, 4e-8)
    a_x, a_y = (1.0 - curv.c * (pts * pts).sum(axis=1) for pts in (xb, yb))
    assert chamfer_module.distance_tolerance(a_x.min() * a_y.min(), 3) == math.inf
    dm = geodesic_distance_matrix(xb, yb, curv)
    want = float(dm.min(axis=1).mean() + dm.min(axis=0).mean())
    del dm
    tracemalloc.start()
    try:
        got = hyper_chamfer(cloud(x), cloud(y), curv, 4e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # index lists for every pair took about 330 MB here
    assert peak < 32 * 2**20


def test_hypercd_where_dense_raised():
    # At eps = 1e-8 the Mobius-form distance of two margin points can round
    # its arctanh argument up to 1 (the pruning bound is vacuous there).  The
    # dense matrix raised on such a pair although no nearest neighbour needs it.
    curv = Curvature(-0.14)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(200, 3)) * 6.0 / math.sqrt(0.14)
    xb = clip_to_ball(x, curv, 1e-8)
    with pytest.raises(NumericalDomainError):
        geodesic_distance_matrix(xb, xb, curv)
    # every point's seed is itself at distance 0, so no other pair is evaluated
    assert hyper_chamfer(cloud(x), cloud(x), curv, 1e-8) == 0.0
    # a jittered copy makes every pair a candidate, and those reaching 1 raise
    y = x + rng.normal(0.0, 0.01, size=x.shape)
    with pytest.raises(NumericalDomainError):
        hyper_chamfer(cloud(x), cloud(y), curv, 1e-8)


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
