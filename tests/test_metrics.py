import numpy as np
import pytest

from hypcloud import PointCloud, chamfer_distance, evaluate
from hypcloud.metrics import MetricsReport


def cloud(rows):
    return PointCloud(np.asarray(rows, dtype=float))


def test_identical_clouds_perfect():
    rng = np.random.default_rng(0)
    x = cloud(rng.normal(size=(50, 3)))
    for threshold in (1e-6, 0.1, 10.0):
        rep = evaluate(x, x, threshold)
        assert rep.acc == rep.comp == rep.cd == 0.0
        assert rep.prec == rep.recall == rep.f1 == 1.0


def test_hand_example():
    pred = cloud([[0.0, 0, 0], [1, 0, 0]])
    gt = cloud([[0.0, 0, 0]])
    rep = evaluate(pred, gt, 0.5)
    assert rep.acc == 0.5
    assert rep.comp == 0.0
    assert rep.cd == 0.5
    assert rep.prec == 0.5
    assert rep.recall == 1.0
    assert rep.f1 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_shifted_beyond_threshold_all_zero():
    # well-separated grid shifted by 2x the threshold along one axis
    base = np.array([[i * 10.0, 0.0, 0.0] for i in range(5)])
    pred = cloud(base + np.array([0.2, 0.0, 0.0]))
    gt = cloud(base)
    rep = evaluate(pred, gt, 0.1)
    assert rep.prec == rep.recall == rep.f1 == 0.0


def test_role_swap_identity_bit_exact():
    rng = np.random.default_rng(1)
    x = cloud(rng.normal(size=(40, 3)))
    y = cloud(rng.normal(size=(25, 3)))
    a = evaluate(x, y, 0.1)
    b = evaluate(y, x, 0.1)
    assert a.acc == b.comp
    assert a.comp == b.acc
    assert a.prec == b.recall
    assert a.recall == b.prec


def test_monotone_in_threshold():
    rng = np.random.default_rng(2)
    x = cloud(rng.normal(size=(60, 3)))
    y = cloud(rng.normal(size=(60, 3)))
    prev_p, prev_r = 0.0, 0.0
    for threshold in (0.05, 0.1, 0.2, 0.5, 1.0, 3.0):
        rep = evaluate(x, y, threshold)
        assert rep.prec >= prev_p
        assert rep.recall >= prev_r
        prev_p, prev_r = rep.prec, rep.recall


def test_cd_matches_l1_chamfer():
    rng = np.random.default_rng(3)
    x = cloud(rng.normal(size=(33, 3)))
    y = cloud(rng.normal(size=(47, 3)))
    rep = evaluate(x, y, 0.1)
    assert rep.cd == chamfer_distance(x, y, "l1")


def test_threshold_validation():
    x = cloud([[0.0, 0, 0]])
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be positive"):
            evaluate(x, x, threshold)
        with pytest.raises(ValueError, match="threshold must be positive"):
            MetricsReport(acc=0.0, comp=0.0, cd=0.0, prec=1.0, recall=1.0, f1=1.0,
                          threshold=threshold)
