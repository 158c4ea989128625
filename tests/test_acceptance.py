"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line; run with `pytest -s tests/test_acceptance.py`
to see them.  The two full training runs are shared session fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from hypcloud import (
    BallPoint,
    Curvature,
    DistanceMatrix,
    PointCloud,
    TrainConfig,
    chamfer_distance,
    clip_to_ball,
    evaluate,
    evaluate_hierarchy,
    generate_dataset,
    geodesic_distance,
    gradient_check_cases,
    gromov_delta,
    init_state,
    pairwise_distances,
    sampled_delta,
    train,
    write_xyz,
)
from hypcloud.cli import main

from conftest import random_ball_points


def ok(label, detail=""):
    print(f"PASS {label}" + (f"  [{detail}]" if detail else ""))


@pytest.fixture(scope="session")
def default_manifest():
    return generate_dataset()   # 5 categories x 20 objects x 3 parts, seed 42


@pytest.fixture(scope="session")
def hyperbolic_run(default_manifest):
    config = TrainConfig()      # <= 200 epochs per the criterion
    state = init_state(default_manifest, config)
    start = time.monotonic()
    state, curve = train(state, default_manifest, config)
    elapsed = time.monotonic() - start
    return state, curve, elapsed, config


@pytest.fixture(scope="session")
def euclidean_run(default_manifest):
    config = dataclasses.replace(TrainConfig(), reg_space="euclidean")
    state = init_state(default_manifest, config)
    state, curve = train(state, default_manifest, config)
    return state, curve


def test_criterion_1_euclidean_limit():
    start = time.monotonic()
    curv = Curvature(-1e-6)
    rng = np.random.default_rng(100)
    xs = random_ball_points(rng, 1000, 3, Curvature(-1.0), max_frac=0.5)
    ys = random_ball_points(rng, 1000, 3, Curvature(-1.0), max_frac=0.5)
    worst = 0.0
    for x, y in zip(xs, ys):
        euclid = 2.0 * float(np.linalg.norm(x - y))
        if euclid == 0.0:
            continue
        d = geodesic_distance(BallPoint(x, curv), BallPoint(y, curv))
        worst = max(worst, abs(d - euclid) / euclid)
    elapsed = time.monotonic() - start
    assert worst < 1e-3
    assert elapsed < 1.0
    ok("criterion 1: euclidean limit", f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    results = gradient_check_cases(seed=2024, n_cases=100, h=1e-6)
    worst = max(err for _, err in results)
    elapsed = time.monotonic() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    ok("criterion 2: gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_mobius_metric_axioms():
    from hypcloud import mobius_add
    start = time.monotonic()
    for k in (-0.14, -1.0):
        curv = Curvature(k)
        rng = np.random.default_rng(300)
        pts = random_ball_points(rng, 10_000, 3, curv)
        zero = BallPoint(np.zeros(3), curv)
        for row in pts:
            x = BallPoint(row, curv)
            assert np.linalg.norm(mobius_add(zero, x).coords - row) < 1e-12
            assert np.linalg.norm(mobius_add(BallPoint(-row, curv), x).coords) < 1e-10
        triples = random_ball_points(rng, 3 * 10_000, 3, curv)
        for i in range(0, len(triples), 3):
            x, y, z = (BallPoint(triples[i + j], curv) for j in range(3))
            dxy = geodesic_distance(x, y)
            assert dxy >= 0.0
            assert geodesic_distance(x, x) == 0.0
            assert abs(dxy - geodesic_distance(y, x)) < 1e-10
            assert geodesic_distance(x, z) <= dxy + geodesic_distance(y, z) + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok("criterion 3: mobius/metric axioms", f"{elapsed:.1f}s")


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(400)
    for trial in range(50):
        n = int(rng.integers(1, 2049))
        m = int(rng.integers(1, 2049))
        x = PointCloud(rng.normal(size=(n, 3)))
        y = PointCloud(rng.normal(size=(m, 3)))
        variant = "l1" if trial % 2 == 0 else "l2"
        fast = chamfer_distance(x, y, variant, method="kdtree")
        brute = chamfer_distance(x, y, variant, method="brute")
        assert fast == brute, f"trial {trial}: {fast!r} != {brute!r}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok("criterion 4: kd-tree vs brute force bit-exact", f"50 pairs, {elapsed:.1f}s")


def test_criterion_5_delta_ground_truths():
    start = time.monotonic()
    star = DistanceMatrix(np.array([
        [0.0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]))
    for base in range(4):
        assert gromov_delta(star, base) <= 1e-9
    square = pairwise_distances(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    assert abs(gromov_delta(square, 0) - (math.sqrt(2) - 1)) <= 1e-6
    # 3-point sets with exactly representable metric entries: delta == 0 exactly
    rng = np.random.default_rng(500)
    for _ in range(200):
        a, b = rng.integers(1, 200, size=2) / 32.0
        lo = max(1, int(32 * abs(a - b)) + 1)
        c = rng.integers(lo, int(32 * (a + b)), endpoint=True) / 32.0
        dm = DistanceMatrix(np.array([[0, a, b], [a, 0, c], [b, c, 0.0]]))
        for base in range(3):
            assert gromov_delta(dm, base) == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok("criterion 5: delta ground truths", f"{elapsed:.2f}s")


def test_criterion_6_metrics_sanity():
    rng = np.random.default_rng(600)
    x = PointCloud(rng.normal(size=(128, 3)))
    assert evaluate(x, x, 0.1).f1 == 1.0
    pred = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]]))
    gt = PointCloud(np.array([[0.0, 0, 0]]))
    rep = evaluate(pred, gt, 0.5)
    assert abs(rep.f1 - 2.0 / 3.0) <= 1e-12
    y = PointCloud(rng.normal(size=(90, 3)))
    fwd = evaluate(x, y, 0.1)
    rev = evaluate(y, x, 0.1)
    assert fwd.acc == rev.comp and fwd.comp == rev.acc
    ok("criterion 6: metrics sanity")


def test_criterion_7_hierarchy_embedding(default_manifest, hyperbolic_run):
    state, curve, elapsed, config = hyperbolic_run
    assert config.epochs <= 200
    rates = evaluate_hierarchy(state, default_manifest)
    assert rates["norm_order_rate"] >= 0.9
    assert rates["triplet_accuracy"] >= 0.9
    assert elapsed < 300.0
    ok("criterion 7: hierarchy embedding",
       f"norm_order {rates['norm_order_rate']:.4f}, "
       f"triplet_acc {rates['triplet_accuracy']:.4f}, {elapsed:.0f}s")


def test_criterion_8_delta_directional(default_manifest, hyperbolic_run):
    start = time.monotonic()
    state, _, _, config = hyperbolic_run
    initial = init_state(default_manifest, config)

    def embedded_delta_rel(st):
        rows = np.array([clip_to_ball(st.table[s.id], st.curvature, st.eps)
                         for s in default_manifest.samples])
        return sampled_delta(rows, "hyperbolic", curv=st.curvature, seed=8).delta_rel

    rel_init = embedded_delta_rel(initial)
    rel_trained = embedded_delta_rel(state)
    elapsed = time.monotonic() - start
    assert rel_trained < rel_init
    assert elapsed < 60.0
    ok("criterion 8: delta_rel trained < initial",
       f"{rel_trained:.4f} < {rel_init:.4f}, {elapsed:.1f}s")


def test_criterion_9_euclidean_ablation(default_manifest, hyperbolic_run, euclidean_run):
    hyp_state = hyperbolic_run[0]
    euc_state = euclidean_run[0]
    hyp_rate = evaluate_hierarchy(hyp_state, default_manifest)["norm_order_rate"]
    euc_rate = evaluate_hierarchy(euc_state, default_manifest)["norm_order_rate"]
    assert euc_rate < hyp_rate
    ok("criterion 9: euclidean ablation strictly worse",
       f"euclidean {euc_rate:.4f} < hyperbolic {hyp_rate:.4f}")


def test_default_run_converges(hyperbolic_run):
    # the default run is expected to converge well past a 10x loss reduction
    _, curve, _, _ = hyperbolic_run
    assert curve[-1].total < 0.1 * curve[0].total
    ok("trainer convergence", f"ratio {curve[-1].total / curve[0].total:.5f}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(1000)
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    write_xyz(a, PointCloud(rng.normal(size=(60, 3))))
    write_xyz(b, PointCloud(rng.normal(size=(45, 3))))
    sq = tmp_path / "sq.xyz"
    sq.write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
    ds = tmp_path / "ds"
    run_dir = tmp_path / "run"

    commands = [
        ["chamfer", str(a), str(b), "--variant", "l2"],
        ["hypercd", str(a), str(b), "--k", "-0.14"],
        ["metrics", str(a), str(b), "--threshold", "0.25"],
        ["delta", str(sq), "--metric", "euclidean", "--seed", "4"],
        ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
         "--parts", "2", "--points", "128", "--seed", "9"],
        ["embed", str(ds / "manifest.json"), "--out-dir", str(run_dir),
         "--epochs", "3", "--dim", "2", "--batch-triplets", "16",
         "--minibatch", "8"],
        ["gradcheck", "--n-cases", "9", "--seed", "2"],
    ]

    def snapshot(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    outputs = []
    for _ in range(2):
        stdout_lines = []
        for argv in commands:
            assert main(argv) == 0, argv
            stdout_lines.append(capsys.readouterr().out)
        outputs.append((stdout_lines, snapshot(ds), snapshot(run_dir)))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    ok("criterion 10: CLI determinism", f"{len(commands)} commands byte-identical")
