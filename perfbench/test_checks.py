"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py

Each check must accept hypcloud's output on a small input and reject a
deliberately wrong value.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def hc():
    return run.import_hypcloud()


def test_maxmin_defect_matches_triple_loop():
    rng = np.random.default_rng(0)
    pts = rng.random((30, 3))
    d = checks.euclidean_distances(pts)
    m = 0.5 * (d[:, 0][:, None] + d[0, :][None, :] - d)
    want = max(min(m[i, k], m[k, j]) - m[i, j]
               for i in range(30) for j in range(30) for k in range(30))
    assert checks.maxmin_defect(m, block=7) == want


def test_delta_ground_truths():
    square = checks.euclidean_distances(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    assert math.isclose(checks.delta_of_matrix(square)[0], math.sqrt(2) - 1, rel_tol=1e-15)
    star = np.array([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float)
    assert checks.delta_of_matrix(star) == (0.0, 2.0)


def test_hyperbolic_distances_euclidean_limit():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.01, 0.01, size=(5, 3))
    c = 1e-6
    assert np.allclose(checks.hyperbolic_distances(x, c), 2.0 * checks.euclidean_distances(x),
                       rtol=1e-5)


def _recon_out(hc, pred, gt, threshold):
    p, g = hc.cloud.PointCloud(pred), hc.cloud.PointCloud(gt)
    report = hc.metrics.evaluate(p, g, threshold)
    out = {"hypercd": hc.chamfer.hyper_chamfer(p, g, hc.poincare.Curvature(workloads.CURVATURE_K)),
           "l1": hc.chamfer.chamfer_distance(p, g, "l1"),
           "l2": hc.chamfer.chamfer_distance(p, g, "l2")}
    out.update({k: getattr(report, k) for k in ("acc", "comp", "prec", "recall", "f1")})
    return out


@pytest.mark.parametrize("scale, rel", [(1.0, checks.REL_BALL_INTERIOR),
                                        (6.0, checks.REL_BALL_BOUNDARY)])
def test_check_recon_accepts_program_and_rejects_wrong_values(hc, scale, rel):
    rng = np.random.default_rng(2)
    gt = scale * rng.uniform(-0.5, 0.5, size=(300, 3))
    pred = gt + scale * rng.normal(0.0, 0.05, size=gt.shape)
    out = _recon_out(hc, pred, gt, 0.1)
    args = (-workloads.CURVATURE_K, workloads.BALL_EPS, 0.1, rel)
    assert checks.check_recon(pred, gt, out, *args) == []
    for key in out:
        wrong = dict(out)
        wrong[key] = out[key] * (1.0 + 1e-6) + 1e-6
        assert checks.check_recon(pred, gt, wrong, *args), key


def test_check_delta_rejects_wrong_values(hc):
    rng = np.random.default_rng(3)
    pts = rng.random((400, 3))
    report = hc.hyperbolicity.sampled_delta(pts, batch_size=300, n_batches=3, seed=4)
    ref = checks.delta_ref(pts, 300, 3, 4)
    assert checks.check_delta(report, ref) == []
    fields = {k: getattr(report, k) for k in ("delta", "diameter", "delta_rel")}
    for key, value in fields.items():
        assert checks.check_delta(SimpleNamespace(**{**fields, key: value * (1 + 1e-9)}), ref), key
    assert checks.check_delta(SimpleNamespace(**{**fields, "delta": -0.0 - 1e-3}),
                              {**ref, "delta": -1e-3})
    too_big = ref["diameter"] * 1.01
    assert checks.check_delta(SimpleNamespace(**{**fields, "delta": too_big}),
                              {**ref, "delta": too_big})


def test_hyperbolic_delta_matches_program(hc):
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 0.3, size=(200, 4))
    curv = hc.poincare.Curvature(workloads.CURVATURE_K)
    report = hc.hyperbolicity.sampled_delta(pts, "hyperbolic", curv=curv, eps=workloads.BALL_EPS)
    ref = checks.delta_ref(pts, 1500, 3, 0, c=curv.c, eps=workloads.BALL_EPS)
    assert checks.check_delta(report, ref, rel=checks.REL_BALL_INTERIOR) == []


def _small(cls, **consts):
    return type(cls.__name__, (cls,), consts)


def test_embed_check_accepts_program_and_rejects_wrong_outputs(hc):
    wl = _small(workloads.Embed, EPOCHS=2, OPS=1, CHECK_TRIPLETS=64)(7)
    inputs = wl.build(hc)
    (out,) = [op() for op in wl.ops(hc, inputs)]
    assert wl.check(hc, inputs, [out]) == []

    def rejects(**changes):
        return wl.check(hc, inputs, [{**out, **changes}])

    assert rejects(curve=out["curve"][::-1])
    assert rejects(hierarchy={**out["hierarchy"],
                              "norm_order_rate": out["hierarchy"]["norm_order_rate"] + 0.01})
    assert rejects(delta=dataclasses.replace(out["delta"], delta=out["delta"].delta * 1.001))
    far = out["theta"].copy()
    far[0] *= 1e3
    assert checks.check_embed_state(far, out["curve"], -workloads.CURVATURE_K, workloads.BALL_EPS)


def test_embed_loss_and_gradient_checks_reject_wrong_values(hc):
    manifest = hc.synthdata.generate_dataset(n_categories=2, objects_per_category=3,
                                             parts_per_object=2, points_whole=32, seed=1)
    config = hc.train.TrainConfig(epochs=2, dim=4, seed=3, batch_triplets=64)
    state, _ = hc.train.train(hc.train.init_state(manifest, config), manifest, config)
    samples = manifest.samples
    row = {s.id: i for i, s in enumerate(samples)}
    parts = [s for s in samples if s.role == "part"]
    pairs = (np.array([row[s.id] for s in parts]), np.array([row[s.parent_id] for s in parts]),
             np.array([float(s.n_points) for s in parts]))
    wl = _small(workloads.Embed, CHECK_TRIPLETS=40)(0)
    triplets = wl._triplets(samples, row, np.random.default_rng(0))
    batch = hc.losses.LossBatch(
        pairs=tuple(hc.losses.PairExample(s.id, s.parent_id, s.n_points) for s in parts),
        triplets=tuple(hc.losses.TripletExample(samples[a].id, samples[p].id, samples[n].id)
                       for a, p, n in zip(*triplets)))
    bundle = hc.losses.loss_gradients(batch, state, config.curvature, config.ball_eps,
                                      config.margin_eps)
    theta = np.stack([state.table[s.id] for s in samples])
    args = (theta, state.head.weights, state.head.bias, state.head.gamma0, pairs, triplets,
            config.curvature.c, config.ball_eps, config.margin_eps)
    l_z, l_t = bundle.report.l_z, bundle.report.l_t
    assert checks.check_embed_loss(l_z, l_t, *args) == []
    assert checks.check_embed_loss(l_z * (1 + 1e-9), l_t, *args)
    assert checks.check_embed_loss(l_z, l_t * (1 + 1e-9), *args)
    got = {(r, k): float(bundle.embeddings[samples[r].id][k]) for r in range(4) for k in range(4)}
    assert checks.check_embed_gradient(got, *args) == []
    for key in got:
        assert checks.check_embed_gradient({key: got[key] * 1.001 + 1e-6}, *args), key


def test_recon_and_delta_workload_checks(hc, tmp_path):
    recon = _small(workloads.Recon, POINTS=256)(6.0, checks.REL_BALL_BOUNDARY, 1,
                                                 tmp_path / "w")
    inputs = recon.build(hc)
    outs = [op() for op in recon.ops(hc, inputs)]
    assert recon.check(hc, inputs, outs) == []
    assert recon.margin_share(inputs) > 0.5
    outs[1] = {**outs[1], "hypercd": outs[1]["hypercd"] * (1 + 1e-6)}
    assert recon.check(hc, inputs, outs)
    recon.cleanup()

    delta = _small(workloads.Delta, POINTS_PER_OBJECT=100, BATCH=300)(2)
    inputs = delta.build(hc)
    (report,) = [op() for op in delta.ops(hc, inputs)]
    assert delta.check(hc, inputs, [report]) == []
    assert delta.check(hc, inputs, [dataclasses.replace(report, diameter=report.diameter * 1.01)])


def test_later_rounds_must_repeat_the_first(hc):
    wl = _small(workloads.Delta, POINTS_PER_OBJECT=100, BATCH=300)(2)
    inputs = wl.build(hc)
    (report,) = [op() for op in wl.ops(hc, inputs)]
    assert run.check_outputs(wl, hc, inputs, [[report], [report]]) == []
    moved = dataclasses.replace(report, delta=math.nextafter(report.delta, math.inf))
    assert run.check_outputs(wl, hc, inputs, [[report], [moved]])


def test_self_times_subtract_direct_children():
    spans = [(2, 1, "child", 1.0, 3.0), (3, 2, "grandchild", 1.5, 2.0),
             (4, 1, "child", 4.0, 5.0), (1, 0, "root", 0.0, 10.0)]
    assert tracing.self_times(spans) == {1: 7.0, 2: 1.5, 3: 0.5, 4: 1.0}


def test_tracer_counts_layers_and_restores_modules(hc):
    before = {name: dict(vars(getattr(hc, name))) for name in run.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        frame = tracer.open(tracing.ROUND)
        pts = np.random.default_rng(0).random((50, 3))
        hc.hyperbolicity.sampled_delta(pts, "hyperbolic", curv=hc.poincare.Curvature(-1.0),
                                       batch_size=1500)
        tracer.close(frame)
    finally:
        tracer.uninstall()
    after = {name: dict(vars(getattr(hc, name))) for name in run.LAYERS}
    assert after == before
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert metrics["poincare.geodesic_distance_matrix.entries"] == 2500
    assert metrics["hyperbolicity.pairwise_distances.bytes"] == 8 * 2500
    assert metrics["poincare.clip_to_ball.calls"] == 1
    assert 0.0 <= metrics["trace.unaccounted_share"] < 100.0
