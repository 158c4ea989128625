"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload builds its inputs once per set-up from the benchmark seed with
hypcloud's own generators, and hands the program only those inputs.  A round
is the workload's fixed list of operations; every round repeats the same
operations on the same inputs, so every round's outputs must be identical.
The outputs of the first round are checked against `checks`.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

CURVATURE_K = -0.14
BALL_EPS = 1e-5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _wholes(manifest) -> list[np.ndarray]:
    return [s.cloud.points for s in manifest.samples if s.role == "whole"]


class Embed:
    """Short training runs of the part-whole embedding, then its evaluation
    and the hyperbolic delta of the trained rows."""

    EPOCHS = 5
    OPS = 2
    CHECK_TRIPLETS = 512
    CHECK_COORDS = 8

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, hc):
        rng = _rng(self.seed, 0)
        manifest = hc.synthdata.generate_dataset(seed=int(rng.integers(2**31)))
        return SimpleNamespace(manifest=manifest,
                               op_seeds=[int(s) for s in rng.integers(2**31, size=self.OPS)])

    def ops(self, hc, inputs):
        def op(op_seed):
            T = hc.train
            config = T.TrainConfig(epochs=self.EPOCHS, seed=op_seed)
            state = T.init_state(inputs.manifest, config)
            state, curve = T.train(state, inputs.manifest, config)
            hierarchy = T.evaluate_hierarchy(state, inputs.manifest)
            theta = np.stack([state.table[s.id] for s in inputs.manifest.samples])
            delta = hc.hyperbolicity.sampled_delta(theta, "hyperbolic", curv=config.curvature,
                                                   eps=config.ball_eps)
            return {"config": config, "state": state, "theta": theta,
                    "curve": [r.total for r in curve], "hierarchy": hierarchy, "delta": delta}

        return [lambda s=s: op(s) for s in inputs.op_seeds]

    def fingerprint(self, out):
        d = out["delta"]
        return (out["theta"].tobytes(), out["state"].head.weights.tobytes(), out["state"].head.bias,
                tuple(out["curve"]), tuple(sorted(out["hierarchy"].items())),
                d.delta, d.diameter, d.delta_rel)

    def check(self, hc, inputs, outs) -> list[str]:
        fails = []
        samples = inputs.manifest.samples
        row = {s.id: i for i, s in enumerate(samples)}
        part_rows = [s for s in samples if s.role == "part"]
        pairs = (np.array([row[s.id] for s in part_rows]),
                 np.array([row[s.parent_id] for s in part_rows]),
                 np.array([float(s.n_points) for s in part_rows]))
        for i, out in enumerate(outs):
            config, state, theta = out["config"], out["state"], out["theta"]
            c, eps = -config.curvature_k, config.ball_eps
            rng = _rng(config.seed, 1)
            triplets = self._triplets(samples, row, rng)
            batch = hc.losses.LossBatch(
                pairs=tuple(hc.losses.PairExample(s.id, s.parent_id, s.n_points) for s in part_rows),
                triplets=tuple(hc.losses.TripletExample(samples[a].id, samples[p].id, samples[n].id)
                               for a, p, n in zip(*triplets)))
            bundle = hc.losses.loss_gradients(batch, state, config.curvature, eps, config.margin_eps)
            head = state.head
            args = (theta, head.weights, head.bias, head.gamma0, pairs, triplets, c, eps,
                    config.margin_eps)
            op_fails = checks.check_embed_loss(bundle.report.l_z, bundle.report.l_t, *args)
            _, _, z_args, t_args = checks.embed_loss(*args)
            smooth = checks.smooth_rows(theta, pairs, triplets, z_args, t_args)
            picks = rng.choice(smooth, size=min(self.CHECK_COORDS, len(smooth)), replace=False)
            cols = rng.integers(theta.shape[1], size=len(picks))
            got = {(int(r), int(k)): float(bundle.embeddings[samples[r].id][k])
                   for r, k in zip(picks, cols)}
            op_fails += checks.check_embed_gradient(got, *args)
            op_fails += checks.check_embed_state(theta, out["curve"], c, eps)
            op_fails += checks.check_norm_order(out["hierarchy"]["norm_order_rate"], theta,
                                                pairs[0], pairs[1], c, eps)
            ref = checks.delta_ref(theta, 1500, 3, 0, c=c, eps=eps)
            op_fails += checks.check_delta(out["delta"], ref, rel=checks.REL_BALL_INTERIOR)
            fails += [f"op {i}: {f}" for f in op_fails]
        return fails

    def _triplets(self, samples, row, rng):
        """Seeded (whole, own part, foreign-category part) row triples."""
        wholes = [s for s in samples if s.role == "whole"]
        parts = [s for s in samples if s.role == "part"]
        anchor, pos, neg = [], [], []
        for _ in range(self.CHECK_TRIPLETS):
            w = wholes[int(rng.integers(len(wholes)))]
            own = [row[s.id] for s in parts if s.parent_id == w.id]
            foreign = [row[s.id] for s in parts if s.category != w.category]
            anchor.append(row[w.id])
            pos.append(own[int(rng.integers(len(own)))])
            neg.append(foreign[int(rng.integers(len(foreign)))])
        return np.array(anchor), np.array(pos), np.array(neg)


class Recon:
    """Evaluate predicted clouds against ground truth as `hypcloud hypercd`,
    `chamfer` and `metrics` do, reading both clouds from XYZ files."""

    POINTS = 4096
    PAIRS = 3
    JITTER = 0.03
    THRESHOLD = 0.1

    def __init__(self, scale: float, hyper_rel: float, seed: int, workdir: Path):
        self.scale, self.hyper_rel = scale, hyper_rel
        self.seed = seed
        self.workdir = workdir

    def build(self, hc):
        rng = _rng(self.seed, 0)
        manifest = hc.synthdata.generate_dataset(
            n_categories=self.PAIRS, objects_per_category=1, parts_per_object=2,
            points_whole=self.POINTS, seed=int(rng.integers(2**31)))
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        pairs = []
        for i, gt in enumerate(_wholes(manifest)):
            pred = gt + rng.normal(0.0, self.JITTER, size=gt.shape)
            pair = {"pred": self.scale * pred, "gt": self.scale * gt}
            for key, points in list(pair.items()):
                path = self.workdir / f"{key}{i}.xyz"
                hc.cloud.write_xyz(path, hc.cloud.PointCloud(points))
                pair[key + "_path"] = path
            pairs.append(pair)
        return SimpleNamespace(pairs=pairs, curv=hc.poincare.Curvature(CURVATURE_K))

    def margin_share(self, inputs) -> float:
        """Share of all points at or beyond the clip margin radius."""
        rho = (1.0 - BALL_EPS) / np.sqrt(-CURVATURE_K)
        pts = np.concatenate([p[k] for p in inputs.pairs for k in ("pred", "gt")])
        return float(np.mean(np.sqrt((pts * pts).sum(axis=1)) >= rho))

    def ops(self, hc, inputs):
        def op(pair):
            pred = hc.cloud.read_cloud(pair["pred_path"])
            gt = hc.cloud.read_cloud(pair["gt_path"])
            out = {"hypercd": hc.chamfer.hyper_chamfer(pred, gt, inputs.curv),
                   "l1": hc.chamfer.chamfer_distance(pred, gt, "l1"),
                   "l2": hc.chamfer.chamfer_distance(pred, gt, "l2")}
            report = hc.metrics.evaluate(pred, gt, self.THRESHOLD)
            out.update({k: getattr(report, k) for k in ("acc", "comp", "prec", "recall", "f1")})
            return out

        return [lambda p=p: op(p) for p in inputs.pairs]

    def fingerprint(self, out):
        return tuple(sorted(out.items()))

    def check(self, hc, inputs, outs) -> list[str]:
        fails = []
        for i, (pair, out) in enumerate(zip(inputs.pairs, outs)):
            fails += [f"pair {i}: {f}" for f in checks.check_recon(
                pair["pred"], pair["gt"], out, -CURVATURE_K, BALL_EPS, self.THRESHOLD,
                self.hyper_rel)]
        return fails

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class Delta:
    """Gromov delta of a synthetic scene at the `hypcloud delta` defaults."""

    OBJECTS = 5
    POINTS_PER_OBJECT = 1200
    BATCH, TRIALS, SAMPLING_SEED = 1500, 3, 0

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, hc):
        rng = _rng(self.seed, 0)
        manifest = hc.synthdata.generate_dataset(
            n_categories=self.OBJECTS, objects_per_category=1, parts_per_object=2,
            points_whole=self.POINTS_PER_OBJECT, seed=int(rng.integers(2**31)))
        wholes = _wholes(manifest)
        offsets = rng.uniform(-2.0, 2.0, size=(len(wholes), 3))
        return SimpleNamespace(points=np.concatenate([w + o for w, o in zip(wholes, offsets)]))

    def ops(self, hc, inputs):
        def op():
            return hc.hyperbolicity.sampled_delta(inputs.points, "euclidean", batch_size=self.BATCH,
                                                  n_batches=self.TRIALS, seed=self.SAMPLING_SEED)

        return [op]

    def fingerprint(self, out):
        return (out.delta, out.diameter, out.delta_rel, out.batches, out.samples_per_batch)

    def check(self, hc, inputs, outs) -> list[str]:
        report = outs[0]
        fails = []
        if (report.batches, report.samples_per_batch, report.exact) != (self.TRIALS, self.BATCH, False):
            fails.append(f"expected {self.TRIALS} sampled batches of {self.BATCH}, got "
                         f"{report.batches} of {report.samples_per_batch} (exact={report.exact})")
        ref = checks.delta_ref(inputs.points, self.BATCH, self.TRIALS, self.SAMPLING_SEED)
        return fails + checks.check_delta(report, ref)


def make(name: str, seed: int, workdir: Path):
    """The workload `name`; `workdir` holds its temporary files."""
    if name == "embed":
        return Embed(seed)
    if name == "recon-interior":
        return Recon(1.0, checks.REL_BALL_INTERIOR, seed, workdir)
    if name == "recon-boundary":
        return Recon(6.0, checks.REL_BALL_BOUNDARY, seed, workdir)
    if name == "delta":
        return Delta(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("embed", "recon-interior", "recon-boundary", "delta")
