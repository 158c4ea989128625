"""Desk-scale embedding trainer.

Learns one free Euclidean vector per manifest sample plus the adaptive-margin
head by Adam on mean(L_Z) + mean(L_T), reproducing the part-near-center /
whole-near-boundary hierarchy.  Everything is seeded and single-threaded, so
two runs with the same (manifest, config) are bit-identical.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .losses import (
    GradientBundle,
    LossBatch,
    LossReport,
    MarginHead,
    PairExample,
    TripletExample,
    loss_gradients,
)
# hyperbolic_norm and log_map_origin are unused here but perfbench/tracing.py patches them.
from .poincare import (BALL_EPS, Curvature, clip_to_ball, hyperbolic_norm, hyperbolic_norms,
                       log_map_origin, log_maps_origin)
from .synthdata import HierarchyManifest

# Deterministic substream labels.
_REF_STREAM = 2
_EPOCH_STREAM = 3
_EVAL_STREAM = 4

HOLDOUT_FRACTION = 0.2
EVAL_TRIPLETS_PER_ANCHOR = 10


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_triplets: int = 1536
    learning_rate: float = 1e-3
    gamma0: float = 1000.0
    margin_eps: float = 4.0
    dim: int = 16
    seed: int = 42
    curvature_k: float = -0.14
    ball_eps: float = BALL_EPS
    minibatch: int = 32
    init_std: float = 0.01
    reg_space: str = "hyperbolic"
    triplet_metric: str = "tangent"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.batch_triplets < 1 or self.minibatch < 1:
            raise ValueError("batch_triplets and minibatch must be >= 1")

    @property
    def curvature(self) -> Curvature:
        return Curvature(self.curvature_k)


class EmbeddingTable(MutableMapping):
    """A fixed set of sample ids -> live (d,) rows of one (N, d) float64 array;
    `ids` lists the samples in row order and `index` maps an id to its row."""

    def __init__(self, ids, rows: np.ndarray):
        self.ids, self.rows = list(ids), rows
        self.index = {sid: i for i, sid in enumerate(self.ids)}

    def __getitem__(self, sid) -> np.ndarray:
        return self.rows[self.index[sid]]

    def __setitem__(self, sid, value):
        i, value = self.index[sid], np.asarray(value, dtype=np.float64)
        if value.shape != self.rows.shape[1:]:
            raise ValueError(f"row {sid!r} needs shape {self.rows.shape[1:]}, got {value.shape}")
        self.rows[i] = value

    def __delitem__(self, sid):
        raise TypeError("the embedding table has a fixed set of sample ids")

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class EmbeddingState:
    """Trainable vectors per sample plus the margin head."""

    table: EmbeddingTable
    head: MarginHead
    curvature: Curvature
    eps: float
    seed: int


def init_state(manifest: HierarchyManifest, config: TrainConfig) -> EmbeddingState:
    """Seeded Gaussian embeddings (std well inside the ball), zero head."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = len(manifest.samples)
    block = rng.normal(0.0, config.init_std, size=(n, config.dim))
    return EmbeddingState(
        table=EmbeddingTable([s.id for s in manifest.samples], block),
        head=MarginHead.zeros(2 * config.dim, config.gamma0),
        curvature=config.curvature,
        eps=config.ball_eps,
        seed=config.seed,
    )


# --- batching ---------------------------------------------------------------


def positive_pairs(manifest: HierarchyManifest) -> list[PairExample]:
    return [PairExample(s.id, s.parent_id, s.n_points)
            for s in manifest.samples if s.role == "part"]


def _draw_triplets(manifest: HierarchyManifest, anchors,
                   rng: np.random.Generator) -> list[TripletExample]:
    """One (anchor, own part, other-category part) triplet per anchor whole;
    `anchors` is consumed lazily, so it may draw each whole from `rng` first."""
    parts = [s for s in manifest.samples if s.role == "part"]
    parts_of = manifest.parts_by_whole()
    out = []
    for whole in anchors:
        own = parts_of[whole.id]
        pos = own[int(rng.integers(len(own)))]
        while True:
            neg = parts[int(rng.integers(len(parts)))]
            if neg.category != whole.category:
                break
        out.append(TripletExample(whole.id, pos.id, neg.id))
    return out


def sample_triplets(manifest: HierarchyManifest, count: int,
                    rng: np.random.Generator) -> list[TripletExample]:
    """Anchor wholes uniformly; positives from the anchor's own parts,
    negatives uniformly from parts of other categories."""
    wholes = manifest.wholes()
    return _draw_triplets(
        manifest, (wholes[int(rng.integers(len(wholes)))] for _ in range(count)), rng)


def _chunks(items, size):
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamOptimizer:
    """Adam with one moment pair per parameter array.  A step may update only
    some rows of an array: the other rows keep their values and moments, and
    the bias-correction time index `t` is global (it counts steps)."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    slots: dict = field(default_factory=dict)

    def update(self, key, value: np.ndarray, grad: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Return `value[rows]` after one Adam step with `grad` on those rows."""
        if key not in self.slots:
            self.slots[key] = (np.zeros_like(value), np.zeros_like(value))
        m, v = self.slots[key]
        m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * grad
        v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * grad * grad
        m_hat = m[rows] / (1.0 - self.beta1 ** self.t)
        v_hat = v[rows] / (1.0 - self.beta2 ** self.t)
        return value[rows] - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def train_step(state: EmbeddingState, batch: LossBatch, optimizer: AdamOptimizer,
               config: TrainConfig) -> GradientBundle:
    """One optimizer step on a batch: gradients, Adam on the touched rows and
    the head, ball guard."""
    bundle = loss_gradients(
        batch, state, state.curvature, state.eps, config.margin_eps,
        reg_space=config.reg_space, triplet_metric=config.triplet_metric)
    optimizer.t += 1
    table, ids = state.table, list(bundle.embeddings)
    rows = np.array([table.index[sid] for sid in ids], dtype=np.intp)
    grads = np.reshape([bundle.embeddings[sid] for sid in ids], (rows.size, table.rows.shape[1]))
    updated = optimizer.update("table", table.rows, grads, rows)
    finite = np.isfinite(updated).all(axis=1)
    if not finite.all():
        raise DivergenceError(f"embedding for sample {ids[int(np.argmin(finite))]!r} "
                              f"became non-finite at step {optimizer.t}")
    table.rows[rows] = clip_to_ball(updated, state.curvature, state.eps)
    if batch.pairs:
        head = optimizer.update("head", np.append(state.head.weights, state.head.bias),
                                np.append(bundle.head_weights, bundle.head_bias))
        state.head.weights, state.head.bias = head[:-1], float(head[-1])
    if not math.isfinite(bundle.report.total):
        raise DivergenceError(f"non-finite loss at step {optimizer.t}")
    return bundle


def _reference_batch(manifest: HierarchyManifest, config: TrainConfig) -> LossBatch:
    """Fixed seeded batch the loss curve is recorded on each epoch."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(_REF_STREAM,)))
    return LossBatch(pairs=tuple(positive_pairs(manifest)),
                     triplets=tuple(sample_triplets(manifest, config.batch_triplets, rng)))


def train(state: EmbeddingState, manifest: HierarchyManifest,
          config: TrainConfig) -> tuple[EmbeddingState, list[LossReport]]:
    """Optimize the state in place for config.epochs; returns it with the
    per-epoch loss curve.

    Each epoch samples batch_triplets fresh triplets plus all positive pairs,
    walks them in fixed-size minibatches, and then records the loss on a fixed
    seeded reference batch so the curve is comparable across epochs (and
    exactly constant at zero learning rate).
    """
    if len(manifest.categories) < 2:
        raise ValueError("triplet mining needs at least 2 categories for negatives")
    pairs = positive_pairs(manifest)
    if not pairs:
        raise ValueError("manifest contains no (part, whole) pairs")
    reference = _reference_batch(manifest, config)
    optimizer = AdamOptimizer(config.learning_rate)
    curve: list[LossReport] = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(_EPOCH_STREAM, epoch)))
        triplets = sample_triplets(manifest, config.batch_triplets, rng)
        for chunks in zip_longest(_chunks(pairs, config.minibatch),
                                  _chunks(triplets, config.minibatch), fillvalue=()):
            train_step(state, LossBatch(*chunks), optimizer, config)
        report = loss_gradients(
            reference, state, state.curvature, state.eps, config.margin_eps,
            reg_space=config.reg_space, triplet_metric=config.triplet_metric).report
        if not math.isfinite(report.total):
            raise DivergenceError(f"non-finite reference loss after epoch {epoch}")
        curve.append(report)
    return state, curve


# --- evaluation -------------------------------------------------------------


def _unit_hash(seed: int, sample_id: str) -> float:
    digest = hashlib.sha256(f"{seed}:{sample_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def holdout_anchor_ids(manifest: HierarchyManifest, seed: int,
                       fraction: float = HOLDOUT_FRACTION) -> list[str]:
    """Wholes whose seeded id hash falls below `fraction`; the evaluation
    triplets are anchored here."""
    return [w.id for w in manifest.wholes() if _unit_hash(seed, w.id) < fraction]


def evaluation_triplets(manifest: HierarchyManifest, seed: int) -> list[TripletExample]:
    anchors = set(holdout_anchor_ids(manifest, seed))
    if not anchors:
        # Tiny manifests can hash every whole into the training side.
        anchors = {w.id for w in manifest.wholes()}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_EVAL_STREAM,)))
    return _draw_triplets(manifest, (w for w in manifest.wholes() if w.id in anchors
                                     for _ in range(EVAL_TRIPLETS_PER_ANCHOR)), rng)


def evaluate_hierarchy(state: EmbeddingState, manifest: HierarchyManifest) -> dict[str, float]:
    """Quantify the learned hierarchy.

    norm_order_rate: fraction of (part, whole) pairs with the part's
    hyperbolic norm strictly below the whole's.  chain_rate: fraction of
    objects whose parts and whole are fully ordered by norm.  triplet_accuracy:
    fraction of held-out triplets with the anchor closer (in the origin
    tangent space) to its own part than to the foreign part.
    """
    table = state.table
    coords = clip_to_ball(table.rows, state.curvature, state.eps)
    norms = dict(zip(table.ids, hyperbolic_norms(coords, state.curvature).tolist()))
    pairs = positive_pairs(manifest)
    norm_ok = sum(norms[p.part_id] < norms[p.whole_id] for p in pairs)
    chains_ok = 0
    parts_of = manifest.parts_by_whole()
    for whole in manifest.wholes():
        seq = [norms[p.id] for p in parts_of[whole.id]] + [norms[whole.id]]
        chains_ok += all(a < b for a, b in zip(seq, seq[1:]))
    tangents = dict(zip(table.ids, log_maps_origin(coords, state.curvature)))
    eval_trips = evaluation_triplets(manifest, state.seed)
    trip_ok = 0
    for trip in eval_trips:
        d_pos = float(np.linalg.norm(tangents[trip.whole_id] - tangents[trip.pos_id]))
        d_neg = float(np.linalg.norm(tangents[trip.whole_id] - tangents[trip.neg_id]))
        trip_ok += d_pos < d_neg
    return {
        "norm_order_rate": norm_ok / len(pairs),
        "chain_rate": chains_ok / len(manifest.wholes()),
        "triplet_accuracy": trip_ok / len(eval_trips) if eval_trips else float("nan"),
    }


def export_disk(state: EmbeddingState, manifest: HierarchyManifest) -> list[dict]:
    """Per-sample unit-disk coordinates for 2-D runs (dim must be 2).

    Ball coordinates are rescaled by sqrt(c) so all outputs lie strictly
    inside the unit circle; rows carry category, role, size and norm.
    """
    table, curv = state.table, state.curvature
    if table.rows.shape[1] != 2:
        raise ValueError(f"disk export needs dim=2 embeddings, got dim={table.rows.shape[1]}")
    coords = clip_to_ball(table.rows[[table.index[s.id] for s in manifest.samples]],
                          curv, state.eps)
    hnorms = hyperbolic_norms(coords, curv).tolist()
    disk = (coords * (1.0 / curv.ball_radius)).tolist()
    return [{"id": s.id, "category": s.category, "role": s.role, "n_points": s.n_points,
             "hnorm": hnorm, "x": x, "y": y}
            for s, hnorm, (x, y) in zip(manifest.samples, hnorms, disk)]
