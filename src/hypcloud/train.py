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

import numpy as np

from .losses import (
    GradientBundle,
    LossBatch,
    LossReport,
    MarginHead,
    PairExample,
    TripletExample,
    loss_gradients,
    row_loss_gradients,
)
# hyperbolic_norm and log_map_origin are unused here but perfbench/tracing.py patches them.
from .poincare import (BALL_EPS, Curvature, _row_norms, clip_to_ball, hyperbolic_norm,
                       hyperbolic_norms, log_map_origin, log_maps_origin)
from .synthdata import HierarchyManifest

# Deterministic substream labels.
_REF_STREAM = 2
_EPOCH_STREAM = 3
_EVAL_STREAM = 4

HOLDOUT_FRACTION = 0.2
EVAL_TRIPLETS_PER_ANCHOR = 10
INIT_STD = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    reg_space: str = "hyperbolic"
    triplet_metric: str = "tangent"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (math.isfinite(self.margin_eps) and self.margin_eps > 0):
            raise ValueError(f"margin_eps must be finite and > 0, got {self.margin_eps}")
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
    block = rng.normal(0.0, INIT_STD, size=(n, config.dim))
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


def _padded(lists) -> tuple[np.ndarray, np.ndarray]:
    """The int lists as rows of one zero-padded array, and their lengths."""
    lengths = np.array([len(x) for x in lists], dtype=np.intp)
    out = np.zeros((len(lists), max(lengths, default=0)), dtype=np.intp)
    out[np.arange(out.shape[1]) < lengths[:, None]] = [i for x in lists for i in x]
    return out, lengths


class _TripletTables:
    """A manifest as row indices, for rows in the order of `ids` (default: the
    manifest's).  `pairs` (P, 2) holds (part, whole) in `positive_pairs`
    order; row w of `own` the parts of the w-th whole, `n_own[w]` of them;
    row k of `foreign` the parts of every category but the k-th, and
    `category[w]` is the k of whole w.  A uniform pick from a row prefix is a
    uniform pick among own parts or among other categories' parts."""

    def __init__(self, manifest: HierarchyManifest, ids=None):
        self.ids = [s.id for s in manifest.samples] if ids is None else list(ids)
        at = {sid: i for i, sid in enumerate(self.ids)}
        wholes, parts = manifest.wholes(), [s for s in manifest.samples if s.role == "part"]
        parts_of = manifest.parts_by_whole()
        categories = {c: k for k, c in
                      enumerate(dict.fromkeys(s.category for s in manifest.samples))}
        self.pairs = np.array([[at[p.id], at[p.parent_id]] for p in parts],
                              dtype=np.intp).reshape(-1, 2)
        self.n_points = np.array([p.n_points for p in parts], dtype=np.float64)
        self.wholes = np.array([at[w.id] for w in wholes], dtype=np.intp)
        self.category = np.array([categories[w.category] for w in wholes], dtype=np.intp)
        self.own, self.n_own = _padded([[at[p.id] for p in parts_of.get(w.id, ())] for w in wholes])
        self.foreign, self.n_foreign = _padded(
            [[at[p.id] for p in parts if p.category != c] for c in categories])

    def draw(self, anchors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """(T, 3) rows (anchor, positive, negative) for the whole positions
        `anchors`; all positives are drawn from `rng`, then all negatives."""
        pos = self.own[anchors, rng.integers(self.n_own[anchors])]
        cat = self.category[anchors]
        neg = self.foreign[cat, rng.integers(self.n_foreign[cat])]
        return np.stack([self.wholes[anchors], pos, neg], axis=1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """`draw` for `count` anchors drawn uniformly over the wholes first."""
        return self.draw(rng.integers(len(self.wholes), size=count), rng)

    def examples(self, rows: np.ndarray) -> list[TripletExample]:
        ids = self.ids
        return [TripletExample(ids[a], ids[p], ids[n]) for a, p, n in rows.tolist()]


def sample_triplets(manifest: HierarchyManifest, count: int,
                    rng: np.random.Generator) -> list[TripletExample]:
    """Anchor wholes uniformly; positives uniformly from the anchor's own
    parts, negatives uniformly from parts of other categories."""
    tables = _TripletTables(manifest)
    return tables.examples(tables.sample(count, rng))


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamOptimizer:
    """Adam with one moment pair per parameter array.  A step may update only
    some rows of an array: the other rows keep their values and moments, and
    the bias-correction time index `t` is global (it counts steps)."""

    learning_rate: float
    t: int = 0
    slots: dict = field(default_factory=dict)

    def update(self, key, value: np.ndarray, grad: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Return `value[rows]` after one Adam step with `grad` on those rows."""
        if key not in self.slots:
            self.slots[key] = (np.zeros_like(value), np.zeros_like(value))
        m, v = self.slots[key]
        m[rows] = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * grad
        v[rows] = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m[rows] / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = v[rows] / (1.0 - ADAM_BETA2 ** self.t)
        return value[rows] - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _adam_step(state: EmbeddingState, optimizer: AdamOptimizer, rows: np.ndarray,
               grads: np.ndarray, head_grad, total: float):
    """Adam on table rows `rows` and, unless `head_grad` is None, the head."""
    optimizer.t += 1
    table = state.table
    updated = optimizer.update("table", table.rows, grads, rows)
    finite = np.isfinite(updated).all(axis=1)
    if not finite.all():
        raise DivergenceError(f"embedding for sample {table.ids[rows[np.argmin(finite)]]!r} "
                              f"became non-finite at step {optimizer.t}")
    table.rows[rows] = clip_to_ball(updated, state.curvature, state.eps)
    if head_grad is not None:
        head = optimizer.update("head", np.append(state.head.weights, state.head.bias), head_grad)
        state.head.weights, state.head.bias = head[:-1], float(head[-1])
    if not math.isfinite(total):
        raise DivergenceError(f"non-finite loss at step {optimizer.t}")


def train_step(state: EmbeddingState, batch: LossBatch, optimizer: AdamOptimizer,
               config: TrainConfig) -> GradientBundle:
    """One optimizer step on a batch: gradients, Adam on the touched rows and
    the head, ball guard."""
    bundle = loss_gradients(
        batch, state, state.curvature, state.eps, config.margin_eps,
        reg_space=config.reg_space, triplet_metric=config.triplet_metric)
    table = state.table
    rows = np.array([table.index[sid] for sid in bundle.embeddings], dtype=np.intp)
    grads = np.reshape(list(bundle.embeddings.values()), (rows.size, table.rows.shape[1]))
    head_grad = np.append(bundle.head_weights, bundle.head_bias) if batch.pairs else None
    _adam_step(state, optimizer, rows, grads, head_grad, bundle.report.total)
    return bundle


def train(state: EmbeddingState, manifest: HierarchyManifest,
          config: TrainConfig) -> tuple[EmbeddingState, list[LossReport]]:
    """Optimize the state in place for config.epochs; returns it with the
    per-epoch loss curve.

    Each epoch samples batch_triplets fresh triplets plus all positive pairs,
    walks them in fixed-size minibatches, and then records the loss on a fixed
    seeded reference batch so the curve is comparable across epochs (and
    exactly constant at zero learning rate).  It runs on table rows, bit for
    bit as `sample_triplets`, `train_step` and `loss_gradients` would.
    """
    if len(manifest.categories) < 2:
        raise ValueError("triplet mining needs at least 2 categories for negatives")
    tables = _TripletTables(manifest, state.table.ids)
    pair_rows, n_points, size = tables.pairs, tables.n_points, config.minibatch
    if not len(pair_rows):
        raise ValueError("manifest contains no (part, whole) pairs")
    ref_trips = tables.sample(config.batch_triplets, np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(_REF_STREAM,))))
    optimizer = AdamOptimizer(config.learning_rate)

    def loss(rows, pairs, n_points, trips):
        return row_loss_gradients(state.table.rows[rows], state.head, pairs, n_points, trips,
                                  state.curvature, state.eps, config.margin_eps,
                                  reg_space=config.reg_space, triplet_metric=config.triplet_metric)

    curve: list[LossReport] = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(_EPOCH_STREAM, epoch)))
        trips = tables.sample(config.batch_triplets, rng)
        for lo in range(0, max(len(pair_rows), len(trips)), size):
            p, t = pair_rows[lo:lo + size], trips[lo:lo + size]
            rows, local = np.unique(np.concatenate([p.ravel(), t.ravel()]), return_inverse=True)
            grad, touched, gw, gb, report = loss(
                rows, local[:p.size].reshape(-1, 2), n_points[lo:lo + size],
                local[p.size:].reshape(-1, 3))
            _adam_step(state, optimizer, rows[touched], grad[touched],
                       np.append(gw, gb) if len(p) else None, report.total)
        report = loss(slice(None), pair_rows, n_points, ref_trips)[-1]
        if not math.isfinite(report.total):
            raise DivergenceError(f"non-finite reference loss after epoch {epoch}")
        curve.append(report)
    return state, curve


# --- evaluation -------------------------------------------------------------


def _unit_hash(seed: int, sample_id: str) -> float:
    digest = hashlib.sha256(f"{seed}:{sample_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def holdout_anchor_ids(manifest: HierarchyManifest, seed: int) -> list[str]:
    """Wholes whose seeded id hash falls below HOLDOUT_FRACTION; the
    evaluation triplets are anchored here."""
    return [w.id for w in manifest.wholes() if _unit_hash(seed, w.id) < HOLDOUT_FRACTION]


def _evaluation_rows(manifest: HierarchyManifest, tables: _TripletTables, seed: int) -> np.ndarray:
    held = set(holdout_anchor_ids(manifest, seed))
    # Tiny manifests can hash every whole into the training side: then all are anchors.
    positions = [i for i, w in enumerate(manifest.wholes()) if w.id in held or not held]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_EVAL_STREAM,)))
    return tables.draw(np.repeat(positions, EVAL_TRIPLETS_PER_ANCHOR), rng)


def evaluation_triplets(manifest: HierarchyManifest, seed: int) -> list[TripletExample]:
    tables = _TripletTables(manifest)
    return tables.examples(_evaluation_rows(manifest, tables, seed))


def evaluate_hierarchy(state: EmbeddingState, manifest: HierarchyManifest) -> dict[str, float]:
    """Quantify the learned hierarchy.

    norm_order_rate: fraction of (part, whole) pairs with the part's
    hyperbolic norm strictly below the whole's.  chain_rate: fraction of
    objects whose parts and whole are fully ordered by norm.  triplet_accuracy:
    fraction of held-out triplets with the anchor closer (in the origin
    tangent space) to its own part than to the foreign part.
    """
    tables = _TripletTables(manifest, state.table.ids)
    coords = clip_to_ball(state.table.rows, state.curvature, state.eps)
    norms = hyperbolic_norms(coords, state.curvature)
    # Row w: the norms of the w-th whole's parts, then its own norm.
    chain = np.column_stack([norms[tables.own], norms[tables.wholes]])
    chain[np.arange(len(chain)), tables.n_own] = norms[tables.wholes]
    in_chain = np.arange(tables.own.shape[1]) < tables.n_own[:, None]
    chains_ok = np.count_nonzero(((chain[:, :-1] < chain[:, 1:]) | ~in_chain).all(axis=1))
    norm_ok = np.count_nonzero(norms[tables.pairs[:, 0]] < norms[tables.pairs[:, 1]])
    tangents = log_maps_origin(coords, state.curvature)
    anchor, pos, neg = _evaluation_rows(manifest, tables, state.seed).T
    trip_ok = np.count_nonzero(_row_norms(tangents[anchor] - tangents[pos])
                               < _row_norms(tangents[anchor] - tangents[neg]))
    return {
        "norm_order_rate": int(norm_ok) / len(tables.pairs),
        "chain_rate": int(chains_ok) / len(chain),
        "triplet_accuracy": int(trip_ok) / len(anchor) if len(anchor) else float("nan"),
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
