"""Training objectives: hinge regularizer with adaptive margin, triplet loss,
their composition, exact analytic gradients, and a finite-difference harness.

`row_loss_gradients` is the one place where L_Z, L_T and the margin are
written; `loss_gradients` is its id-keyed view.

Gradients are written out by hand (chain rule through the ball projection,
the origin log map, and the hyperbolic norm) and verified against central
finite differences; see `gradient_check_cases`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# hyperbolic_norm and log_map_origin are unused here but perfbench/tracing.py patches them.
from .poincare import (
    BALL_EPS,
    BallPoint,
    Curvature,
    _row_norms,
    clip_to_ball,
    clip_vjp,
    geodesic_distance,
    geodesic_distance_grad,
    geodesic_distances,
    hyperbolic_norm,
    hyperbolic_norm_grad,
    hyperbolic_norms,
    log_map_origin,
    log_map_origin_vjp,
    log_maps_origin,
)

# Keeps the produced margin strictly inside (0, gamma0) even when the
# sigmoid saturates in float64.
SIGMOID_CLIP = 1e-15

REG_SPACES = ("hyperbolic", "euclidean")
TRIPLET_METRICS = ("tangent", "geodesic")


def sigmoid(a):
    """Numerically stable elementwise logistic, clipped away from exact 0 and 1."""
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(-np.abs(a))
    s = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(s, SIGMOID_CLIP, 1.0 - SIGMOID_CLIP)


@dataclass
class MarginHead:
    """Affine head producing the adaptive margin gamma0 * sigmoid(w.l + b)."""

    weights: np.ndarray
    bias: float
    gamma0: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ValueError("head weights must be a 1-D vector")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")

    @classmethod
    def zeros(cls, feature_dim: int, gamma0: float) -> "MarginHead":
        return cls(np.zeros(feature_dim), 0.0, gamma0)


@dataclass(frozen=True)
class LossReport:
    """Loss components; total = l_z + l_t exactly."""

    l_z: float
    l_t: float
    total: float


# --- batched loss + gradients ----------------------------------------------


@dataclass(frozen=True)
class PairExample:
    """A (part, whole) positive pair for the regularizer; N is the part size."""

    part_id: str
    whole_id: str
    n_points: int

    def __post_init__(self):
        if not self.n_points >= 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")


@dataclass(frozen=True)
class TripletExample:
    """Anchor whole, a part of the same object, and a foreign-category part."""

    whole_id: str
    pos_id: str
    neg_id: str


@dataclass(frozen=True)
class LossBatch:
    pairs: tuple[PairExample, ...] = ()
    triplets: tuple[TripletExample, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "triplets", tuple(self.triplets))


@dataclass
class GradientBundle:
    """Gradients of mean(L_Z) + mean(L_T) for one batch."""

    embeddings: dict[str, np.ndarray]
    head_weights: np.ndarray
    head_bias: float
    report: LossReport


def loss_gradients(
    batch: LossBatch,
    state,
    curv: Curvature,
    eps: float = BALL_EPS,
    margin_eps: float = 4.0,
    *,
    reg_space: str = "hyperbolic",
    triplet_metric: str = "tangent",
) -> GradientBundle:
    """Exact analytic gradients of mean(L_Z) + mean(L_T) over the batch.

    `state` must expose `table` (sample id -> trainable vector) and `head`
    (a MarginHead).  A view of `row_loss_gradients` on the batch's rows in
    order of first appearance; a sample gets a gradient entry iff it appears
    in at least one hinge-active example.
    """
    if not batch.pairs and not batch.triplets:
        raise ValueError("loss batch is empty")
    pair_ids = [(e.part_id, e.whole_id) for e in batch.pairs]
    trip_ids = [(e.whole_id, e.pos_id, e.neg_id) for e in batch.triplets]
    ids = list(dict.fromkeys(sid for example in pair_ids + trip_ids for sid in example))
    row = {sid: i for i, sid in enumerate(ids)}
    grad, touched, gw, gb, report = row_loss_gradients(
        np.stack([state.table[sid] for sid in ids]), state.head,
        np.array([[row[s] for s in ex] for ex in pair_ids], dtype=np.intp).reshape(-1, 2),
        np.array([e.n_points for e in batch.pairs], dtype=np.float64),
        np.array([[row[s] for s in ex] for ex in trip_ids], dtype=np.intp).reshape(-1, 3),
        curv, eps, margin_eps, reg_space=reg_space, triplet_metric=triplet_metric)
    return GradientBundle(embeddings={ids[i]: grad[i] for i in np.flatnonzero(touched)},
                          head_weights=gw, head_bias=gb, report=report)


def row_loss_gradients(
    theta: np.ndarray,
    head: MarginHead,
    pairs: np.ndarray,
    n_points: np.ndarray,
    trips: np.ndarray,
    curv: Curvature,
    eps: float = BALL_EPS,
    margin_eps: float = 4.0,
    *,
    reg_space: str = "hyperbolic",
    triplet_metric: str = "tangent",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, LossReport]:
    """mean(L_Z) + mean(L_T) and its exact gradients, on rows `theta` (R, d).

    The rows double as the margin head's features.  `pairs` (P, 2) holds
    (part, whole) and `trips` (T, 3) (anchor, positive, negative) row
    indices, `n_points` (P,) the part sizes.  Per-example gradients are
    scattered onto the rows in example order.  Hinge subgradients are zero at
    kinks; the ball clip contributes the identity inside the margin radius
    and the exact Jacobian of the radial rescaling outside it.  Returns
    (grad (R, d), touched (R,), head weight grad, head bias grad, LossReport);
    a row is touched iff it is in a hinge-active example.
    """
    if reg_space not in REG_SPACES:
        raise ValueError(f"reg_space must be one of {REG_SPACES}, got {reg_space!r}")
    if triplet_metric not in TRIPLET_METRICS:
        raise ValueError(f"triplet_metric must be one of {TRIPLET_METRICS}, got {triplet_metric!r}")
    if not margin_eps > 0:
        raise ValueError(f"margin_eps must be positive, got {margin_eps}")
    dim = theta.shape[1]
    if len(pairs) and head.weights.shape[0] != 2 * dim:
        raise ValueError(
            f"head width {head.weights.shape[0]} does not match embedding dim {dim} (need 2*dim)")
    emb = clip_to_ball(theta, curv, eps)
    g_emb = np.zeros_like(theta)    # gradient wrt the clipped rows
    g_theta = np.zeros_like(theta)  # gradient reaching theta directly (head features)
    touched = np.zeros(len(theta), dtype=bool)

    l_z, gw, gb = 0.0, np.zeros_like(head.weights), 0.0
    if len(pairs):
        p, w = pairs[:, 0], pairs[:, 1]
        if reg_space == "hyperbolic":
            h, dh = hyperbolic_norms(emb, curv), hyperbolic_norm_grad(emb, curv)
        else:
            h = _row_norms(emb)
            dh = emb / np.where(h > 0.0, h, 1.0)[:, None]
        feats = np.concatenate([theta[p], theta[w]], axis=1)
        sig = sigmoid(feats @ head.weights + head.bias)
        val = -h[w] + h[p] + head.gamma0 * sig / n_points
        on = val > 0.0
        l_z = float(val[on].sum()) / len(pairs)
        # Scatter onto the parts, then the wholes, in example order.
        scale, idx, on2 = 1.0 / len(pairs), pairs.T.ravel(), np.tile(on, 2)
        np.add.at(g_emb, idx[on2], scale * np.concatenate([dh[p], -dh[w]])[on2])
        dsig = (head.gamma0 * sig * (1.0 - sig) / n_points)[:, None]
        g = np.concatenate([dsig * head.weights[:dim], dsig * head.weights[dim:]])
        np.add.at(g_theta, idx[on2], scale * g[on2])
        touched[idx[on2]] = True
        gw = scale * (dsig[on] * feats[on]).sum(axis=0)
        gb = scale * float(dsig[on].sum())

    l_t = 0.0
    if len(trips):
        a, pos, neg = trips[:, 0], trips[:, 1], trips[:, 2]
        idx = trips.T.ravel()  # all anchors, then all positives, then all negatives
        if triplet_metric == "tangent":
            tan = log_maps_origin(emb, curv)
            diff_pos, diff_neg = tan[a] - tan[pos], tan[a] - tan[neg]
            d_pos, d_neg = _row_norms(diff_pos), _row_norms(diff_neg)
            u_pos = diff_pos / np.where(d_pos > 0.0, d_pos, 1.0)[:, None]
            u_neg = diff_neg / np.where(d_neg > 0.0, d_neg, 1.0)[:, None]
            g = log_map_origin_vjp(np.concatenate([u_pos - u_neg, -u_pos, u_neg]), emb[idx], curv)
        else:
            d_pos = geodesic_distances(emb[a], emb[pos], curv)
            d_neg = geodesic_distances(emb[a], emb[neg], curv)
            gpx, g_pos = geodesic_distance_grad(emb[a], emb[pos], curv)
            gnx, gny = geodesic_distance_grad(emb[a], emb[neg], curv)
            g = np.concatenate([gpx - gnx, g_pos, -gny])
        val = d_pos - d_neg + margin_eps
        on = val > 0.0
        l_t = float(val[on].sum()) / len(trips)
        on3 = np.tile(on, 3)
        np.add.at(g_emb, idx[on3], (1.0 / len(trips)) * g[on3])
        touched[idx[on3]] = True

    grad = clip_vjp(g_emb, theta, curv, eps) + g_theta
    return grad, touched, gw, gb, LossReport(l_z, l_t, l_z + l_t)


# --- finite-difference verification ----------------------------------------


def grad_check(fn, grad: np.ndarray, point: np.ndarray, h: float = 1e-6) -> float:
    """Max relative error of `grad` vs central differences of `fn` at `point`.

    Per coordinate: |analytic - central| / max(1, |central|).  The caller is
    responsible for keeping `point` away from hinge kinks.
    """
    if not (1e-9 < h < 1e-3):
        raise ValueError(f"step h must lie in (1e-9, 1e-3), got {h}")
    point = np.asarray(point, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != point.shape:
        raise ValueError("gradient and point shapes differ")
    worst = 0.0
    for j in range(point.shape[0]):
        shift = np.zeros_like(point)
        shift[j] = h
        central = (fn(point + shift) - fn(point - shift)) / (2.0 * h)
        worst = max(worst, abs(grad[j] - central) / max(1.0, abs(central)))
    return worst


def _interior_point(rng: np.random.Generator, dim: int, curv: Curvature) -> np.ndarray:
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.05, 0.7) * curv.ball_radius * direction


# One (part, whole) pair or one (anchor, positive, negative) triplet on rows 0..2.
_PAIR, _NO_PAIRS = np.array([[0, 1]]), np.empty((0, 2), dtype=np.intp)
_TRIPLET, _NO_TRIPLETS = np.array([[0, 1, 2]]), np.empty((0, 3), dtype=np.intp)
_NO_SIZES = np.empty(0)


def gradient_check_cases(seed: int, n_cases: int, h: float = 1e-6) -> list[tuple[str, float]]:
    """Finite-difference checks over seeded hinge-active configurations.

    Cycles through a geodesic pair, a regularizer pair, and a triplet.  Kinks
    are excluded by construction: margins are chosen so the hinge argument
    stays at least 1e-3 from zero.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    results = []
    for case in range(n_cases):
        kind = ("geodesic", "reg_pair", "triplet")[case % 3]
        curv = Curvature(-float(rng.uniform(0.1, 1.5)))
        dim = int(rng.integers(2, 8))
        if kind == "geodesic":
            x = _interior_point(rng, dim, curv)
            y = _interior_point(rng, dim, curv)
            gx, gy = geodesic_distance_grad(x, y, curv)
            analytic = np.concatenate([gx, gy])

            def fn(v, dim=dim, curv=curv):
                return geodesic_distance(BallPoint(v[:dim], curv), BallPoint(v[dim:], curv))

            point = np.concatenate([x, y])
        elif kind == "reg_pair":
            head = MarginHead(rng.normal(scale=0.3, size=2 * dim), float(rng.normal(scale=0.5)),
                              float(rng.uniform(1.0, 1000.0)))
            n_points = np.array([float(rng.integers(1, 1000))])

            def fn(v, dim=dim, curv=curv, head=head, n_points=n_points, full=False):
                trial_head = MarginHead(v[2 * dim:4 * dim], float(v[4 * dim]), head.gamma0)
                out = row_loss_gradients(v[:2 * dim].reshape(2, dim), trial_head, _PAIR,
                                         n_points, _NO_TRIPLETS, curv)
                return out if full else out[-1].l_z

            for _ in range(200):
                point = np.concatenate([_interior_point(rng, dim, curv),
                                        _interior_point(rng, dim, curv), head.weights, [head.bias]])
                grad, _, gw, gb, report = fn(point, full=True)
                if report.l_z > 1e-3:
                    break
            analytic = np.concatenate([grad.ravel(), gw, [gb]])
        else:
            theta = np.stack([_interior_point(rng, dim, curv) for _ in range(3)])
            head = MarginHead.zeros(2 * dim, 1.0)
            t = log_maps_origin(clip_to_ball(theta, curv), curv)
            d_pos = float(np.linalg.norm(t[0] - t[1]))
            d_neg = float(np.linalg.norm(t[0] - t[2]))
            margin = max(1e-2, d_neg - d_pos + float(rng.uniform(0.5, 2.0)))

            def fn(v, dim=dim, curv=curv, head=head, margin=margin):
                return row_loss_gradients(v.reshape(3, dim), head, _NO_PAIRS, _NO_SIZES,
                                          _TRIPLET, curv, margin_eps=margin)[-1].l_t

            point = theta.ravel()
            analytic = row_loss_gradients(theta, head, _NO_PAIRS, _NO_SIZES, _TRIPLET, curv,
                                          margin_eps=margin)[0].ravel()
        results.append((kind, grad_check(fn, analytic, point, h)))
    return results
