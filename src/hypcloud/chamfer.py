"""Shape-level distances between point clouds.

Euclidean L1/L2 Chamfer distance with exact KD-tree acceleration, a
brute-force reference path, and the hyperbolic Chamfer distance where the
per-point metric is the Poincare-ball geodesic distance, found by an exact
shell-stratified KD-tree search.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
# geodesic_distance_matrix is not called here; it stays a module attribute
# because perfbench's tracer patches it by name.
from .poincare import (  # noqa: F401
    BALL_EPS,
    Curvature,
    _pairwise,
    clip_to_ball,
    geodesic_distance_matrix,
    geodesic_distances,
)

VARIANTS = ("l1", "l2")


def _nn_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances between paired rows (leading axes broadcast): the
    one float expression of the KD-tree and the brute-force paths."""
    return np.sqrt(((queries - points) ** 2).sum(axis=-1))


class NNIndex:
    """Exact Euclidean nearest-neighbor index over a point cloud.

    Query results match a brute-force argmin bit-exactly: distances are
    recomputed from the winning index with the same expression the
    brute-force path uses, and exact ties resolve to the lowest index.
    """

    def __init__(self, cloud: PointCloud):
        if not isinstance(cloud, PointCloud):
            cloud = PointCloud(cloud)
        self._points = cloud.points
        self._tree = cKDTree(self._points)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, distances) of the nearest data point per query row."""
        queries = np.asarray(queries, dtype=np.float64)
        squeeze = queries.ndim == 1
        queries = np.atleast_2d(queries)
        d2, i2 = self._tree.query(queries, k=2)
        idx = i2[:, 0].astype(np.intp)
        # An exact tie at the minimum may be resolved arbitrarily by the tree;
        # repair those rows to the lowest index.  (A one-point tree reports
        # its missing second neighbour at distance inf: it has no ties.)
        ties = np.nonzero(d2[:, 0] == d2[:, 1])[0]
        for row in ties:
            cand = np.asarray(self._tree.query_ball_point(queries[row], d2[row, 0]), dtype=np.intp)
            cd = _nn_distances(self._points[cand], queries[row])
            idx[row] = cand[cd == cd.min()].min()
        dist = _nn_distances(self._points[idx], queries)
        if squeeze:
            return idx[0], dist[0]
        return idx, dist


def euclidean_distance_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Dense pairwise Euclidean distances; per-entry symmetric construction."""
    return _pairwise(_nn_distances, xs, ys)


def _nn_minima(x: PointCloud, y: PointCloud, method: str = "kdtree"):
    """Euclidean nearest-neighbour distances, x to y and y to x: the one NN
    pass of `chamfer_distance` and `metrics.evaluate`, twin of `_hyper_minima`."""
    if method == "kdtree":
        return NNIndex(y).query(x.points)[1], NNIndex(x).query(y.points)[1]
    if method == "brute":
        dm = euclidean_distance_matrix(x.points, y.points)
        return dm.min(axis=1), dm.min(axis=0)
    raise ValueError(f"method must be 'kdtree' or 'brute', got {method!r}")


def chamfer_distance(
    x: PointCloud,
    y: PointCloud,
    variant: str = "l1",
    *,
    method: str = "kdtree",
) -> float:
    """Symmetric Chamfer distance between two clouds.

    The L1 variant averages nearest-neighbor distances, the L2 variant their
    squares (no final square root).  `method` selects the KD-tree path or the
    brute-force reference; both produce bit-identical results.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    d_xy, d_yx = _nn_minima(x, y, method)
    if variant == "l2":
        d_xy = d_xy**2
        d_yx = d_yx**2
    return float(d_xy.mean() + d_yx.mean())


# --- exact pruned hyperbolic nearest neighbours -------------------------------
#
# For a query x with a = 1 - c|x|^2 the ball distance to a target y is
#     d = acosh(1 + 2c s / a) / sqrt(c),   s = |x - y|^2 / (1 - c|y|^2),
# increasing in s.  A target closer than d has s <= a sinh^2(sqrt(c) d / 2) / c
# and, among targets with 1 - c|y|^2 <= b, lies within Euclidean radius
# sqrt(s b) of x.  Targets are grouped into shells by the binary exponent of
# 1 - c|y|^2, one cKDTree each, so b (the shell maximum) is below twice any
# target's 1 - c|y|^2 and the radius stays tight up to the clip margin.  The
# bound d* is the least distance to the shells' Euclidean nearest neighbours;
# a shell whose nearest neighbour lies beyond the radius has no candidate.
#
# The search must keep every target whose *computed* distance is the computed
# minimum, so d* is widened by the forward error of `geodesic_distances`.
# With unit roundoff u, rows of dimension n and A = (1 - c|x|^2)(1 - c|y|^2):
#   - the denominator D = 1 - 2c<x,y> + c^2|x|^2|y|^2 = A + c|x-y|^2 sums terms
#     of size at most 1, 2 and 1, so its absolute error is at most (4n + 12)u:
#     near the margin the cancellation down to A sets the error; the
#     numerator |x-y|^2 carries a relative error of at most (n + 3)u;
#   - arctanh is taken of t with 1 - t^2 = A / D, so its condition number
#     t D / (A arctanh t) is at most D / A <= 4 / A;
# so the relative error of a computed distance is at most
#     tau_k = (4n + 30) u / A_min,   A_min = min(1 - c|x|^2) min(1 - c|y|^2),
# about 20x the worst error measured against 60-digit references.  A winner
# y* then has true distance d(y*) <= d* / (1 - tau_k) <= d* (1 + 2 tau_k) for
# tau_k <= 1/2.  The search widens d* by tau = 3 tau_k; the spare tau_k grows
# s by at least 2 tau_k, which covers the rounding of the radius (each of its
# steps is off by O(u / A_min)) and of the KD-tree's distances.  Past
# tau_k = 1/2 the bound says nothing: a query with d* > 0 then takes every
# target as a candidate.

# Query rows per pass of the pruned search and pairs per block of a shell it
# takes whole; together they bound its scratch memory.
QUERY_ROWS = 1024
WHOLE_PAIRS = 2**18
_U = np.finfo(np.float64).eps / 2


def distance_tolerance(a_min: float, dim: int) -> float:
    """The relative widening tau of the pruned search's distance bound."""
    tau_k = (4 * dim + 30) * _U / a_min
    return 3.0 * tau_k if tau_k <= 0.5 else math.inf


def _hyper_nn(queries, a_q, targets, a_t, curv: Curvature, tau: float) -> np.ndarray:
    """Per query row, the least computed geodesic distance to any target row.

    `a_q` and `a_t` are the rows' 1 - c|.|^2.  Equal bit for bit to
    `geodesic_distance_matrix(queries, targets, curv).min(axis=1)`, from a
    few candidate pairs per query.
    """
    c = curv.c
    exps = np.frexp(a_t)[1]
    shells = [(cKDTree(targets[exps == e]), float(a_t[exps == e].max())) for e in np.unique(exps)]
    best = np.empty(len(queries))
    for lo in range(0, len(queries), QUERY_ROWS):
        q = queries[lo:lo + QUERY_ROWS]
        # Seed d* from each shell's Euclidean nearest neighbour.
        d_star = np.full(len(q), np.inf)
        near = []
        for tree, _ in shells:
            e, j = tree.query(q)
            near.append(e)
            np.minimum(d_star, geodesic_distances(q, tree.data[j], curv), out=d_star)
        if math.isinf(tau):
            widened = np.where(d_star > 0.0, np.inf, 0.0)
        else:
            widened = (1.0 + tau) * d_star
        s_bound = a_q[lo:lo + QUERY_ROWS] * np.sinh((0.5 * math.sqrt(c)) * widened) ** 2 / c
        for (tree, b), e in zip(shells, near):
            radius = np.sqrt(s_bound * b)
            # A radius past the far corner of the shell's box takes the whole
            # shell: evaluate it in blocks of about WHOLE_PAIRS pairs.
            far = np.maximum(np.abs(q - tree.mins), np.abs(q - tree.maxes))
            covers = radius * radius >= (far * far).sum(axis=1)
            whole = np.flatnonzero(covers)
            step = max(1, WHOLE_PAIRS // tree.n)
            for w in (whole[i:i + step] for i in range(0, len(whole), step)):
                d = geodesic_distances(q[w, None, :], tree.data[None, :, :], curv)
                d_star[w] = np.minimum(d_star[w], d.min(axis=1))
            hit = np.flatnonzero((e <= radius) & ~covers)
            cand = tree.query_ball_point(q[hit], radius[hit], return_sorted=False)
            counts = np.fromiter(map(len, cand), dtype=np.intp, count=len(hit))
            qi = np.repeat(hit, counts)
            ti = np.fromiter(itertools.chain.from_iterable(cand), dtype=np.intp,
                             count=int(counts.sum()))
            np.minimum.at(d_star, qi, geodesic_distances(q[qi], tree.data[ti], curv))
        best[lo:lo + QUERY_ROWS] = d_star
    return best


def _hyper_minima(xb: np.ndarray, yb: np.ndarray, curv: Curvature):
    """Nearest-neighbour geodesic distances between ball rows, x to y and y to x."""
    a_x = 1.0 - curv.c * (xb * xb).sum(axis=1)
    a_y = 1.0 - curv.c * (yb * yb).sum(axis=1)
    tau = distance_tolerance(float(a_x.min() * a_y.min()), xb.shape[1])
    return _hyper_nn(xb, a_x, yb, a_y, curv, tau), _hyper_nn(yb, a_y, xb, a_x, curv, tau)


def hyper_chamfer(x: PointCloud, y: PointCloud, curv: Curvature, eps: float = BALL_EPS) -> float:
    """Chamfer distance under the ball geodesic metric.

    Both clouds are first projected into the ball.  Each point's nearest
    neighbour under the hyperbolic metric itself (the Euclidean nearest
    neighbour is not the hyperbolic one in general) comes from an exact
    pruned search: the result equals the minima of the dense
    `geodesic_distance_matrix` bit for bit, without building it.  Only
    candidate pairs are evaluated, so `NumericalDomainError` is raised when a
    candidate's arctanh argument reaches 1, not for a far pair that the
    search rules out.
    """
    xb = clip_to_ball(x.points, curv, eps)
    yb = clip_to_ball(y.points, curv, eps)
    d_xy, d_yx = _hyper_minima(xb, yb, curv)
    return float(d_xy.mean() + d_yx.mean())
