"""Shape-level distances between point clouds.

Euclidean L1/L2 Chamfer distance with exact KD-tree acceleration, a
brute-force reference path, and the hyperbolic Chamfer distance where the
per-point metric is the Poincare-ball geodesic distance.  Both find nearest
neighbours with one exact KD-tree search, `_nearest`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
# geodesic_distance_matrix is not called here; it stays a module attribute
# because perfbench's tracer patches it by name.
from .poincare import (BALL_EPS, Curvature, _pairwise, clip_to_ball,  # noqa: F401
                       geodesic_distance_matrix, geodesic_distances)

VARIANTS = ("l1", "l2")


def _nn_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances between paired rows (leading axes broadcast): the
    one float expression of the KD-tree and the brute-force paths."""
    return np.sqrt(((queries - points) ** 2).sum(axis=-1))


# --- exact nearest neighbours -------------------------------------------------
# Targets come in shells, one cKDTree each.  Each shell's Euclidean nearest
# neighbour seeds the bound d*, and `radius` turns d* into a Euclidean radius
# that holds every target whose computed distance can equal the computed
# minimum.  A query row takes the whole shell when that radius passes the far
# corner of its box, the shell's points within it when its second neighbour is
# inside, and otherwise only the seed.

# Near rows per candidate pass (1024 cost recon-boundary 9 MB more peak RSS
# than 256) and pairs per block of a shell taken whole bound scratch memory.
QUERY_ROWS = 256
WHOLE_PAIRS = 2**18
_U = np.finfo(np.float64).eps / 2
_NO_INDEX = np.iinfo(np.intp).max


def _settle(best, arg, rows, d, ids):
    """Lower best[rows] to d (rows may repeat); arg keeps each row's lowest id at its best."""
    before = best[rows]
    np.minimum.at(best, rows, d)
    after = best[rows]
    arg[rows[after < before]] = _NO_INDEX
    at = d == after
    np.minimum.at(arg, rows[at], ids[at])


def _nearest(queries, shells, kernel, radius):
    """(distances, indices) of each query row's nearest target under `kernel`:
    the dense kernel matrix's row minima bit for bit, exact ties to the lowest
    index.  `shells` holds (tree, ids, b) per group of targets: their cKDTree,
    their indices among all targets and the b of `radius(d_star, b)`."""
    best = np.full(len(queries), np.inf)
    arg = np.full(len(queries), _NO_INDEX, dtype=np.intp)
    second = []  # per shell, each row's second tree distance
    for tree, ids, _ in shells:
        e, j = tree.query(queries, k=2)
        _settle(best, arg, np.arange(len(queries)), kernel(queries, tree.data[j[:, 0]]), ids[j[:, 0]])
        second.append(e[:, 1].copy())
    for (tree, ids, b), e1 in zip(shells, second):
        r = radius(best, b)
        near = np.flatnonzero(e1 <= r)
        for rows in (near[i:i + QUERY_ROWS] for i in range(0, len(near), QUERY_ROWS)):
            q = queries[rows]
            far = np.maximum(np.abs(q - tree.mins), np.abs(q - tree.maxes))
            covers = r[rows] ** 2 >= (far * far).sum(axis=1)
            whole, hit = rows[covers], rows[~covers]
            step = max(1, WHOLE_PAIRS // tree.n)
            for w in (whole[i:i + step] for i in range(0, len(whole), step)):
                d = kernel(queries[w, None, :], tree.data[None, :, :])
                j = d.argmin(axis=1)
                _settle(best, arg, w, d[np.arange(len(w)), j], ids[j])
            cand = tree.query_ball_point(queries[hit], r[hit], return_sorted=False)
            counts = np.fromiter(map(len, cand), dtype=np.intp, count=len(hit))
            qi = np.repeat(hit, counts)
            ti = np.fromiter(itertools.chain.from_iterable(cand), dtype=np.intp,
                             count=int(counts.sum()))
            _settle(best, arg, qi, kernel(queries[qi], tree.data[ti]), ids[ti])
    return best, arg


# Euclidean: one shell, radius d* (1 + w).  With unit roundoff u and rows of
# dimension n, a squared distance summed in any order from n rounded squares
# of rounded differences, as both `_nn_distances` and cKDTree compute it, is
# within (n + 2)u of the exact one, and `_nn_distances`' square root adds u.
# A target whose computed distance ties the computed minimum, at most d*, so
# has a tree squared distance of at most d*^2 (1 + (2n + 6)u) and a tree
# distance (cKDTree's square root) of at most d* (1 + (n + 4)u).  Forming the
# radius loses 2u, and the tree's ball test squares it: w = (n + 6)u covers
# both to first order.  The search takes w = 2(n + 6)u; the spare covers the
# rest.

class NNIndex:
    """Exact Euclidean nearest-neighbor index over a point cloud: results match
    a brute-force argmin bit-exactly, exact ties resolve to the lowest index."""

    def __init__(self, cloud: PointCloud):
        if not isinstance(cloud, PointCloud):
            cloud = PointCloud(cloud)
        self._tree = cKDTree(cloud.points)

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, distances) of the nearest data point per query row."""
        queries = np.asarray(queries, dtype=np.float64)
        scale = 1.0 + 2.0 * (queries.shape[-1] + 6) * _U
        dist, idx = _nearest(np.atleast_2d(queries), [(self._tree, np.arange(self._tree.n), None)],
                             _nn_distances, lambda d, b: scale * d)
        return (idx[0], dist[0]) if queries.ndim == 1 else (idx, dist)


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


def chamfer_distance(x: PointCloud, y: PointCloud, variant: str = "l1", *,
                     method: str = "kdtree") -> float:
    """Symmetric Chamfer distance between two clouds.

    The L1 variant averages nearest-neighbor distances, the L2 variant their
    squares (no final square root).  `method` selects the KD-tree path or the
    brute-force reference; both produce bit-identical results.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    d_xy, d_yx = _nn_minima(x, y, method)
    if variant == "l2":
        d_xy, d_yx = d_xy**2, d_yx**2
    return float(d_xy.mean() + d_yx.mean())


# --- hyperbolic: shells by 1 - c|y|^2 -----------------------------------------
# For a query x with a = 1 - c|x|^2 the ball distance to a target y is
#     d = acosh(1 + 2c s / a) / sqrt(c),   s = |x - y|^2 / (1 - c|y|^2),
# increasing in s.  A target closer than d has s <= a sinh^2(sqrt(c) d / 2) / c
# and, among targets with 1 - c|y|^2 <= b, lies within Euclidean radius
# sqrt(s b) of x.  Targets are grouped into shells by the binary exponent of
# 1 - c|y|^2, so b (the shell maximum) is below twice any target's
# 1 - c|y|^2 and the radius stays tight up to the clip margin.
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


def distance_tolerance(a_min: float, dim: int) -> float:
    """The relative widening tau of the pruned search's distance bound."""
    tau_k = (4 * dim + 30) * _U / a_min
    return 3.0 * tau_k if tau_k <= 0.5 else math.inf


def _hyper_minima(xb: np.ndarray, yb: np.ndarray, curv: Curvature):
    """Nearest-neighbour geodesic distances between ball rows, x to y and y to x."""
    c = curv.c
    a_x = 1.0 - c * (xb * xb).sum(axis=1)
    a_y = 1.0 - c * (yb * yb).sum(axis=1)
    tau = distance_tolerance(float(a_x.min() * a_y.min()), xb.shape[1])
    kernel = functools.partial(geodesic_distances, curv=curv)

    def nearest(queries, a_q, targets, a_t):
        def radius(d_star, b):
            widened = (np.where(d_star > 0.0, np.inf, 0.0) if math.isinf(tau)
                       else (1.0 + tau) * d_star)
            return np.sqrt(a_q * np.sinh((0.5 * math.sqrt(c)) * widened) ** 2 / c * b)

        exps = np.frexp(a_t)[1]
        shells = [(cKDTree(targets[ids]), ids, float(a_t[ids].max()))
                  for ids in (np.flatnonzero(exps == e) for e in np.unique(exps))]
        return _nearest(queries, shells, kernel, radius)[0]

    return nearest(xb, a_x, yb, a_y), nearest(yb, a_y, xb, a_x)


def hyper_chamfer(x: PointCloud, y: PointCloud, curv: Curvature, eps: float = BALL_EPS) -> float:
    """Chamfer distance under the ball geodesic metric.

    Both clouds are first projected into the ball.  Each point's nearest
    neighbour under the hyperbolic metric itself (not the Euclidean one) comes
    from the exact search: the result equals the minima of the dense
    `geodesic_distance_matrix` bit for bit, without building it.  Only
    candidate pairs are evaluated, so `NumericalDomainError` is raised when a
    candidate's arctanh argument reaches 1, not for a far pair the search
    rules out.
    """
    xb = clip_to_ball(x.points, curv, eps)
    yb = clip_to_ball(y.points, curv, eps)
    d_xy, d_yx = _hyper_minima(xb, yb, curv)
    return float(d_xy.mean() + d_yx.mean())
