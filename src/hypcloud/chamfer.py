"""Shape-level distances between point clouds.

Euclidean L1/L2 Chamfer distance with exact KD-tree acceleration, a
brute-force reference path, and the hyperbolic Chamfer distance where the
per-point metric is the Poincare-ball geodesic distance.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .poincare import BALL_EPS, CHUNK_ROWS, Curvature, clip_to_ball, geodesic_distance_matrix

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

    def __len__(self) -> int:
        return self._points.shape[0]

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, distances) of the nearest data point per query row."""
        queries = np.asarray(queries, dtype=np.float64)
        squeeze = queries.ndim == 1
        queries = np.atleast_2d(queries)
        n = len(self)
        if n == 1:
            idx = np.zeros(queries.shape[0], dtype=np.intp)
        else:
            d2, i2 = self._tree.query(queries, k=2)
            idx = i2[:, 0].astype(np.intp)
            # An exact tie at the minimum may be resolved arbitrarily by the
            # tree; repair those rows to the lowest index.
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
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
    for lo in range(0, xs.shape[0], CHUNK_ROWS):
        out[lo:lo + CHUNK_ROWS] = _nn_distances(ys[None, :, :], xs[lo:lo + CHUNK_ROWS, None, :])
    return out


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


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
    _check_variant(variant)
    if method == "kdtree":
        d_xy = NNIndex(y).query(x.points)[1]
        d_yx = NNIndex(x).query(y.points)[1]
    elif method == "brute":
        dm = euclidean_distance_matrix(x.points, y.points)
        d_xy = dm.min(axis=1)
        d_yx = dm.min(axis=0)
    else:
        raise ValueError(f"method must be 'kdtree' or 'brute', got {method!r}")
    if variant == "l2":
        d_xy = d_xy**2
        d_yx = d_yx**2
    return float(d_xy.mean() + d_yx.mean())


def hyper_chamfer(x: PointCloud, y: PointCloud, curv: Curvature, eps: float = BALL_EPS) -> float:
    """Chamfer distance under the ball geodesic metric.

    Both clouds are first projected into the ball; nearest neighbors are
    found by exhaustive search under the hyperbolic metric itself (the
    Euclidean nearest neighbor is not the hyperbolic one in general).
    """
    xb = clip_to_ball(x.points, curv, eps)
    yb = clip_to_ball(y.points, curv, eps)
    dm = geodesic_distance_matrix(xb, yb, curv)
    return float(dm.min(axis=1).mean() + dm.min(axis=0).mean())
