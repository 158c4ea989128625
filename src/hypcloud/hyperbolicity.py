"""Gromov delta-hyperbolicity estimation of point sets under a chosen metric.

The estimator forms Gromov products against a base point and measures the
worst defect of the max-min matrix product; 0 for tree metrics, positive for
flat geometries.  A batched, seeded sampling protocol handles large sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chamfer import euclidean_distance_matrix
from .poincare import BALL_EPS, Curvature, clip_to_ball, geodesic_distance_matrix

METRICS = ("euclidean", "hyperbolic")

# Above this size an exact pass skips the exhaustive all-bases four-point scan.
FOUR_POINT_LIMIT = 256


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative distance matrix with a zero diagonal."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(d < 0):
            raise ValueError("distance matrix contains negative entries")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class DeltaReport:
    """Averaged delta estimate; delta_rel is 2*delta/diameter per batch.

    base_point is the input row used as base in the last batch; four_point
    (all bases) is set only by an exact pass over <= FOUR_POINT_LIMIT rows.
    """

    delta: float
    diameter: float
    delta_rel: float
    base_point: int
    batches: int
    samples_per_batch: int
    exact: bool
    four_point: float | None = None

    def __post_init__(self):
        if self.delta < 0 or self.delta_rel < 0:
            raise ValueError("delta and delta_rel must be nonnegative")
        if self.delta > self.diameter + 1e-12:
            raise ValueError(f"delta {self.delta} exceeds diameter {self.diameter}")


def pairwise_distances(
    points: np.ndarray,
    metric: str = "euclidean",
    curv: Curvature | None = None,
    eps: float = BALL_EPS,
    workers: int = 1,
) -> DistanceMatrix:
    """Exact pairwise distances under the chosen metric.

    The hyperbolic metric first projects the rows into the ball of `curv`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError(f"need at least 2 points of equal dimension, got shape {points.shape}")
    if metric == "euclidean":
        d = euclidean_distance_matrix(points, points)
    elif metric == "hyperbolic":
        if curv is None:
            raise ValueError("the hyperbolic metric requires a curvature")
        ball = clip_to_ball(points, curv, eps)
        d = geodesic_distance_matrix(ball, ball, curv, workers=workers)
    else:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    return DistanceMatrix(d)


def _maxmin_delta(m: np.ndarray, workers: int = 1) -> float:
    """max_ij ((M (x) M) - M) with (M (x) M)[i,j] = max_k min(M[i,k], M[k,j]).

    Row-chunked; the reduction is a max, so worker count cannot change the
    result.
    """
    n = m.shape[0]

    def rows(lo: int, hi: int) -> float:
        worst = -math.inf
        for i in range(lo, hi):
            maxmin = np.minimum(m[i][:, None], m).max(axis=0)
            worst = max(worst, float((maxmin - m[i]).max()))
        return worst

    if workers <= 1 or n < 64:
        return rows(0, n)
    from concurrent.futures import ThreadPoolExecutor

    bounds = [(lo, min(lo + 64, n)) for lo in range(0, n, 64)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return max(pool.map(lambda b: rows(*b), bounds))


def gromov_delta(dm: DistanceMatrix, base: int, workers: int = 1) -> float:
    """Delta of the four-point condition anchored at `base` (clamped at 0)."""
    if not (0 <= base < dm.n):
        raise ValueError(f"base index {base} out of range for n={dm.n}")
    d = dm.d
    m = 0.5 * (d[:, base][:, None] + d[base, :][None, :] - d)
    return max(0.0, _maxmin_delta(m, workers=workers))


def four_point_delta(dm: DistanceMatrix, workers: int = 1) -> float:
    """Exhaustive four-point delta: the maximum of gromov_delta over all bases."""
    return max(gromov_delta(dm, b, workers=workers) for b in range(dm.n))


def _heaviest_base(d: np.ndarray) -> int:
    """Deterministic base choice: the point with the maximal distance sum."""
    return int(np.argmax(d.sum(axis=1)))


def _sampled(n: int, submatrix, batch_size: int, n_batches: int, seed: int,
             workers: int) -> DeltaReport:
    """The batched protocol over n rows; `submatrix(pick)` returns the
    DistanceMatrix of the rows in `pick`, so only the batches' are built."""
    if batch_size < 4:
        raise ValueError(f"batch_size must be >= 4, got {batch_size}")
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    exact = n <= batch_size
    picks = [np.arange(n)]
    if not exact:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
        picks = [np.sort(rng.choice(n, size=batch_size, replace=False)) for _ in range(n_batches)]
    deltas, diams, rels = [], [], []
    for pick in picks:
        sub = submatrix(pick)
        base = _heaviest_base(sub.d)
        delta = gromov_delta(sub, base, workers=workers)
        diam = float(sub.d.max())
        deltas.append(delta)
        diams.append(diam)
        rels.append(2.0 * delta / diam if diam > 0 else 0.0)
    four_point = None
    if exact and n <= FOUR_POINT_LIMIT:
        four_point = four_point_delta(sub, workers=workers)
    return DeltaReport(
        delta=float(np.mean(deltas)),
        diameter=float(np.mean(diams)),
        delta_rel=float(np.mean(rels)),
        base_point=int(pick[base]),
        batches=len(picks),
        samples_per_batch=sub.n,
        exact=exact,
        four_point=four_point,
    )


def sampled_delta_matrix(
    dm: DistanceMatrix,
    batch_size: int = 1500,
    n_batches: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> DeltaReport:
    """Average gromov_delta over seeded uniform subsets of the matrix rows.

    If the matrix has no more rows than `batch_size`, a single exact pass over
    all points is reported instead.  delta_rel is computed against each
    batch's own diameter, then averaged, so it stays scale-free per batch.
    """
    return _sampled(dm.n, lambda pick: DistanceMatrix(dm.d[np.ix_(pick, pick)]),
                    batch_size, n_batches, seed, workers)


def sampled_delta(
    points: np.ndarray,
    metric: str = "euclidean",
    batch_size: int = 1500,
    n_batches: int = 3,
    seed: int = 0,
    curv: Curvature | None = None,
    eps: float = BALL_EPS,
    workers: int = 1,
) -> DeltaReport:
    """Batched delta estimate straight from points under the chosen metric.

    Equals `sampled_delta_matrix(pairwise_distances(points, ...), ...)`
    bit-exactly, but computes only the distances of the sampled rows.
    """
    points = np.asarray(points, dtype=np.float64)
    return _sampled(len(points), lambda pick: pairwise_distances(
        points[pick], metric, curv=curv, eps=eps, workers=workers),
        batch_size, n_batches, seed, workers)
