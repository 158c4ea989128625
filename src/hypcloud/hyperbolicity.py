"""Gromov delta-hyperbolicity estimation of point sets under a chosen metric.

The estimator forms Gromov products against a base point and measures the
worst defect of the max-min matrix product; 0 for tree metrics, positive for
flat geometries.  A batched, seeded sampling protocol handles large sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chamfer import euclidean_distance_matrix
from .poincare import BALL_EPS, Curvature, clip_to_ball, geodesic_distance_matrix

METRICS = ("euclidean", "hyperbolic")


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

    base_point is the input row used as base in the last batch.
    """

    delta: float
    diameter: float
    delta_rel: float
    base_point: int
    batches: int
    samples_per_batch: int
    exact: bool

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
        d = geodesic_distance_matrix(ball, ball, curv)
    else:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    return DistanceMatrix(d)


# Rows per chunk of the row-bound pass, and per gathered block of the scan.
_BOUND_ROWS = 64
_SCAN_ROWS = 256


def _maxmin_delta(m: np.ndarray) -> float:
    """max(0, max_ij (M (x) M - M)[i,j]), (M (x) M)[i,j] = max_k min(M[i,k], M[k,j]).

    Exact bound-pruned scan of the symmetric M (Cohen, Coudert & Lancin, ACM
    JEA 2015).  With r the row maxima, the defect at (i, j) is at most
    min(r_i, r_j) - M[i,j].  Rows go in descending order of their largest
    bound until none beats the running delta; in a row only the columns whose
    bound beats it, and the k with M[i,k] - min_j M[i,j] above it, are scanned.
    A bound rounds the same subtraction as the defect it bounds and rounding
    is monotone, so the result is bit-identical to the dense scan.
    """
    n = m.shape[0]
    r = m.max(axis=1)
    bound = np.empty(n)
    for lo in range(0, n, _BOUND_ROWS):
        hi = min(lo + _BOUND_ROWS, n)
        bound[lo:hi] = (np.minimum(r[lo:hi, None], r) - m[lo:hi]).max(axis=1)
    # (i, i) has defect r_i - M[i,i] >= 0, so 0 is a lower bound of the max
    delta = 0.0
    unvisited = np.ones(n, dtype=bool)
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] <= delta:
            break
        row = m[i]
        # (j, i) was already bounded or evaluated from row j: the defect is
        # symmetric because M is
        cols = np.flatnonzero(unvisited & (np.minimum(r[i], r) - row > delta))
        unvisited[i] = False
        if cols.size == 0:
            continue
        ks = np.flatnonzero(row - row[cols].min() > delta)
        row_k = row[ks]
        for lo in range(0, cols.size, _SCAN_ROWS):
            js = cols[lo:lo + _SCAN_ROWS]
            # a row gather then a column gather (at most _SCAN_ROWS * n
            # scratch) is faster than one np.ix_ gather
            block = m[js][:, ks]
            np.minimum(block, row_k, out=block)
            delta = max(delta, float((block.max(axis=1) - row[js]).max()))
    return delta


def gromov_delta(dm: DistanceMatrix, base: int) -> float:
    """Delta of the four-point condition anchored at `base` (clamped at 0)."""
    if not (0 <= base < dm.n):
        raise ValueError(f"base index {base} out of range for n={dm.n}")
    d = dm.d
    m = d[:, base][:, None] + d[base, :][None, :]
    m -= d
    m *= 0.5
    return _maxmin_delta(m)


def four_point_delta(dm: DistanceMatrix) -> float:
    """Exhaustive four-point delta: the maximum of gromov_delta over all bases."""
    return max(gromov_delta(dm, b) for b in range(dm.n))


def _sampled(n: int, submatrix, batch_size: int, n_batches: int, seed: int) -> DeltaReport:
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
        base = int(np.argmax(sub.d.sum(axis=1)))  # the point with the maximal distance sum
        delta = gromov_delta(sub, base)
        diam = float(sub.d.max())
        deltas.append(delta)
        diams.append(diam)
        rels.append(2.0 * delta / diam if diam > 0 else 0.0)
    return DeltaReport(
        delta=float(np.mean(deltas)),
        diameter=float(np.mean(diams)),
        delta_rel=float(np.mean(rels)),
        base_point=int(pick[base]),
        batches=len(picks),
        samples_per_batch=sub.n,
        exact=exact,
    )


def sampled_delta_matrix(
    dm: DistanceMatrix,
    batch_size: int = 1500,
    n_batches: int = 3,
    seed: int = 0,
) -> DeltaReport:
    """Average gromov_delta over seeded uniform subsets of the matrix rows.

    If the matrix has no more rows than `batch_size`, a single exact pass over
    all points is reported instead.  delta_rel is computed against each
    batch's own diameter, then averaged, so it stays scale-free per batch.
    """
    return _sampled(dm.n, lambda pick: DistanceMatrix(dm.d[np.ix_(pick, pick)]),
                    batch_size, n_batches, seed)


def sampled_delta(
    points: np.ndarray,
    metric: str = "euclidean",
    batch_size: int = 1500,
    n_batches: int = 3,
    seed: int = 0,
    curv: Curvature | None = None,
    eps: float = BALL_EPS,
) -> DeltaReport:
    """Batched delta estimate straight from points under the chosen metric.

    Equals `sampled_delta_matrix(pairwise_distances(points, ...), ...)`
    bit-exactly, but computes only the distances of the sampled rows.
    """
    points = np.asarray(points, dtype=np.float64)
    return _sampled(len(points), lambda pick: pairwise_distances(
        points[pick], metric, curv=curv, eps=eps), batch_size, n_batches, seed)
