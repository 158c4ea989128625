"""Poincare-ball geometry: projection, Mobius addition, log map, geodesics.

All operations use the positive curvature magnitude c = |k| internally, with
the ball of radius 1/sqrt(c).  Everything is float64; points are kept strictly
inside the ball by `clip_to_ball`, which is bit-exactly idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BALL_EPS = 1e-5


class NumericalDomainError(ArithmeticError):
    """Raised when arctanh would be evaluated at an argument >= 1."""


@dataclass(frozen=True)
class Curvature:
    """Negative curvature k of the ball; c = |k|, radius = 1/sqrt(c)."""

    k: float

    def __post_init__(self):
        if not math.isfinite(self.k) or self.k >= 0:
            raise ValueError(f"curvature k must be finite and strictly negative, got {self.k}")

    @property
    def c(self) -> float:
        return -self.k

    @property
    def ball_radius(self) -> float:
        return 1.0 / math.sqrt(self.c)


@dataclass(frozen=True)
class BallPoint:
    """A point strictly inside the Poincare ball of the given curvature."""

    coords: np.ndarray
    curvature: Curvature

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"BallPoint coords must be a 1-D vector, got shape {coords.shape}")
        # One test rejects both: non-finite coords make c|x|^2 nan or inf.
        if not self.curvature.c * float(coords @ coords) < 1.0:
            if not np.isfinite(coords).all():
                raise ValueError("BallPoint coords must be finite")
            raise ValueError(
                f"point with norm {np.linalg.norm(coords)} lies outside the ball "
                f"of radius {self.curvature.ball_radius}"
            )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class TangentVector:
    """A vector in the tangent space at the ball's origin."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1 or not np.all(np.isfinite(coords)):
            raise ValueError("TangentVector coords must be a finite 1-D vector")
        object.__setattr__(self, "coords", coords)


def clip_to_ball(x: np.ndarray, curv: Curvature, eps: float = BALL_EPS) -> np.ndarray:
    """Radially clip vectors (last axis) to norm (1-eps)/sqrt(c).

    Vectors already strictly inside that radius are returned unchanged;
    clipped vectors are rescaled onto the margin radius.  The operation is
    bit-exactly idempotent: re-clipping never changes the output again.
    """
    if not (0.0 < eps < 0.1):
        raise ValueError(f"eps must lie in (0, 0.1), got {eps}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot project non-finite coordinates")
    rho = (1.0 - eps) * curv.ball_radius
    r = _row_norms(x, keepdims=True)
    if not np.any(r >= rho):
        return x.copy()
    out = x.copy()
    # Rescale rows at or outside the margin.  A row exactly at rho scales by
    # 1.0 (identity); rows that land an ulp above rho after rounding are
    # rescaled again so the result never exceeds rho.
    over = r >= rho
    while True:
        r = _row_norms(out, keepdims=True)
        bad = over & (r > rho)
        if not np.any(bad):
            break
        scale = np.where(bad, rho / np.where(r > 0.0, r, 1.0), 1.0)
        scale = np.where(bad & (scale == 1.0), np.nextafter(1.0, 0.0), scale)
        out = out * scale
    return out


def project_to_ball(x: np.ndarray, curv: Curvature, eps: float = BALL_EPS) -> BallPoint:
    """Map an arbitrary vector into the ball (identity if already inside)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("project_to_ball expects a single vector")
    return BallPoint(clip_to_ball(x, curv, eps), curv)


def _mobius_raw(z: np.ndarray, x: np.ndarray, c: float) -> np.ndarray:
    zx = float(z @ x)
    z2 = float(z @ z)
    x2 = float(x @ x)
    num = (1.0 + 2.0 * c * zx + c * x2) * z + (1.0 - c * z2) * x
    den = 1.0 + 2.0 * c * zx + c * c * z2 * x2
    return num / den


def mobius_add(z: BallPoint, x: BallPoint, eps: float = BALL_EPS) -> BallPoint:
    """Gyrovector addition z (+) x on the shared ball."""
    if z.curvature != x.curvature:
        raise ValueError(f"curvature mismatch: {z.curvature} vs {x.curvature}")
    c = z.curvature.c
    raw = _mobius_raw(z.coords, x.coords, c)
    # Floating-point error can push near-boundary results onto or past the
    # boundary; clip only in that case so interior results stay untouched.
    if not np.isfinite(raw).all() or c * float(raw @ raw) >= 1.0:
        raw = clip_to_ball(raw, z.curvature, eps)
    return BallPoint(raw, z.curvature)


def log_map_origin(x: BallPoint) -> TangentVector:
    """Logarithmic map at the origin: (1/sqrt(c)) arctanh(sqrt(c)|x|) x/|x|."""
    return TangentVector(log_maps_origin(x.coords, x.curvature))


def geodesic_distance(x: BallPoint, y: BallPoint) -> float:
    """Ball geodesic distance (2/sqrt(c)) arctanh(sqrt(c) |(-x)(+)y|)."""
    if x.curvature != y.curvature:
        raise ValueError(f"curvature mismatch: {x.curvature} vs {y.curvature}")
    return float(geodesic_distances(x.coords, y.coords, x.curvature))


def hyperbolic_norm(x: BallPoint) -> float:
    """Geodesic distance from the origin; the hierarchy-level scalar."""
    return float(hyperbolic_norms(x.coords, x.curvature))


def conformal_factor(z: BallPoint) -> float:
    """Metric scaling lambda(z) = 2 / (1 - c |z|^2); equals 2 at the origin."""
    c = z.curvature.c
    return 2.0 / (1.0 - c * float(z.coords @ z.coords))


# --- row kernels -----------------------------------------------------------
#
# Each quantity is computed once, over the last axis of (d,) or (n, d) rows;
# the scalar BallPoint functions above are views of these kernels.  The ball
# distance uses the closed form
#     |(-x)(+)y|^2 = |x - y|^2 / (1 - 2c<x,y> + c^2 |x|^2 |y|^2)
# built from elementwise operations only, so D(X, Y) == D(Y, X).T bit-exactly.


def hyperbolic_norms(xs: np.ndarray, curv: Curvature) -> np.ndarray:
    """Row-wise hyperbolic norms of ball coordinates, shape (n,)."""
    xs = np.asarray(xs, dtype=np.float64)
    sc = math.sqrt(curv.c)
    args = sc * _row_norms(xs)
    if np.count_nonzero(args >= 1.0):
        raise NumericalDomainError("a row lies on or outside the ball boundary")
    return (2.0 / sc) * np.arctanh(args)


def log_maps_origin(xs: np.ndarray, curv: Curvature) -> np.ndarray:
    """Row-wise origin log map of ball coordinates; the origin maps to itself."""
    xs = np.asarray(xs, dtype=np.float64)
    args = math.sqrt(curv.c) * _row_norms(xs, keepdims=True)
    return xs * np.where(args > 0.0, np.arctanh(args) / np.where(args > 0.0, args, 1.0), 1.0)


def geodesic_distances(xs: np.ndarray, ys: np.ndarray, curv: Curvature) -> np.ndarray:
    """Geodesic distances between paired ball coordinate rows.

    Leading axes broadcast, so `geodesic_distances(xs[:, None], ys[None], curv)`
    is the pairwise matrix.  The distance of a row to itself is exactly zero.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    c = curv.c
    sc = math.sqrt(c)
    dot = (xs * ys).sum(axis=-1)
    sq = ((xs - ys) ** 2).sum(axis=-1)
    den = (1.0 - (2.0 * c) * dot) + (c * c) * ((xs * xs).sum(axis=-1) * (ys * ys).sum(axis=-1))
    arg = sc * np.sqrt(sq / den)
    # Rows a few ulps from the boundary can round den to zero or below, which
    # makes arg nan: that is outside the domain as much as arg >= 1.
    if np.count_nonzero(~(arg < 1.0)):
        raise NumericalDomainError("arctanh argument >= 1 or nan; rows must lie inside the ball")
    return (2.0 / sc) * np.arctanh(arg)


# Rows per chunk of the dense distance-matrix builder.
CHUNK_ROWS = 256


def _pairwise(dist, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Dense matrix of the row distance dist(x, y), CHUNK_ROWS rows of xs at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
    for lo in range(0, xs.shape[0], CHUNK_ROWS):
        out[lo:lo + CHUNK_ROWS] = dist(xs[lo:lo + CHUNK_ROWS, None, :], ys[None, :, :])
    return out


def geodesic_distance_matrix(xs: np.ndarray, ys: np.ndarray, curv: Curvature) -> np.ndarray:
    """Dense pairwise geodesic distances between ball coordinate rows.

    Entries are computed independently from symmetric elementwise
    expressions, so transposing the arguments transposes the result
    bit-exactly and the diagonal of D(X, X) is exactly zero.
    """
    return _pairwise(lambda x, y: geodesic_distances(x, y, curv), xs, ys)


# --- analytic derivatives --------------------------------------------------
#
# Each takes (d,) or (n, d) rows and returns the per-row result.


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1, keepdims=True)


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms over the last axis, bit for bit numpy.linalg.norm's."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=keepdims))


def hyperbolic_norm_grad(x: np.ndarray, curv: Curvature) -> np.ndarray:
    """Gradient of hyperbolic_norm at ball coordinates x (zero at the origin)."""
    x = np.asarray(x, dtype=np.float64)
    c = curv.c
    r = _row_norms(x, keepdims=True)
    return (2.0 / ((1.0 - c * r * r) * np.where(r > 0.0, r, 1.0))) * x


def log_map_origin_vjp(upstream: np.ndarray, x: np.ndarray, curv: Curvature) -> np.ndarray:
    """Pull a tangent-space gradient back through the origin log map at x.

    The Jacobian is g(r) I + (g'(r)/r) x x^T with
    g(r) = arctanh(sqrt(c) r) / (sqrt(c) r); at x = 0 it is the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    c = curv.c
    sc = math.sqrt(c)
    r = _row_norms(x, keepdims=True)
    safe = np.where(r > 0.0, r, 1.0)
    at = np.arctanh(sc * r)
    g = np.where(r > 0.0, at / (sc * safe), 1.0)
    gp = (r / (1.0 - c * r * r) - at / sc) / (safe * safe)
    return g * upstream + (gp / safe) * _row_dot(x, upstream) * x


def clip_vjp(upstream: np.ndarray, x: np.ndarray, curv: Curvature, eps: float = BALL_EPS) -> np.ndarray:
    """Pull a gradient back through clip_to_ball at the pre-projection point x.

    Identity strictly inside the margin radius; the exact Jacobian of the
    radial rescaling (rho/r)(I - xhat xhat^T) on or outside it.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    rho = (1.0 - eps) * curv.ball_radius
    r = _row_norms(x, keepdims=True)
    outside = r >= rho
    r = np.where(outside, r, 1.0)
    xhat = x / r
    return np.where(outside, (rho / r) * (upstream - _row_dot(xhat, upstream) * xhat), upstream)


def geodesic_distance_grad(
    x: np.ndarray, y: np.ndarray, curv: Curvature
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the geodesic distance wrt both ball points.

    Uses the closed form d = (2/sqrt(c)) arctanh(sqrt(c) sqrt(q/D)) with
    q = |x-y|^2 and D = 1 - 2c<x,y> + c^2 |x|^2 |y|^2.  Returns the zero
    subgradient at x == y (the distance has a norm-like kink there).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = curv.c
    diff = x - y
    q = _row_dot(diff, diff)
    x2 = _row_dot(x, x)
    y2 = _row_dot(y, y)
    den = 1.0 - 2.0 * c * _row_dot(x, y) + c * c * x2 * y2
    s = np.sqrt(q / den)
    pref = 2.0 / np.where(q > 0.0, (1.0 - c * s * s) * s * den * den, np.inf)
    gx = pref * (diff * den - q * (c * c * y2 * x - c * y))
    gy = pref * (-diff * den - q * (c * c * x2 * y - c * x))
    return gx, gy
