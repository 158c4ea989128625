import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcloud import (
    BallPoint,
    Curvature,
    NumericalDomainError,
    clip_to_ball,
    conformal_factor,
    geodesic_distance,
    geodesic_distance_matrix,
    hyperbolic_norm,
    hyperbolic_norms,
    log_map_origin,
    mobius_add,
    project_to_ball,
)
from hypcloud.poincare import (
    clip_vjp,
    geodesic_distance_grad,
    geodesic_distances,
    hyperbolic_norm_grad,
    _row_norms,
    log_map_origin_vjp,
)

from conftest import random_ball_points


def ball(coords, curv):
    return BallPoint(np.asarray(coords, dtype=float), curv)


# --- types -------------------------------------------------------------------

def test_curvature_validation():
    c = Curvature(-0.14)
    assert c.c == pytest.approx(0.14)
    assert c.ball_radius == pytest.approx(1.0 / math.sqrt(0.14))
    for bad in (0.0, 1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Curvature(bad)


def test_ballpoint_rejects_outside(unit_curv):
    with pytest.raises(ValueError):
        ball([1.0, 0.0], unit_curv)
    with pytest.raises(ValueError):
        ball([np.nan, 0.0], unit_curv)
    # just inside is fine
    ball([0.999, 0.0], unit_curv)


# --- projection --------------------------------------------------------------

def test_project_examples(unit_curv):
    assert np.array_equal(project_to_ball(np.zeros(2), unit_curv, 1e-5).coords, np.zeros(2))
    clipped = project_to_ball(np.array([2.0, 0.0, 0.0]), unit_curv, 1e-5)
    assert np.array_equal(clipped.coords, np.array([0.99999, 0.0, 0.0]))
    c014 = Curvature(-0.14)
    got = project_to_ball(np.array([3.0, 0.0, 0.0]), c014, 1e-5).coords
    # oracle: (1 - eps) / sqrt(0.14) along x
    assert got[0] == pytest.approx((1 - 1e-5) / math.sqrt(0.14), rel=1e-12)
    assert got[1] == got[2] == 0.0


def test_project_inside_unchanged(unit_curv):
    x = np.array([0.3, -0.2, 0.1])
    assert np.array_equal(project_to_ball(x, unit_curv).coords, x)


def test_project_rejects_bad_inputs(unit_curv):
    with pytest.raises(ValueError):
        project_to_ball(np.array([np.inf, 0.0]), unit_curv)
    with pytest.raises(ValueError):
        clip_to_ball(np.array([0.1, 0.1]), unit_curv, eps=0.5)


def test_project_idempotent_bit_exact(unit_curv):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5000, 4)) * rng.uniform(0.5, 3.0, size=(5000, 1))
    once = clip_to_ball(x, unit_curv)
    twice = clip_to_ball(once, unit_curv)
    assert np.array_equal(once, twice)
    assert np.all(np.linalg.norm(once, axis=1) <= (1 - 1e-5) * unit_curv.ball_radius)


# --- mobius addition ---------------------------------------------------------

def test_mobius_example(unit_curv):
    got = mobius_add(ball([0.5, 0.0], unit_curv), ball([0.25, 0.0], unit_curv)).coords
    # direct Eq. evaluation: numerator 0.84375, denominator 1.265625
    assert got[0] == pytest.approx(0.84375 / 1.265625, rel=1e-15)
    assert got[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert got[1] == 0.0


def test_mobius_identity_and_inverse(unit_curv):
    rng = np.random.default_rng(3)
    pts = random_ball_points(rng, 10_000, 3, unit_curv)
    zero = ball(np.zeros(3), unit_curv)
    for row in pts[:200]:
        x = ball(row, unit_curv)
        assert np.linalg.norm(mobius_add(zero, x).coords - row) < 1e-12
        assert np.linalg.norm(mobius_add(ball(-row, unit_curv), x).coords) < 1e-10


def test_mobius_curvature_mismatch(unit_curv, curv014):
    with pytest.raises(ValueError):
        mobius_add(ball([0.1, 0.0], unit_curv), ball([0.1, 0.0], curv014))


# --- log map -----------------------------------------------------------------

def test_log_map_examples(unit_curv):
    assert np.array_equal(log_map_origin(ball([0.0, 0.0], unit_curv)).coords, np.zeros(2))
    got = log_map_origin(ball([0.5, 0.0], unit_curv)).coords
    assert got[0] == pytest.approx(math.atanh(0.5), rel=1e-14)
    # small curvature: arctanh(t) ~ t, so the map is near-identity
    tiny = Curvature(-1e-6)
    got = log_map_origin(ball([0.3, 0.0], tiny)).coords
    assert got[0] == pytest.approx(0.3, rel=1e-6)


# --- geodesic distance -------------------------------------------------------

def test_geodesic_examples(unit_curv):
    x = ball([0.5, 0.0], unit_curv)
    assert geodesic_distance(x, x) == 0.0
    o = ball([0.0, 0.0], unit_curv)
    assert geodesic_distance(o, x) == pytest.approx(2 * math.atanh(0.5), rel=1e-14)
    tiny = Curvature(-1e-6)
    d = geodesic_distance(ball([0.1, 0.0, 0.0], tiny), ball([0.0, 0.0, 0.0], tiny))
    assert d == pytest.approx(0.2, rel=1e-3)


def test_metric_axioms_sampled(unit_curv, curv014):
    for curv in (curv014, unit_curv):
        rng = np.random.default_rng(7)
        pts = random_ball_points(rng, 3 * 1000, 3, curv)
        for i in range(0, len(pts), 3):
            x, y, z = (ball(pts[i + j], curv) for j in range(3))
            dxy = geodesic_distance(x, y)
            assert dxy >= 0.0
            assert abs(dxy - geodesic_distance(y, x)) < 1e-10
            assert geodesic_distance(x, z) <= dxy + geodesic_distance(y, z) + 1e-9


def test_norm_consistency(unit_curv):
    rng = np.random.default_rng(9)
    for row in random_ball_points(rng, 300, 4, unit_curv):
        p = ball(row, unit_curv)
        assert hyperbolic_norm(p) == pytest.approx(
            2.0 * np.linalg.norm(log_map_origin(p).coords), abs=1e-12)


def test_hyperbolic_norm_monotone(unit_curv):
    assert hyperbolic_norm(ball([0.0, 0.0], unit_curv)) == 0.0
    assert (hyperbolic_norm(ball([0.6, 0.0], unit_curv))
            > hyperbolic_norm(ball([0.5, 0.0], unit_curv)))
    assert hyperbolic_norm(ball([0.5, 0.0], unit_curv)) == pytest.approx(
        2 * math.atanh(0.5), rel=1e-14)


def test_conformal_factor(unit_curv):
    assert conformal_factor(ball([0.0, 0.0], unit_curv)) == 2.0
    assert conformal_factor(ball([0.5, 0.0], unit_curv)) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert conformal_factor(ball([0.5, 0.0], Curvature(-1e-9))) == pytest.approx(2.0, rel=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45),
       st.floats(-0.45, 0.45), st.floats(-0.45, 0.45))
def test_euclidean_limit_property(x0, x1, y0, y1):
    # Eq. d -> 2|x-y| as curvature magnitude -> 0
    tiny = Curvature(-1e-6)
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    euclid = 2 * np.linalg.norm(x - y)
    if euclid < 1e-6:
        return
    d = geodesic_distance(ball(x, tiny), ball(y, tiny))
    assert abs(d - euclid) / euclid < 1e-3


# --- batched helpers ---------------------------------------------------------

def test_distance_matrix_matches_scalar(curv014):
    rng = np.random.default_rng(21)
    xs = random_ball_points(rng, 12, 3, curv014)
    ys = random_ball_points(rng, 9, 3, curv014)
    dm = geodesic_distance_matrix(xs, ys, curv014)
    for i in range(len(xs)):
        for j in range(len(ys)):
            assert dm[i, j] == geodesic_distance(ball(xs[i], curv014), ball(ys[j], curv014))
    assert np.array_equal(dm, geodesic_distance_matrix(ys, xs, curv014).T)
    # 600 rows span three row chunks of the builder
    big = random_ball_points(rng, 600, 3, curv014)
    full = geodesic_distance_matrix(big, big, curv014)
    for i in (0, 255, 256, 511, 512, 599):
        assert np.array_equal(full[i], geodesic_distances(big[i], big, curv014))
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(full) == 0.0)


# (x, y, distance at curvature -0.14, relative bound).  The distances were
# computed once from these exact float64 inputs with 60-digit mpmath
# arithmetic.  The bounds follow the conditioning of the closed form: points
# within 0.99 of the radius, a pair with both points at 0.99, and pairs on the
# eps = 1e-5 clip margin.
REFERENCE_DISTANCES = [
    ([-0.08786326700395938, -0.2507313217455029, 0.029024507501686853],
     [0.3964298042113246, -1.126965686774398, 0.5987537364228853],
     2.5731091542990940351, 1e-13),
    ([-1.1620353152113287, -0.7560068774567275, -0.8059504320170118],
     [-0.19568928239800176, 0.4232521314204139, 2.3597198189015827],
     10.890389098551164269, 1e-13),
    ([0.6218601216368822, 0.35043656015593827, 0.3651593477935055],
     [-2.2359276403099804, -0.5428714135664993, -1.0734741669265833],
     11.416195859110933853, 1e-13),
    ([-1.5981121747276055, -0.496236131811298, 1.9095066771029983],
     [-1.194661500764211, -1.3193278814915559, 1.810686723632604],
     10.56292531939573635, 1e-13),
    ([0.38901637501320213, 2.35653109719178, 1.1384822061209292],
     [-1.289831031377437, 0.3125268980112869, -0.15613178481508913],
     15.477566707736907313, 1e-13),
    ([0.23484794675723616, -1.796887616572249, 1.9278889026672401],
     [0.4973326080289035, -1.7609722650742912, -1.5612018589357926],
     20.055501535113162808, 1e-13),
    ([2.3802682067011447, -0.6103021195349858, 0.9811059437049108],
     [2.0867533612237614, -0.3119609522194368, -1.596513407217728],
     24.519117877327836315, 1e-12),
    ([0.9355746080563158, -2.0158968704608267, -1.4358183193359801],
     [-2.5131977028369086, -0.8166734282385216, -0.13265030636492892],
     26.631039190970057632, 1e-12),
    ([-0.6821903170203859, 0.3368187521037126, 2.562007764629821],
     [0.3489603344230569, -0.17794243664506937, -2.6437241650120638],
     65.230769297358859706, 5e-7),
    ([0.9667999169839032, -1.9200513068811906, 1.587896465734564],
     [-1.5564048322084525, -1.4724763031224604, 1.5975393020046678],
     61.314544724255381976, 5e-7),
    ([-0.02542752868494887, -2.670428121079814, -0.10431384069087545],
     [-0.0449256000617389, -2.6693958740977832, -0.12256281751574107],
     36.923461440990383998, 5e-7),
    ([-1.915281366470111, 0.7419148982665434, 1.7099631158042852],
     [-1.9151418735908579, 0.7421345780799885, 1.7100240227743895],
     12.360476649160747113, 5e-7),
    ([-1.1103535116344787, 2.217852462081344, -0.9954696489945202],
     [-1.1103549635153083, 2.217852734862828, -0.9954674218109613],
     0.26714867350724192381, 5e-7),
    ([2.4696257806717608, 0.10618853129606992, 1.0160643609984323],
     [-1.0133266379477313, -0.8647386609437342, 0.1054061611532763],
     35.170917054650019214, 5e-7),
]


def test_distance_matches_high_precision_reference(curv014):
    xs = np.array([x for x, _, _, _ in REFERENCE_DISTANCES])
    ys = np.array([y for _, y, _, _ in REFERENCE_DISTANCES])
    want = np.array([d for _, _, d, _ in REFERENCE_DISTANCES])
    bound = np.array([b for _, _, _, b in REFERENCE_DISTANCES])
    # the margin cases lie exactly on the clip radius
    assert np.array_equal(clip_to_ball(xs[bound == 5e-7], curv014), xs[bound == 5e-7])
    got = np.diag(geodesic_distance_matrix(xs, ys, curv014))
    assert np.all(np.abs(got - want) <= bound * want)
    for x, y, d in zip(xs, ys, got):
        assert geodesic_distance(ball(x, curv014), ball(y, curv014)) == d


def mp_relative_error(d, x, y, c):
    """|d - exact| / exact for the ball distance of float64 rows, in 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        x = [mpmath.mpf(float(v)) for v in x]
        y = [mpmath.mpf(float(v)) for v in y]
        c = mpmath.mpf(c)
        q = sum((a - b) ** 2 for a, b in zip(x, y))
        ax = 1 - c * sum(a * a for a in x)
        ay = 1 - c * sum(b * b for b in y)
        exact = mpmath.acosh(1 + 2 * c * q / (ax * ay)) / mpmath.sqrt(c)
        return float(abs(mpmath.mpf(float(d)) - exact) / exact)


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_distance_error_within_pruning_tolerance(eps):
    # The pruned HyperCD search widens its bound by tau, derived from a
    # forward-error bound of this kernel; near-coincident pairs on the clip
    # margin, where 1 - 2c<x,y> + c^2|x|^2|y|^2 cancels, must stay within tau/4.
    from hypcloud.chamfer import distance_tolerance

    rng = np.random.default_rng(47)
    for c in (0.14, 1.0, 2.5):
        curv = Curvature(-c)
        for apart in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            base = rng.normal(size=(4, 3))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            step = rng.normal(size=(4, 3))
            step *= apart / np.linalg.norm(step, axis=1, keepdims=True)
            xs = clip_to_ball(2.0 * curv.ball_radius * base, curv, eps)
            ys = clip_to_ball(2.0 * curv.ball_radius * (base + step), curv, eps)
            got = geodesic_distances(xs, ys, curv)
            a = 1.0 - c * (xs * xs).sum(axis=1)
            b = 1.0 - c * (ys * ys).sum(axis=1)
            for x, y, d, a_min in zip(xs, ys, got, a * b):
                rel = mp_relative_error(d, x, y, c)
                assert rel <= distance_tolerance(float(a_min), 3) / 4, (c, apart, rel)


def test_nan_argument_raises(unit_curv):
    # 1e-9 from the boundary, 1 - 2c<x,x> + c^2|x|^4 rounds to 0, so the
    # argument is 0/0: outside the domain like an argument >= 1
    x = clip_to_ball(np.array([[10.0, 0.0, 0.0]]), unit_curv, 1e-9)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalDomainError):
        geodesic_distances(x, x, unit_curv)


def test_hyperbolic_norms_batch(unit_curv):
    rng = np.random.default_rng(23)
    xs = random_ball_points(rng, 50, 3, unit_curv)
    batch = hyperbolic_norms(xs, unit_curv)
    for i, row in enumerate(xs):
        assert batch[i] == pytest.approx(hyperbolic_norm(ball(row, unit_curv)), rel=1e-14)
    with pytest.raises(NumericalDomainError):
        hyperbolic_norms(np.array([[1.5, 0.0, 0.0]]), unit_curv)


# --- analytic derivatives ----------------------------------------------------

def central_diff(fn, point, h=1e-6):
    grad = np.empty_like(point)
    for j in range(point.size):
        e = np.zeros_like(point)
        e[j] = h
        grad[j] = (fn(point + e) - fn(point - e)) / (2 * h)
    return grad


@pytest.mark.parametrize("shape", [(5,), (7, 3), (100, 16), (3, 4, 8), (1000, 2), (50, 9)])
def test_row_norms_equal_numpy_norm_bits(shape):
    # the clip, the norms and the trainer's bits rest on this equality
    x = np.random.default_rng(11).normal(scale=3.0, size=shape)
    for keepdims in (False, True):
        assert np.array_equal(_row_norms(x, keepdims=keepdims),
                              np.linalg.norm(x, axis=-1, keepdims=keepdims))


def test_hyperbolic_norm_grad_fd(curv014):
    rng = np.random.default_rng(31)
    rows = random_ball_points(rng, 20, 3, curv014, max_frac=0.8)
    stacked = hyperbolic_norm_grad(rows, curv014)
    for row, got_row in zip(rows, stacked):
        want = central_diff(lambda v: hyperbolic_norm(ball(v, curv014)), row)
        for got in (hyperbolic_norm_grad(row, curv014), got_row):
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


def test_log_map_origin_vjp_fd(curv014):
    rng = np.random.default_rng(34)
    rows = random_ball_points(rng, 12, 3, curv014, max_frac=0.8)
    rows[0] = 0.0
    upstream = rng.normal(size=rows.shape)
    stacked = log_map_origin_vjp(upstream, rows, curv014)
    for row, up, got_row in zip(rows, upstream, stacked):
        want = central_diff(lambda v: float(up @ log_map_origin(ball(v, curv014)).coords), row)
        for got in (log_map_origin_vjp(up, row, curv014), got_row):
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


def test_geodesic_grad_fd(curv014):
    rng = np.random.default_rng(32)
    xs = random_ball_points(rng, 10, 3, curv014, max_frac=0.7)
    ys = random_ball_points(rng, 10, 3, curv014, max_frac=0.7)
    gxs, gys = geodesic_distance_grad(xs, ys, curv014)
    for x, y, gx_row, gy_row in zip(xs, ys, gxs, gys):
        fx = central_diff(lambda v: geodesic_distance(ball(v, curv014), ball(y, curv014)), x)
        fy = central_diff(lambda v: geodesic_distance(ball(x, curv014), ball(v, curv014)), y)
        for gx, gy in (geodesic_distance_grad(x, y, curv014), (gx_row, gy_row)):
            assert np.allclose(gx, fx, rtol=1e-6, atol=1e-8)
            assert np.allclose(gy, fy, rtol=1e-6, atol=1e-8)


def test_clip_vjp_outside_matches_fd(unit_curv):
    # the clipped branch is smooth strictly outside the margin radius
    rng = np.random.default_rng(33)
    theta = rng.normal(size=3)
    theta *= 2.0 / np.linalg.norm(theta)
    upstream = rng.normal(size=3)

    def fn(v, up=upstream):
        return float(up @ clip_to_ball(v, unit_curv))

    got = clip_vjp(upstream, theta, unit_curv)
    want = central_diff(fn, theta)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-9)
    # a row stack mixing rows outside the margin with rows strictly inside it
    thetas = np.vstack([theta, rng.normal(size=(5, 3))])
    thetas[1:] *= np.array([[0.5], [3.0], [0.2], [1.5], [0.9]]) / np.linalg.norm(
        thetas[1:], axis=1, keepdims=True)
    upstreams = np.vstack([upstream, rng.normal(size=(5, 3))])
    stacked = clip_vjp(upstreams, thetas, unit_curv)
    for row, up, got in zip(thetas, upstreams, stacked):
        assert np.allclose(got, central_diff(lambda v: fn(v, up), row), rtol=1e-6, atol=1e-9)
