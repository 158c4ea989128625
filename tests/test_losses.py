import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcloud import (
    BallPoint,
    LossBatch,
    MarginHead,
    PairExample,
    TripletExample,
    geodesic_distance,
    grad_check,
    gradient_check_cases,
    hyperbolic_norm,
    log_map_origin,
    loss_gradients,
    project_to_ball,
    total_loss,
)
from hypcloud.losses import row_loss_gradients, sigmoid

from conftest import random_ball_points


def ball(coords, curv):
    return BallPoint(np.asarray(coords, dtype=float), curv)


# --- scalar oracles ----------------------------------------------------------
#
# L_Z, L_T and the margin written once more, per example on the scalar
# BallPoint API, as the independent reference of `row_loss_gradients`.

def adaptive_margin(p_feat, w_feat, head):
    """gamma0 * sigmoid(w . concat(p, w) + b) on the raw (unclipped) rows."""
    return float(head.gamma0 * sigmoid(float(head.weights @ np.concatenate([p_feat, w_feat]))
                                       + head.bias))


def reg_loss(part, whole, gamma, n_points, reg_space="hyperbolic"):
    """Hinge pushing the whole's norm above the part's by gamma/N."""
    if reg_space == "hyperbolic":
        h_part, h_whole = hyperbolic_norm(part), hyperbolic_norm(whole)
    else:
        h_part, h_whole = float(np.linalg.norm(part.coords)), float(np.linalg.norm(whole.coords))
    return max(0.0, -h_whole + h_part + gamma / n_points)


def triplet_loss(w_pos, p_pos, p_neg, margin_eps, metric="tangent"):
    """Hinge separating the anchor's own part from a foreign part by margin_eps."""
    if metric == "tangent":
        tw = log_map_origin(w_pos).coords
        d_pos = float(np.linalg.norm(tw - log_map_origin(p_pos).coords))
        d_neg = float(np.linalg.norm(tw - log_map_origin(p_neg).coords))
    else:
        d_pos, d_neg = geodesic_distance(w_pos, p_pos), geodesic_distance(w_pos, p_neg)
    return max(0.0, d_pos - d_neg + margin_eps)


def one_loss(state, curv, pair=None, triplet=None, **kw):
    """The kernel's report on a batch of one pair or one triplet."""
    batch = LossBatch(pairs=[pair] if pair else [], triplets=[triplet] if triplet else [])
    return loss_gradients(batch, state, curv, **kw).report


def line_state(gamma0=1.0, **radii):
    """Samples on the first axis at the given radii, and a zero margin head:
    the margin is exactly gamma0 / 2."""
    return SimpleNamespace(table={sid: np.array([r, 0.0]) for sid, r in radii.items()},
                           head=MarginHead.zeros(4, gamma0))


def with_hnorm(h):
    """The radius whose hyperbolic norm is h, for c = 1."""
    return math.tanh(h / 2)


# --- adaptive margin ---------------------------------------------------------

def test_margin_zero_head_is_half_gamma0(unit_curv):
    # part and whole at one point: the norms cancel and L_Z is the margin
    state = line_state(gamma0=1000.0, p=0.3, w=0.3)
    assert one_loss(state, unit_curv, PairExample("p", "w", 1)).l_z == 500.0


def test_margin_saturates_monotonically():
    lo, hi, huge = 10.0 * sigmoid([0.0, 5.0, 1e6])
    assert lo < hi < huge < 10.0


def test_margin_dimension_mismatch(unit_curv):
    state = line_state(p=0.1, w=0.2)
    state.head = MarginHead.zeros(2, 1.0)
    with pytest.raises(ValueError, match="head width"):
        one_loss(state, unit_curv, PairExample("p", "w", 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       st.floats(-3, 3))
def test_margin_strictly_inside_range(feats, weights, bias):
    margin = 1000.0 * sigmoid(np.dot(weights, feats) + bias)
    assert 0.0 < margin < 1000.0


def test_margin_lipschitz_bound():
    rng = np.random.default_rng(0)
    weights, feats, delta = rng.normal(size=6), rng.normal(size=6), 1e-3 * rng.normal(size=6)
    a = 100.0 * sigmoid(weights @ feats + 0.1)
    b = 100.0 * sigmoid(weights @ (feats + delta) + 0.1)
    bound = 100.0 * 0.25 * np.linalg.norm(weights) * np.linalg.norm(delta)
    assert abs(a - b) <= bound + 1e-12


# --- hinge losses ------------------------------------------------------------

def test_reg_loss_examples(unit_curv):
    # inactive hinge: the whole far enough outside the part
    state = line_state(gamma0=1.0, p=with_hnorm(1.0), w=with_hnorm(2.0))
    assert one_loss(state, unit_curv, PairExample("p", "w", 1)).l_z == 0.0
    state = line_state(gamma0=0.6, p=with_hnorm(1.2), w=with_hnorm(1.0))
    assert one_loss(state, unit_curv, PairExample("p", "w", 1)).l_z == pytest.approx(0.5, abs=1e-12)
    state = line_state(gamma0=0.6, p=with_hnorm(0.7), w=with_hnorm(0.7))
    assert one_loss(state, unit_curv, PairExample("p", "w", 7)).l_z == pytest.approx(0.3 / 7,
                                                                                    abs=1e-15)


def test_reg_loss_validation():
    with pytest.raises(ValueError, match="gamma0"):
        MarginHead.zeros(4, 0.0)
    with pytest.raises(ValueError, match="gamma0"):
        MarginHead.zeros(4, -1.0)


@pytest.mark.parametrize("n_points", [0, -3, 0.5, float("nan")])
def test_pair_rejects_part_size_below_one(unit_curv, n_points):
    # N = 0 made L_Z inf with nan gradients; N < 0 a negative margin that
    # switched the hinge off
    state = line_state(p=0.1, w=0.2)
    with pytest.raises(ValueError, match="n_points"):
        one_loss(state, unit_curv, PairExample("p", "w", n_points))


def test_triplet_loss_examples(unit_curv):
    # distances are tangent-space euclidean; place points on a line
    state = line_state(w=0.0, p=0.2, n=0.6)
    want = triplet_loss(*(ball(state.table[sid], unit_curv) for sid in "wpn"), 4.0)
    got = one_loss(state, unit_curv, triplet=TripletExample("w", "p", "n"), margin_eps=4.0).l_t
    assert got == pytest.approx(want, abs=1e-12)
    # identical positive and negative: the distances cancel
    assert one_loss(state, unit_curv, triplet=TripletExample("w", "p", "p"),
                    margin_eps=4.0).l_t == 4.0
    # hinge inactive when the negative is far beyond the margin
    state = line_state(w=0.01, p=0.02, n=0.999)
    assert one_loss(state, unit_curv, triplet=TripletExample("w", "p", "n"),
                    margin_eps=0.5).l_t == 0.0


def test_triplet_loss_geodesic_switch(unit_curv):
    state = SimpleNamespace(table={"w": np.array([0.0, 0.0]), "p": np.array([0.3, 0.0]),
                                   "n": np.array([0.0, 0.5])}, head=MarginHead.zeros(4, 1.0))
    trip = TripletExample("w", "p", "n")
    tangent = one_loss(state, unit_curv, triplet=trip, margin_eps=1.0, triplet_metric="tangent")
    geo = one_loss(state, unit_curv, triplet=trip, margin_eps=1.0, triplet_metric="geodesic")
    assert tangent.l_t > 0 and geo.l_t > 0 and tangent.l_t != geo.l_t
    with pytest.raises(ValueError, match="triplet_metric"):
        one_loss(state, unit_curv, triplet=trip, margin_eps=1.0, triplet_metric="euclid")
    with pytest.raises(ValueError, match="margin_eps"):
        one_loss(state, unit_curv, triplet=trip, margin_eps=0.0)


def test_total_loss_examples():
    assert total_loss(0.0, 0.0).total == 0.0
    assert total_loss(0.5, 2.0).total == 2.5
    report = total_loss(0.5, 1.25)
    assert report.total == report.l_z + report.l_t == 1.75
    with pytest.raises(ValueError):
        total_loss(-0.1, 0.0)


# --- batched gradients -------------------------------------------------------

def make_state(rng, ids, dim, curv, gamma0=50.0):
    pts = random_ball_points(rng, len(ids), dim, curv, max_frac=0.6)
    table = {sid: pts[i] for i, sid in enumerate(ids)}
    head = MarginHead(rng.normal(scale=0.2, size=2 * dim), float(rng.normal(scale=0.2)), gamma0)
    return SimpleNamespace(table=table, head=head)


def test_loss_gradients_inactive_hinges_zero(unit_curv):
    rng = np.random.default_rng(1)
    state = make_state(rng, ["p", "w", "n"], 3, unit_curv, gamma0=1e-6)
    # make the whole's norm clearly dominate and the negative very far
    state.table["w"] = np.array([0.9, 0.0, 0.0])
    state.table["p"] = np.array([0.01, 0.0, 0.0])
    state.table["n"] = np.array([-0.95, 0.0, 0.0])
    batch = LossBatch(pairs=(PairExample("p", "w", 1000),),
                      triplets=(TripletExample("w", "p", "n"),))
    bundle = loss_gradients(batch, state, unit_curv, margin_eps=1e-6)
    assert bundle.report.total == 0.0
    assert not bundle.embeddings
    assert np.all(bundle.head_weights == 0.0) and bundle.head_bias == 0.0


def test_loss_gradients_sign_structure(unit_curv):
    rng = np.random.default_rng(2)
    state = make_state(rng, ["p", "w"], 3, unit_curv, gamma0=100.0)
    state.head.weights[:] = 0.0   # margin constant: isolates the norm terms
    state.head.bias = 0.0
    state.table["p"] = np.array([0.5, 0.0, 0.0])
    state.table["w"] = np.array([0.4, 0.0, 0.0])
    bundle = loss_gradients(LossBatch(pairs=(PairExample("p", "w", 10),)), state, unit_curv)
    assert bundle.report.l_z > 0
    # part is pushed inward (positive radial gradient), whole outward
    assert bundle.embeddings["p"][0] > 0
    assert bundle.embeddings["w"][0] < 0


@pytest.mark.parametrize("reg_space", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("triplet_metric", ["tangent", "geodesic"])
def test_loss_gradients_match_scalar_ops(unit_curv, reg_space, triplet_metric):
    # the kernel's batch means equal the scalar oracles, example by example
    rng = np.random.default_rng(3)
    state = make_state(rng, list("abcde"), 4, unit_curv, gamma0=3.0)
    state.table["e"] = np.array([0.0, 2.5, 0.0, 0.0])   # beyond the clip margin
    pairs = [PairExample(p, w, n) for p, w, n in
             [("a", "b", 5), ("c", "d", 1), ("e", "a", 2), ("b", "e", 1), ("d", "c", 3)]]
    trips = [TripletExample(w, p, n) for w, p, n in
             [("a", "b", "c"), ("e", "d", "a"), ("b", "e", "c"), ("d", "a", "e")]]
    kw = dict(margin_eps=2.0, reg_space=reg_space, triplet_metric=triplet_metric)
    report = loss_gradients(LossBatch(pairs, trips), state, unit_curv, **kw).report

    theta = state.table
    emb = {sid: project_to_ball(x, unit_curv) for sid, x in theta.items()}
    want_lz = [reg_loss(emb[e.part_id], emb[e.whole_id],
                        adaptive_margin(theta[e.part_id], theta[e.whole_id], state.head),
                        e.n_points, reg_space) for e in pairs]
    want_lt = [triplet_loss(emb[e.whole_id], emb[e.pos_id], emb[e.neg_id], 2.0, triplet_metric)
               for e in trips]
    assert 0.0 in want_lz and 0.0 in want_lt and report.l_z > 0 and report.l_t > 0
    assert report.l_z == pytest.approx(math.fsum(want_lz) / len(pairs), rel=1e-14)
    assert report.l_t == pytest.approx(math.fsum(want_lt) / len(trips), rel=1e-14)


@pytest.mark.parametrize("reg_space", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("triplet_metric", ["tangent", "geodesic"])
def test_row_loss_gradients_match_finite_differences(unit_curv, reg_space, triplet_metric):
    # every branch with all hinges active.  Row 4 lies beyond the clip margin
    # and sits only in pairs: a geodesic distance to a row on the margin
    # carries ~1e-7 relative rounding, which central differences cannot resolve.
    rng = np.random.default_rng(7)
    dim = 3
    theta = random_ball_points(rng, 5, dim, unit_curv, max_frac=0.6)
    theta[4] = [0.0, 0.0, 2.0]
    pairs = np.array([[0, 1], [2, 3], [4, 0], [1, 4]])
    n_points = np.array([3.0, 1.0, 2.0, 5.0])
    trips = np.array([[0, 1, 2], [3, 2, 0], [2, 0, 1], [1, 3, 2]])
    gamma0, margin_eps = 50.0, 6.0
    kw = dict(reg_space=reg_space, triplet_metric=triplet_metric)

    def loss(v, full=False):
        head = MarginHead(v[5 * dim:7 * dim], float(v[7 * dim]), gamma0)
        out = row_loss_gradients(v[:5 * dim].reshape(5, dim), head, pairs, n_points, trips,
                                 unit_curv, margin_eps=margin_eps, **kw)
        return out if full else out[-1].total

    point = np.concatenate([theta.ravel(), rng.normal(scale=0.2, size=2 * dim + 1)])
    grad, touched, gw, gb, report = loss(point, full=True)
    assert touched.all() and report.l_z > 0 and report.l_t > 0
    assert grad_check(loss, np.concatenate([grad.ravel(), gw, [gb]]), point) < 1e-7


@pytest.mark.parametrize("reg_space", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("triplet_metric", ["tangent", "geodesic"])
def test_loss_gradients_scatter_matches_per_example(unit_curv, reg_space, triplet_metric):
    # repeated ids: the batch's scatter equals the per-example calls combined
    rng = np.random.default_rng(5)
    state = make_state(rng, ["a", "b", "c", "d", "e", "f"], 3, unit_curv, gamma0=0.5)
    state.table["e"] = np.array([3.0, 0.0, 0.0])   # beyond the clip margin
    # g and h appear only in examples whose hinges are inactive
    state.table["g"] = np.array([0.01, 0.0, 0.0])
    state.table["h"] = np.array([0.9, 0.0, 0.0])
    pairs = [PairExample(p, w, n) for p, w, n in
             [("a", "b", 1), ("a", "c", 2), ("d", "b", 1), ("a", "b", 3), ("c", "e", 1),
              ("e", "f", 1), ("f", "d", 2), ("g", "h", 1)]]
    trips = [TripletExample(w, p, n) for w, p, n in
             [("a", "b", "c"), ("b", "a", "e"), ("a", "b", "d"), ("e", "c", "a"),
              ("d", "f", "b"), ("c", "a", "b"), ("f", "e", "a"), ("g", "g", "h")]]
    kw = dict(margin_eps=0.3, reg_space=reg_space, triplet_metric=triplet_metric)
    bundle = loss_gradients(LossBatch(pairs, trips), state, unit_curv, **kw)

    want, active = {}, set()
    want_w, want_b, want_lz, want_lt = 0.0, 0.0, 0.0, 0.0
    for ex in pairs + trips:
        is_pair = isinstance(ex, PairExample)
        one = loss_gradients(LossBatch(pairs=[ex] if is_pair else [],
                                       triplets=[] if is_pair else [ex]), state, unit_curv, **kw)
        n = len(pairs) if is_pair else len(trips)
        ids = {ex.part_id, ex.whole_id} if is_pair else {ex.whole_id, ex.pos_id, ex.neg_id}
        for sid, g in one.embeddings.items():
            want[sid] = want.get(sid, 0.0) + g / n
        want_w = want_w + one.head_weights / n
        want_b += one.head_bias / n
        want_lz += one.report.l_z / n
        want_lt += one.report.l_t / n
        if one.report.total > 0:
            active |= ids
    assert active == set("abcdef")
    assert bundle.embeddings.keys() == want.keys() == active
    for sid, g in want.items():
        assert np.abs(bundle.embeddings[sid] - g).max() <= 1e-14 * np.abs(g).max()
    assert np.abs(bundle.head_weights - want_w).max() <= 1e-14 * np.abs(want_w).max()
    assert bundle.head_bias == pytest.approx(want_b, rel=1e-14)
    assert bundle.report.l_z == pytest.approx(want_lz, rel=1e-14)
    assert bundle.report.l_t == pytest.approx(want_lt, rel=1e-14)


@pytest.mark.parametrize("margin_eps", [0.0, -1.0, float("nan")])
def test_loss_gradients_rejects_nonpositive_margin(unit_curv, margin_eps):
    # a pair-only batch is rejected too
    state = make_state(np.random.default_rng(6), ["p", "w", "n"], 3, unit_curv)
    for batch in (LossBatch(triplets=(TripletExample("w", "p", "n"),)),
                  LossBatch(pairs=(PairExample("p", "w", 3),))):
        with pytest.raises(ValueError, match="margin_eps"):
            loss_gradients(batch, state, unit_curv, margin_eps=margin_eps)


def test_loss_gradients_empty_batch(unit_curv):
    rng = np.random.default_rng(4)
    state = make_state(rng, ["a"], 3, unit_curv)
    with pytest.raises(ValueError):
        loss_gradients(LossBatch(), state, unit_curv)


def test_loss_gradients_fd_hundred_cases():
    results = gradient_check_cases(seed=1234, n_cases=100)
    worst = max(err for _, err in results)
    assert worst < 1e-5
    kinds = {kind for kind, _ in results}
    assert kinds == {"geodesic", "reg_pair", "triplet"}


def test_gradient_harness_catches_flipped_sign():
    results = gradient_check_cases(seed=0, n_cases=6, flip_sign=True)
    assert max(err for _, err in results) > 1e-4


# --- grad_check --------------------------------------------------------------

def test_grad_check_quadratic_exact():
    point = np.array([0.3, -1.2, 2.0])

    def fn(v):
        return float(v @ v)

    assert grad_check(fn, 2 * point, point) < 1e-10


def test_grad_check_detects_error():
    point = np.array([1.0, 2.0])

    def fn(v):
        return float(v @ v)

    assert grad_check(fn, np.array([2.0, 5.0]), point) > 0.1


def test_grad_check_h_bounds():
    with pytest.raises(ValueError):
        grad_check(lambda v: 0.0, np.zeros(1), np.zeros(1), h=1e-10)
    with pytest.raises(ValueError):
        grad_check(lambda v: 0.0, np.zeros(1), np.zeros(1), h=1e-2)


def test_reg_loss_monotone_in_norms(unit_curv):
    # in the active-hinge region: nondecreasing in the part norm,
    # nonincreasing in the whole norm
    def l_z(part_h, whole_h):
        state = line_state(gamma0=4.0, p=with_hnorm(part_h), w=with_hnorm(whole_h))
        return one_loss(state, unit_curv, PairExample("p", "w", 2)).l_z

    base = l_z(1.0, 1.2)
    assert base > 0
    for dh in (0.01, 0.1, 0.3):
        assert l_z(1.0 + dh, 1.2) >= base
        assert l_z(1.0, 1.2 + dh) <= base
