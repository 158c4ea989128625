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
    adaptive_margin,
    grad_check,
    gradient_check_cases,
    log_map_origin,
    loss_gradients,
    reg_loss,
    total_loss,
    triplet_loss,
)

from conftest import random_ball_points


def ball(coords, curv):
    return BallPoint(np.asarray(coords, dtype=float), curv)


# --- adaptive margin ---------------------------------------------------------

def test_margin_zero_head_is_half_gamma0():
    head = MarginHead.zeros(4, 1000.0)
    assert adaptive_margin(np.array([1.0, 2.0]), np.array([3.0, 4.0]), head) == 500.0


def test_margin_saturates_monotonically():
    head = MarginHead(np.array([1.0, 0.0]), 0.0, 10.0)
    lo = adaptive_margin(np.array([0.0]), np.array([0.0]), head)
    hi = adaptive_margin(np.array([5.0]), np.array([0.0]), head)
    huge = adaptive_margin(np.array([1e6]), np.array([0.0]), head)
    assert lo < hi < huge < 10.0


def test_margin_dimension_mismatch():
    head = MarginHead.zeros(4, 1.0)
    with pytest.raises(ValueError):
        adaptive_margin(np.array([1.0]), np.array([2.0]), head)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       st.floats(-3, 3))
def test_margin_strictly_inside_range(feats, weights, bias):
    head = MarginHead(np.array(weights), bias, 1000.0)
    margin = adaptive_margin(np.array(feats[:2]), np.array(feats[2:]), head)
    assert 0.0 < margin < 1000.0


def test_margin_lipschitz_bound():
    rng = np.random.default_rng(0)
    head = MarginHead(rng.normal(size=6), 0.1, 100.0)
    feats = rng.normal(size=6)
    delta = 1e-3 * rng.normal(size=6)
    a = adaptive_margin(feats[:3], feats[3:], head)
    b = adaptive_margin(feats[:3] + delta[:3], feats[3:] + delta[3:], head)
    bound = 100.0 * 0.25 * np.linalg.norm(head.weights) * np.linalg.norm(delta)
    assert abs(a - b) <= bound + 1e-12


# --- hinge losses ------------------------------------------------------------

def test_reg_loss_examples(unit_curv):
    # inactive hinge: whole far enough outside the part
    whole = ball([math.tanh(1.0), 0.0], unit_curv)   # hnorm = 2.0
    part = ball([math.tanh(0.25), 0.0], unit_curv)   # hnorm = 0.5... pick norms directly
    # construct by norm: x with hnorm h has |x| = tanh(h/2) for c=1
    def with_norm(h):
        return ball([math.tanh(h / 2), 0.0], unit_curv)
    assert reg_loss(with_norm(1.0), with_norm(2.0), gamma=0.5, n_points=1) == 0.0
    assert reg_loss(with_norm(1.2), with_norm(1.0), gamma=0.3, n_points=1) == pytest.approx(0.5, abs=1e-12)
    p = with_norm(0.7)
    assert reg_loss(p, p, gamma=0.3, n_points=7) == pytest.approx(0.3 / 7, abs=1e-15)


def test_reg_loss_validation(unit_curv, curv014):
    p = ball([0.1, 0.0], unit_curv)
    with pytest.raises(ValueError):
        reg_loss(p, p, gamma=0.0, n_points=1)
    with pytest.raises(ValueError):
        reg_loss(p, p, gamma=1.0, n_points=0)
    with pytest.raises(ValueError):
        reg_loss(p, ball([0.1, 0.0], curv014), gamma=1.0, n_points=1)


def test_triplet_loss_examples(unit_curv):
    # distances are tangent-space euclidean; place points on a line
    def at(r):
        return ball([r, 0.0], unit_curv)
    w, p_pos, p_neg = at(0.0), at(0.2), at(0.6)
    t = lambda b: log_map_origin(b).coords
    d_pos = np.linalg.norm(t(w) - t(p_pos))
    d_neg = np.linalg.norm(t(w) - t(p_neg))
    got = triplet_loss(w, p_pos, p_neg, margin_eps=4.0)
    assert got == pytest.approx(max(0.0, d_pos - d_neg + 4.0), abs=1e-12)
    # identical positive and negative: the distances cancel
    assert triplet_loss(w, p_pos, p_pos, margin_eps=4.0) == 4.0
    # hinge inactive when the negative is far beyond the margin
    assert triplet_loss(at(0.01), at(0.02), at(0.999), margin_eps=0.5) == 0.0


def test_triplet_loss_geodesic_switch(unit_curv):
    w, p, n = ball([0.0, 0.0], unit_curv), ball([0.3, 0.0], unit_curv), ball([0.0, 0.5], unit_curv)
    tangent = triplet_loss(w, p, n, 1.0, metric="tangent")
    geo = triplet_loss(w, p, n, 1.0, metric="geodesic")
    assert tangent >= 0 and geo >= 0
    with pytest.raises(ValueError):
        triplet_loss(w, p, n, 1.0, metric="euclid")
    with pytest.raises(ValueError):
        triplet_loss(w, p, n, 0.0)


def test_total_loss_examples():
    assert total_loss(0.0, 0.0, 0.0).total == 0.0
    assert total_loss(0.5, 2.0, 0.0).total == 2.5
    report = total_loss(0.5, 2.0, 1.25)
    assert report.total == 3.75
    assert report.total == report.l_n + report.l_z + report.l_t
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


def test_loss_gradients_match_scalar_ops(unit_curv):
    rng = np.random.default_rng(3)
    state = make_state(rng, ["p", "w", "n"], 4, unit_curv, gamma0=30.0)
    pair = PairExample("p", "w", 5)
    trip = TripletExample("w", "p", "n")
    bundle = loss_gradients(LossBatch(pairs=(pair,), triplets=(trip,)), state, unit_curv,
                            margin_eps=2.0)
    gamma = adaptive_margin(state.table["p"], state.table["w"], state.head)
    want_lz = reg_loss(ball(state.table["p"], unit_curv), ball(state.table["w"], unit_curv),
                       gamma, 5)
    want_lt = triplet_loss(ball(state.table["w"], unit_curv), ball(state.table["p"], unit_curv),
                           ball(state.table["n"], unit_curv), 2.0)
    assert bundle.report.l_z == pytest.approx(want_lz, rel=1e-14)
    assert bundle.report.l_t == pytest.approx(want_lt, rel=1e-14)


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
    # as the scalar triplet_loss does; a pair-only batch is rejected too
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
    def with_norm(h):
        return ball([math.tanh(h / 2), 0.0], unit_curv)

    base = reg_loss(with_norm(1.0), with_norm(1.2), gamma=2.0, n_points=2)
    assert base > 0
    for dh in (0.01, 0.1, 0.3):
        assert reg_loss(with_norm(1.0 + dh), with_norm(1.2), 2.0, 2) >= base
        assert reg_loss(with_norm(1.0), with_norm(1.2 + dh), 2.0, 2) <= base
