import collections
import dataclasses
import importlib
import time

import numpy as np
import pytest

from hypcloud import (
    BallPoint,
    DivergenceError,
    LossBatch,
    TrainConfig,
    clip_to_ball,
    evaluate_hierarchy,
    export_disk,
    hyperbolic_norm,
    init_state,
    log_map_origin,
    loss_gradients,
    train,
)
from hypcloud.cloud import PointCloud
from hypcloud.losses import PairExample, TripletExample
from hypcloud.synthdata import HierarchyManifest, SampleRecord
from hypcloud.train import (
    _EVAL_STREAM,
    EVAL_TRIPLETS_PER_ANCHOR,
    AdamOptimizer,
    holdout_anchor_ids,
    sample_triplets,
    train_step,
)

FAST = dataclasses.replace(TrainConfig(), epochs=6, batch_triplets=48, dim=4, minibatch=16)


def positive_pairs(manifest):
    """Every (part, whole) pair of the manifest, in sample order."""
    return [PairExample(s.id, s.parent_id, s.n_points)
            for s in manifest.samples if s.role == "part"]


def evaluation_triplets(manifest, seed):
    """The held-out evaluation triplets in plain loops, the reference for the
    trainer's array draw: EVAL_TRIPLETS_PER_ANCHOR per held-out whole (every
    whole if none is held out), all positives uniform over the anchor's own
    parts, then all negatives uniform over other categories' parts."""
    held = set(holdout_anchor_ids(manifest, seed))
    anchors = [w for w in manifest.wholes() if w.id in held or not held
               for _ in range(EVAL_TRIPLETS_PER_ANCHOR)]
    own = manifest.parts_by_whole()
    foreign = {c: [s for s in manifest.samples if s.role == "part" and s.category != c]
               for c in manifest.categories}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_EVAL_STREAM,)))
    pos = [own[w.id][k] for w, k in zip(anchors, rng.integers([len(own[w.id]) for w in anchors]))]
    neg = [foreign[w.category][k] for w, k in
           zip(anchors, rng.integers([len(foreign[w.category]) for w in anchors]))]
    return [TripletExample(w.id, p.id, n.id) for w, p, n in zip(anchors, pos, neg)]


def test_config_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(), epochs=0)
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(), dim=1)
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(), learning_rate=-1e-3)
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(), curvature_k=0.2).curvature


@pytest.mark.parametrize("field,value", [
    ("margin_eps", 0.0), ("margin_eps", -3.0), ("margin_eps", float("nan")),
    ("margin_eps", float("inf")), ("learning_rate", float("nan")),
    ("learning_rate", float("inf"))])
def test_config_rejects_bad_margin_and_rate(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(TrainConfig(), **{field: value})


def test_init_state_properties(small_manifest):
    state = init_state(small_manifest, FAST)
    assert set(state.table) == {s.id for s in small_manifest.samples}
    norms = [hyperbolic_norm(BallPoint(v, state.curvature)) for v in state.table.values()]
    assert max(norms) < 0.1
    # zero head: margin gamma0/2 at init
    assert np.all(state.head.weights == 0.0) and state.head.bias == 0.0
    again = init_state(small_manifest, FAST)
    assert all(np.array_equal(state.table[k], again.table[k]) for k in state.table)


def test_train_deterministic_bit_exact(small_manifest):
    results = []
    for _ in range(2):
        state = init_state(small_manifest, FAST)
        state, curve = train(state, small_manifest, FAST)
        results.append((state, curve))
    a, b = results
    assert all(np.array_equal(a[0].table[k], b[0].table[k]) for k in a[0].table)
    assert np.array_equal(a[0].head.weights, b[0].head.weights)
    assert a[0].head.bias == b[0].head.bias
    assert [(r.l_z, r.l_t, r.total) for r in a[1]] == [(r.l_z, r.l_t, r.total) for r in b[1]]


def test_zero_learning_rate_freezes(small_manifest):
    config = dataclasses.replace(FAST, learning_rate=0.0)
    state = init_state(small_manifest, config)
    before = {k: v.copy() for k, v in state.table.items()}
    state, curve = train(state, small_manifest, config)
    assert all(np.array_equal(before[k], state.table[k]) for k in before)
    assert all(r == curve[0] for r in curve)


def test_single_category_rejected():
    from hypcloud import generate_dataset
    man = generate_dataset(2, 2, 2, 128, seed=0)
    chairs = tuple(s for s in man.samples if s.category == "chair")
    with pytest.raises(ValueError):
        lone = HierarchyManifest(samples=chairs, categories=("chair",), seed=0)
    # bypass the manifest validator to hit the trainer's own check
    lone = HierarchyManifest(samples=man.samples, categories=man.categories, seed=0)
    object.__setattr__(lone, "categories", ("chair",))
    with pytest.raises(ValueError):
        train(init_state(lone, FAST), lone, FAST)


def test_embeddings_stay_in_ball(small_manifest):
    config = dataclasses.replace(FAST, learning_rate=0.5)  # aggressive steps
    state = init_state(small_manifest, config)
    state, _ = train(state, small_manifest, config)
    rho = (1 - config.ball_eps) * state.curvature.ball_radius
    for vec in state.table.values():
        assert np.linalg.norm(vec) <= rho


def _hand_adam(m, v, grad, t, lr):
    """One Adam step written out: new moments and the step to subtract."""
    m = 0.9 * m + (1 - 0.9) * grad
    v = 0.999 * v + (1 - 0.999) * grad * grad
    return m, v, lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)


def test_gradient_path_identity(small_manifest):
    """Two trainer steps equal hand-composed loss_gradients + sparse Adam steps;
    the second batch touches a subset of rows, and the untouched rows keep
    their values and moments (a dense Adam step would move them)."""
    config = FAST
    state_a = init_state(small_manifest, config)
    state_b = init_state(small_manifest, config)
    rng = np.random.default_rng(0)
    batches = [LossBatch(pairs=tuple(positive_pairs(small_manifest)[:8]),
                         triplets=tuple(sample_triplets(small_manifest, 8, rng))),
               LossBatch(pairs=tuple(positive_pairs(small_manifest)[:2]))]

    opt = AdamOptimizer(config.learning_rate)
    zero = np.zeros(config.dim)
    moments = {sid: (zero, zero) for sid in state_b.table}
    head_m = head_v = np.zeros(2 * config.dim + 1)
    touched = []
    for t, batch in enumerate(batches, start=1):
        train_step(state_a, batch, opt, config)

        bundle = loss_gradients(batch, state_b, state_b.curvature, state_b.eps,
                                config.margin_eps)
        touched.append(set(bundle.embeddings))
        for sid, grad in bundle.embeddings.items():
            m, v, step = _hand_adam(*moments[sid], grad, t, config.learning_rate)
            moments[sid] = (m, v)
            state_b.table[sid] = clip_to_ball(state_b.table[sid] - step,
                                              state_b.curvature, state_b.eps)
        head = np.append(state_b.head.weights, state_b.head.bias)
        head_m, head_v, step = _hand_adam(
            head_m, head_v, np.append(bundle.head_weights, bundle.head_bias), t,
            config.learning_rate)
        state_b.head.weights, state_b.head.bias = (head - step)[:-1], float((head - step)[-1])

        assert all(np.array_equal(state_a.table[k], state_b.table[k]) for k in state_a.table)
        assert np.array_equal(state_a.head.weights, state_b.head.weights)
        assert state_a.head.bias == state_b.head.bias

    assert touched[1] and touched[0] - touched[1]
    m_a, v_a = opt.slots["table"]
    for sid, i in state_a.table.index.items():
        assert np.array_equal(m_a[i], moments[sid][0]) and np.array_equal(v_a[i], moments[sid][1])
    assert opt.t == 2


def test_step_without_active_hinge(small_manifest):
    """A step whose batch has no hinge-active example updates nothing but t."""
    config = FAST
    state = init_state(small_manifest, config)
    opt = AdamOptimizer(config.learning_rate)
    train_step(state, LossBatch(pairs=tuple(positive_pairs(small_manifest))), opt, config)
    whole = small_manifest.wholes()[0]
    pos = small_manifest.parts_by_whole()[whole.id][0]
    neg = next(s for s in small_manifest.samples
               if s.role == "part" and s.category != whole.category)
    # anchor on its positive, negative across the ball: d_pos - d_neg + margin < 0
    rho = 0.95 * state.curvature.ball_radius
    state.table[whole.id] = state.table[pos.id] = rho * np.eye(config.dim)[0]
    state.table[neg.id] = -rho * np.eye(config.dim)[0]
    rows = state.table.rows.copy()
    m, v = (a.copy() for a in opt.slots["table"])
    head = (state.head.weights.copy(), state.head.bias)

    bundle = train_step(state, LossBatch(triplets=(TripletExample(whole.id, pos.id, neg.id),)),
                        opt, config)
    assert bundle.embeddings == {}
    assert opt.t == 2
    assert np.array_equal(state.table.rows, rows)
    assert np.array_equal(opt.slots["table"][0], m) and np.array_equal(opt.slots["table"][1], v)
    assert np.array_equal(state.head.weights, head[0]) and state.head.bias == head[1]


def test_embedding_table_is_fixed_id_view(small_manifest):
    state = init_state(small_manifest, FAST)
    table = state.table
    ids = [s.id for s in small_manifest.samples]
    assert list(table) == ids and list(table.ids) == ids and len(table) == len(ids)
    assert table.rows.shape == (len(ids), FAST.dim) and table.rows.dtype == np.float64
    live = table[ids[0]]
    assert np.shares_memory(live, table.rows)

    # writes land in the rows evaluate_hierarchy reads ...
    radius = state.curvature.ball_radius
    for inverted, want in ((False, 1.0), (True, 0.0)):
        for s in small_manifest.samples:
            level = 0.8 if (s.role == "whole") != inverted else 0.1
            table[s.id] = np.full(FAST.dim, level * radius / np.sqrt(FAST.dim))
        assert evaluate_hierarchy(state, small_manifest)["norm_order_rate"] == want
    assert np.array_equal(table.rows[table.index[ids[0]]], table[ids[0]])
    # ... and train_step updates those same rows in place
    state = init_state(small_manifest, FAST)
    live = state.table[ids[0]]
    before = live.copy()
    pair = next(p for p in positive_pairs(small_manifest) if ids[0] in (p.part_id, p.whole_id))
    train_step(state, LossBatch(pairs=(pair,)), AdamOptimizer(FAST.learning_rate), FAST)
    assert not np.array_equal(live, before)
    assert np.array_equal(live, state.table[ids[0]])

    with pytest.raises(KeyError):
        state.table["no-such-sample"] = np.zeros(FAST.dim)
    with pytest.raises(KeyError):
        state.table["no-such-sample"]
    with pytest.raises(ValueError):
        state.table[ids[0]] = np.zeros(FAST.dim + 1)
    with pytest.raises(ValueError):
        state.table[ids[0]] = np.zeros((1, FAST.dim))
    with pytest.raises(TypeError):
        del state.table[ids[0]]
    assert list(state.table) == ids


def test_rates_and_norms_are_plain_floats(small_manifest):
    """Rates and hnorm are Python floats (repr-stable in the CSV outputs) equal
    bit for bit to the scalar norm of each clipped row."""
    config = dataclasses.replace(FAST, dim=2, learning_rate=0.5)  # the clip fires
    state = init_state(small_manifest, config)
    state, _ = train(state, small_manifest, config)
    rates = evaluate_hierarchy(state, small_manifest)
    assert all(type(v) is float for v in rates.values())
    rows = export_disk(state, small_manifest)
    for row, s in zip(rows, small_manifest.samples):
        want = hyperbolic_norm(BallPoint(
            clip_to_ball(state.table[s.id], state.curvature, state.eps), state.curvature))
        assert type(row["hnorm"]) is float and row["hnorm"] == want
        assert type(row["x"]) is float and type(row["y"]) is float


def test_divergence_guard_names_sample(small_manifest):
    # an absurd learning rate overflows the very first Adam update
    config = dataclasses.replace(FAST, learning_rate=1e308)
    state = init_state(small_manifest, config)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train(state, small_manifest, config)
    assert "sample" in str(err.value)


def test_training_reduces_loss(small_manifest):
    config = dataclasses.replace(TrainConfig(), epochs=25, batch_triplets=256,
                                 dim=8, minibatch=32)
    state = init_state(small_manifest, config)
    state, curve = train(state, small_manifest, config)
    assert all(np.isfinite(r.total) for r in curve)
    assert curve[-1].total < curve[0].total
    assert len(curve) == config.epochs


def test_evaluate_hierarchy_ideal_state(small_manifest):
    config = FAST
    state = init_state(small_manifest, config)
    # hand-built: parts at radius 0.1, wholes at 0.8 (of the ball radius)
    rng = np.random.default_rng(1)
    radius = state.curvature.ball_radius
    for s in small_manifest.samples:
        direction = rng.normal(size=config.dim)
        direction /= np.linalg.norm(direction)
        state.table[s.id] = direction * (0.8 if s.role == "whole" else 0.1) * radius
    rates = evaluate_hierarchy(state, small_manifest)
    assert rates["norm_order_rate"] == 1.0


def _loop_rates(state, manifest):
    """evaluate_hierarchy written as per-sample loops, the reference for its
    array version."""
    coords = {s.id: clip_to_ball(state.table[s.id], state.curvature, state.eps)
              for s in manifest.samples}
    norms = {sid: hyperbolic_norm(BallPoint(c, state.curvature)) for sid, c in coords.items()}
    pairs = positive_pairs(manifest)
    parts_of = manifest.parts_by_whole()
    chains = [[norms[p.id] for p in parts_of[w.id]] + [norms[w.id]] for w in manifest.wholes()]
    tangent = {sid: log_map_origin(BallPoint(c, state.curvature)).coords
               for sid, c in coords.items()}
    trips = evaluation_triplets(manifest, state.seed)
    trip_ok = sum(np.linalg.norm(tangent[t.whole_id] - tangent[t.pos_id])
                  < np.linalg.norm(tangent[t.whole_id] - tangent[t.neg_id]) for t in trips)
    return {"norm_order_rate": sum(norms[p.part_id] < norms[p.whole_id] for p in pairs) / len(pairs),
            "chain_rate": sum(all(a < b for a, b in zip(c, c[1:])) for c in chains) / len(chains),
            "triplet_accuracy": trip_ok / len(trips)}


@pytest.mark.parametrize("epochs", [0, 3, 30])
def test_evaluate_hierarchy_equals_loop_reference(small_manifest, epochs):
    from hypcloud import generate_dataset
    # the small manifest has whole chains in order, the larger one 80 held-out
    # triplets, the skewed one wholes with fewer parts than others
    for manifest in (small_manifest, generate_dataset(3, 10, 3, 64, seed=1), _skewed_manifest()):
        config = dataclasses.replace(FAST, epochs=max(epochs, 1), dim=2, learning_rate=0.05)
        state = init_state(manifest, config)
        if epochs:
            state, _ = train(state, manifest, config)
        rates = evaluate_hierarchy(state, manifest)
        assert rates == _loop_rates(state, manifest)
    assert all(type(v) is float for v in rates.values())


def test_evaluate_hierarchy_chains_of_unequal_length():
    # wholes with 3, 2 and 1 parts, each chain strictly ordered by radius
    manifest = _skewed_manifest()
    state = init_state(manifest, FAST)
    radius = state.curvature.ball_radius
    for s in manifest.samples:
        level = 0.8 if s.role == "whole" else 0.1 * s.n_points
        state.table[s.id] = np.full(FAST.dim, level * radius / np.sqrt(FAST.dim))
    rates = evaluate_hierarchy(state, manifest)
    assert rates["norm_order_rate"] == rates["chain_rate"] == 1.0
    assert rates == _loop_rates(state, manifest)


def test_evaluate_hierarchy_untrained_near_half(small_manifest):
    state = init_state(small_manifest, FAST)
    rates = evaluate_hierarchy(state, small_manifest)
    # random init: reported, loosely around chance
    assert 0.1 < rates["norm_order_rate"] < 0.9


def test_holdout_split_fraction():
    from hypcloud import generate_dataset
    man = generate_dataset(5, 20, 3, 512, seed=42)
    anchors = holdout_anchor_ids(man, seed=42)
    assert 0 < len(anchors) < len(man.wholes())
    # deterministic
    assert anchors == holdout_anchor_ids(man, seed=42)
    trips = evaluation_triplets(man, seed=42)
    anchor_set = set(anchors)
    assert trips and all(t.whole_id in anchor_set for t in trips)
    cats = {s.id: s.category for s in man.samples}
    assert all(cats[t.neg_id] != cats[t.whole_id] for t in trips)
    assert all(cats[t.pos_id] == cats[t.whole_id] for t in trips)


def test_export_disk_requires_dim2(small_manifest):
    state = init_state(small_manifest, FAST)  # dim=4
    with pytest.raises(ValueError):
        export_disk(state, small_manifest)


def test_export_disk_rows(small_manifest):
    config = dataclasses.replace(FAST, dim=2)
    state = init_state(small_manifest, config)
    rho = (1 - config.ball_eps) * state.curvature.ball_radius
    some_id = next(iter(state.table))
    state.table[some_id] = np.array([rho, 0.0])  # exactly at the clip margin
    rows = export_disk(state, small_manifest)
    assert len(rows) == len(small_manifest.samples)
    radii = {r["id"]: np.hypot(r["x"], r["y"]) for r in rows}
    assert all(v < 1.0 for v in radii.values())
    assert radii[some_id] == pytest.approx(1 - config.ball_eps, abs=1e-12)


def test_export_disk_trained_wholes_farther_out(small_manifest):
    config = dataclasses.replace(TrainConfig(), epochs=60, batch_triplets=192,
                                 dim=2, minibatch=32)
    state = init_state(small_manifest, config)
    state, _ = train(state, small_manifest, config)
    rows = export_disk(state, small_manifest)
    radius = {role: [np.hypot(r["x"], r["y"]) for r in rows if r["role"] == role]
              for role in ("part", "whole")}
    assert np.mean(radius["whole"]) > np.mean(radius["part"])


def test_train_independent_of_table_row_order(small_manifest):
    """train maps sample ids to table rows: a table holding the same rows in
    reverse order trains every sample to the same bits."""
    from hypcloud.train import EmbeddingTable
    config = dataclasses.replace(FAST, learning_rate=0.5)
    state_a = init_state(small_manifest, config)
    state_b = init_state(small_manifest, config)
    ids = state_b.table.ids[::-1]
    state_b.table = EmbeddingTable(ids, state_b.table.rows[::-1].copy())
    state_a, curve_a = train(state_a, small_manifest, config)
    state_b, curve_b = train(state_b, small_manifest, config)
    assert all(np.array_equal(state_a.table[k], state_b.table[k]) for k in ids)
    assert np.array_equal(state_a.head.weights, state_b.head.weights)
    assert state_a.head.bias == state_b.head.bias and curve_a == curve_b
    assert evaluate_hierarchy(state_a, small_manifest) == evaluate_hierarchy(state_b, small_manifest)


def _skewed_manifest() -> HierarchyManifest:
    """Category "a" holds 600 of the 603 parts; "b" has one object with 2
    parts and "c" one object with 1 part.  A negative for an "a" anchor is one
    of 3 parts, so a rejection sampler over all parts needs ~200 tries."""
    cloud = PointCloud(np.arange(12.0).reshape(4, 3))
    samples = []
    for category, objects, n_parts in (("a", 200, 3), ("b", 1, 2), ("c", 1, 1)):
        for obj in range(objects):
            whole = f"{category}{obj}"
            samples += [SampleRecord(f"{whole}-p{k}", category, "part", k + 1, whole,
                                     PointCloud(cloud.points[:k + 1])) for k in range(n_parts)]
            samples.append(SampleRecord(whole, category, "whole", 4, None, cloud))
    return HierarchyManifest(samples=tuple(samples), categories=("a", "b", "c"), seed=0)


def _within_5_sigma(count, n, p):
    return abs(count - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p))


def test_sampler_matches_exact_probabilities():
    manifest = _skewed_manifest()
    by_id = {s.id: s for s in manifest.samples}
    parts_of = manifest.parts_by_whole()
    parts = [s.id for s in manifest.samples if s.role == "part"]
    start = time.perf_counter()
    trips = sample_triplets(manifest, 100_000, np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"100k triplets took {elapsed:.1f} s"
    assert len(trips) == 100_000
    anchors = collections.Counter(t.whole_id for t in trips)
    pos = collections.Counter((t.whole_id, t.pos_id) for t in trips)
    neg = collections.Counter((t.whole_id, t.neg_id) for t in trips)
    wholes = manifest.wholes()
    assert all(_within_5_sigma(anchors[w.id], len(trips), 1.0 / len(wholes)) for w in wholes)
    for w in wholes:
        n = anchors[w.id]
        own = [p.id for p in parts_of[w.id]]
        foreign = [p for p in parts if by_id[p].category != w.category]
        assert all(_within_5_sigma(pos[w.id, p], n, 1.0 / len(own)) for p in own)
        assert all(_within_5_sigma(neg[w.id, p], n, 1.0 / len(foreign)) for p in foreign)
        # every draw of this anchor lies in its own support
        assert sum(pos[w.id, p] for p in own) == n
        assert sum(neg[w.id, p] for p in foreign) == n
    assert all(by_id[t.pos_id].parent_id == t.whole_id for t in trips)
    assert all(by_id[t.neg_id].category != by_id[t.whole_id].category for t in trips)
    # the evaluation draw shares the sampler: foreign negatives, promptly
    evals = evaluation_triplets(manifest, seed=3)
    assert evals and all(by_id[t.neg_id].category != by_id[t.whole_id].category for t in evals)


@pytest.mark.parametrize("reg_space", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("triplet_metric", ["tangent", "geodesic"])
def test_train_replays_public_path(small_manifest, monkeypatch, reg_space, triplet_metric):
    """train's epochs equal, bit for bit, sample_triplets on each epoch's
    stream, train_step over the LossBatch minibatches and loss_gradients on
    the reference batch: rows, head, Adam moments and the loss curve."""
    module = importlib.import_module("hypcloud.train")  # hypcloud.train is the function
    config = dataclasses.replace(FAST, epochs=2, learning_rate=0.5, reg_space=reg_space,
                                 triplet_metric=triplet_metric)
    optimizers = []

    class RecordingAdam(AdamOptimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(module, "AdamOptimizer", RecordingAdam)
    state_a, curve_a = train(init_state(small_manifest, config), small_manifest, config)
    (opt_a,) = optimizers

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=key))

    state_b, opt_b = init_state(small_manifest, config), AdamOptimizer(config.learning_rate)
    pairs = positive_pairs(small_manifest)
    reference = LossBatch(pairs, sample_triplets(small_manifest, config.batch_triplets,
                                                 stream(module._REF_STREAM)))
    curve_b, size = [], config.minibatch
    for epoch in range(config.epochs):
        trips = sample_triplets(small_manifest, config.batch_triplets,
                                stream(module._EPOCH_STREAM, epoch))
        for lo in range(0, max(len(pairs), len(trips)), size):
            train_step(state_b, LossBatch(pairs[lo:lo + size], trips[lo:lo + size]), opt_b, config)
        curve_b.append(loss_gradients(reference, state_b, state_b.curvature, state_b.eps,
                                      config.margin_eps, reg_space=reg_space,
                                      triplet_metric=triplet_metric).report)

    assert np.array_equal(state_a.table.rows, state_b.table.rows)
    assert np.array_equal(state_a.head.weights, state_b.head.weights)
    assert state_a.head.bias == state_b.head.bias
    assert opt_a.t == opt_b.t == config.epochs * 3
    assert opt_a.slots.keys() == opt_b.slots.keys() == {"table", "head"}
    for key in opt_a.slots:
        assert all(np.array_equal(a, b) for a, b in zip(opt_a.slots[key], opt_b.slots[key]))
    assert curve_a == curve_b
    # the run moved rows to the clip margin, so the clip's Jacobian was exercised
    rho = (1 - config.ball_eps) * state_a.curvature.ball_radius
    assert np.isclose(np.linalg.norm(state_a.table.rows, axis=1), rho, rtol=1e-12).any()
