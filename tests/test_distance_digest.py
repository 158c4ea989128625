import hashlib

import numpy as np

from hypcloud import Curvature, PointCloud, chamfer_distance, evaluate, hyper_chamfer, sampled_delta

# sha256 (first 16 hex digits) of the float64 bytes of each distance-layer
# output on the seeded inputs below.  A change that moves any of these bits
# fails here; a change that means to alter them (a new distance expression,
# say) updates these pins and records the old and new lines in CHANGES.md.
PINNED = {
    "chamfer-l1-kdtree": "13c205714a66aed1",
    "chamfer-l1-brute": "13c205714a66aed1",
    "chamfer-l2-kdtree": "a7e518e6628274e6",
    "chamfer-l2-brute": "a7e518e6628274e6",
    "evaluate": "3ae1aa24777147ec",
    "hypercd-interior": "1b461eae0292b159",
    "hypercd-boundary": "8de34441cfe1cc2a",
    "delta-euclidean-d3": "647c5cca0a4c1fe8",
    "delta-euclidean-d16": "ed95c004827097d5",
    "delta-hyperbolic": "3f8509c88bdc7189",
}


def _hash(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _digests() -> dict[str, str]:
    rng = np.random.default_rng(20241)
    x = rng.uniform(-1.0, 1.0, size=(700, 3))
    y = x[:500] + rng.normal(0.0, 0.03, size=(500, 3))
    px, py = PointCloud(x), PointCloud(y)
    curv = Curvature(-0.14)
    out = {}
    for variant in ("l1", "l2"):
        for method in ("kdtree", "brute"):
            out[f"chamfer-{variant}-{method}"] = _hash(chamfer_distance(px, py, variant, method=method))
    rep = evaluate(px, py, 0.05)
    out["evaluate"] = _hash([rep.acc, rep.comp, rep.cd, rep.prec, rep.recall, rep.f1])
    out["hypercd-interior"] = _hash(hyper_chamfer(px, py, curv))
    # x6 puts most points on the clip margin, as the recon-boundary benchmark does
    out["hypercd-boundary"] = _hash(hyper_chamfer(PointCloud(6.0 * x), PointCloud(6.0 * y), curv))
    for name, points, metric in (("delta-euclidean-d3", x, "euclidean"),
                                 ("delta-euclidean-d16", rng.normal(size=(300, 16)), "euclidean"),
                                 ("delta-hyperbolic", 0.5 * rng.normal(size=(300, 16)), "hyperbolic")):
        rep = sampled_delta(points, metric, batch_size=200, n_batches=2, seed=3, curv=curv)
        out[name] = _hash([rep.delta, rep.diameter, rep.delta_rel])
    return out


def test_distance_layer_bits_are_pinned():
    assert _digests() == PINNED
