"""Per-layer tracing of hypcloud from outside the package.

`Tracer.install` replaces module attributes where hypcloud looks them up at
call time (for example `hypcloud.train.loss_gradients`, which `train_step`
calls through its module globals) with wrappers that record spans and
counts.  Nothing inside `src/` is changed; `uninstall` puts every original
back.  Spans are kept in memory as (id, parent, name, start, end) and
written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

import numpy as np

# Layer metrics reported by a traced run: name -> unit.  Times and counts are
# per round of the workload (totals over the traced rounds divided by their
# number), so they do not depend on how many rounds fitted into the run.
PER_LAYER_UNITS = {
    "poincare.geodesic_distance_matrix.self_s": "s",
    "poincare.geodesic_distance_matrix.entries": "count",
    "poincare.clip_to_ball.calls": "count",
    "poincare.clip_to_ball.self_s": "s",
    "poincare.scalar.calls": "count",
    "losses.loss_gradients.self_s": "s",
    "losses.loss_gradients.calls": "count",
    "losses.loss_gradients.examples": "count",
    "train.train.self_s": "s",
    "train.train_step.self_s": "s",
    "train.reference_loss_s": "s",
    "train.sample_triplets_s": "s",
    "train.evaluate_hierarchy_s": "s",
    "chamfer.hyper_chamfer.self_s": "s",
    "chamfer.chamfer_distance.self_s": "s",
    "chamfer.nnindex.build_s": "s",
    "chamfer.nnindex.query_s": "s",
    "chamfer.nn_queries": "count",
    "metrics.evaluate.self_s": "s",
    "cloud.read_cloud_s": "s",
    "hyperbolicity.pairwise_distances.self_s": "s",
    "hyperbolicity.pairwise_distances.bytes": "bytes",
    "hyperbolicity.distance_matrix_check_s": "s",
    "hyperbolicity.gromov_delta.self_s": "s",
    "hyperbolicity.sampled_delta.self_s": "s",
    "synthdata.generate_dataset_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "%",
}

# The scalar BallPoint API, counted at the modules that call it.
_SCALAR_CALLERS = (("losses", "hyperbolic_norm"), ("losses", "log_map_origin"),
                   ("losses", "geodesic_distance"), ("train", "hyperbolic_norm"),
                   ("train", "log_map_origin"), ("poincare", "mobius_add"))

ROUND = "bench.round"
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def open(self, name: str) -> tuple[int, int, str, float]:
        sid = self._next_id
        self._next_id += 1
        frame = (sid, self._stack[-1], name, time.perf_counter())
        self._stack.append(sid)
        return frame

    def close(self, frame: tuple[int, int, str, float]):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end))

    def wrap(self, fn, name: str, count=None):
        """Wrap `fn` in a span; `count(args, kwargs)` adds to named counters."""
        opener, closer, counts = self.open, self.close, self.counts

        def traced(*args, **kwargs):
            if count is not None:
                for key, n in count(args, kwargs):
                    counts[key] += n
            frame = opener(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(frame)

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, key: str):
        """Wrap `fn` so each call adds one to `key`, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- installation -------------------------------------------------------

    def _patch(self, module, attr: str, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap hypcloud's public functions at every module that calls them."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        mod = {name: sys.modules[f"hypcloud.{name}"]
               for name in ("poincare", "chamfer", "metrics", "hyperbolicity",
                            "losses", "train", "synthdata", "cloud")}
        P, CH, ME, H, L, T = (mod[k] for k in
                              ("poincare", "chamfer", "metrics", "hyperbolicity", "losses", "train"))

        def gdm_entries(args, kwargs):
            return (("poincare.geodesic_distance_matrix.entries",
                     np.shape(args[0])[0] * np.shape(args[1])[0]),)

        gdm = self.wrap(P.geodesic_distance_matrix, "poincare.geodesic_distance_matrix", gdm_entries)
        for m in (CH, H):
            self._patch(m, "geodesic_distance_matrix", gdm)

        clip = self.wrap(P.clip_to_ball, "poincare.clip_to_ball",
                         lambda a, k: (("poincare.clip_to_ball.calls", 1),))
        for m in (P, CH, H, L, T):
            self._patch(m, "clip_to_ball", clip)

        for m, attr in _SCALAR_CALLERS:
            module = mod[m]
            self._patch(module, attr, self.counter(getattr(module, attr), "poincare.scalar.calls"))

        def loss_examples(args, kwargs):
            batch = args[0]
            return (("losses.loss_gradients.calls", 1),
                    ("losses.loss_gradients.examples", len(batch.pairs) + len(batch.triplets)))

        self._patch(T, "loss_gradients", self.wrap(T.loss_gradients, "losses.loss_gradients",
                                                   loss_examples))
        for attr in ("train", "train_step", "sample_triplets", "evaluate_hierarchy"):
            self._patch(T, attr, self.wrap(getattr(T, attr), f"train.{attr}"))

        for attr in ("hyper_chamfer", "chamfer_distance"):
            self._patch(CH, attr, self.wrap(getattr(CH, attr), f"chamfer.{attr}"))
        index = self._traced_index(CH.NNIndex)
        for m in (CH, ME):
            self._patch(m, "NNIndex", index)
        self._patch(ME, "evaluate", self.wrap(ME.evaluate, "metrics.evaluate"))

        def matrix_bytes(args, kwargs):
            n = np.shape(args[0])[0]
            return (("hyperbolicity.pairwise_distances.bytes", 8 * n * n),)

        self._patch(H, "pairwise_distances",
                    self.wrap(H.pairwise_distances, "hyperbolicity.pairwise_distances", matrix_bytes))
        self._patch(H, "DistanceMatrix", self.wrap(H.DistanceMatrix, "hyperbolicity.DistanceMatrix"))
        for attr in ("gromov_delta", "sampled_delta"):
            self._patch(H, attr, self.wrap(getattr(H, attr), f"hyperbolicity.{attr}"))

        self._patch(mod["synthdata"], "generate_dataset",
                    self.wrap(mod["synthdata"].generate_dataset, "synthdata.generate_dataset"))
        self._patch(mod["cloud"], "read_cloud", self.wrap(mod["cloud"].read_cloud, "cloud.read_cloud"))

    def _traced_index(self, base):
        tracer = self

        class TracedNNIndex(base):
            def __init__(self, *args, **kwargs):
                frame = tracer.open("chamfer.nnindex.build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(frame)

            def query(self, queries):
                tracer.counts["chamfer.nn_queries"] += np.atleast_2d(queries).shape[0]
                frame = tracer.open("chamfer.nnindex.query")
                try:
                    return super().query(queries)
                finally:
                    tracer.close(frame)

        return TracedNNIndex

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_s", "end_s"))
            out.writerows(self.spans)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    The run is single-threaded, so children of a span never overlap and lie
    inside it.
    """
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, _, start, end in spans}


def layer_metrics(spans, counts: dict[str, int], rounds: int) -> dict[str, float]:
    """Aggregate the spans and counts of `rounds` traced rounds into per-round
    layer metrics: every PER_LAYER_UNITS name except
    synthdata.generate_dataset_s and trace.overhead_s, which the caller
    measures."""
    own = self_times(spans)
    names = {sid: name for sid, _, name, _, _ in spans}
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    reference_s = 0.0
    for sid, parent, name, start, end in spans:
        self_s[name] += own[sid]
        total_s[name] += end - start
        if name == "losses.loss_gradients" and names.get(parent) == "train.train":
            reference_s += end - start
    out = {
        "poincare.geodesic_distance_matrix.self_s": self_s["poincare.geodesic_distance_matrix"],
        "poincare.clip_to_ball.self_s": self_s["poincare.clip_to_ball"],
        "losses.loss_gradients.self_s": self_s["losses.loss_gradients"],
        "train.train.self_s": self_s["train.train"],
        "train.train_step.self_s": self_s["train.train_step"],
        "train.reference_loss_s": reference_s,
        "train.sample_triplets_s": total_s["train.sample_triplets"],
        "train.evaluate_hierarchy_s": total_s["train.evaluate_hierarchy"],
        "chamfer.hyper_chamfer.self_s": self_s["chamfer.hyper_chamfer"],
        "chamfer.chamfer_distance.self_s": self_s["chamfer.chamfer_distance"],
        "chamfer.nnindex.build_s": total_s["chamfer.nnindex.build"],
        "chamfer.nnindex.query_s": total_s["chamfer.nnindex.query"],
        "metrics.evaluate.self_s": self_s["metrics.evaluate"],
        "cloud.read_cloud_s": total_s["cloud.read_cloud"],
        "hyperbolicity.pairwise_distances.self_s": self_s["hyperbolicity.pairwise_distances"],
        "hyperbolicity.distance_matrix_check_s": total_s["hyperbolicity.DistanceMatrix"],
        "hyperbolicity.gromov_delta.self_s": self_s["hyperbolicity.gromov_delta"],
        "hyperbolicity.sampled_delta.self_s": self_s["hyperbolicity.sampled_delta"],
    }
    for key in ("poincare.geodesic_distance_matrix.entries", "poincare.clip_to_ball.calls",
                "poincare.scalar.calls", "losses.loss_gradients.calls",
                "losses.loss_gradients.examples", "chamfer.nn_queries",
                "hyperbolicity.pairwise_distances.bytes"):
        out[key] = counts.get(key, 0)
    bench_self = sum(own[sid] for sid, _, name, _, _ in spans if name in (ROUND, OP))
    round_s = total_s[ROUND]
    # Every round repeats the same work, so counts divide exactly.
    out = {k: v // rounds if isinstance(v, int) else v / rounds for k, v in out.items()}
    out["trace.unaccounted_share"] = 100.0 * bench_self / round_s
    return out
