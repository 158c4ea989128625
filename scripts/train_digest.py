#!/usr/bin/env python3
"""Print digests of trained embeddings, to show whether a trainer change moves any bit.

    PYTHONPATH=src python3 scripts/train_digest.py [--epochs 200] [--objects 20]

Trains `generate_dataset(objects_per_category=--objects)` under five configs:
the default `TrainConfig`, `learning_rate=0.5` (the ball clip fires),
`dim=2`, `reg_space="euclidean"` and `triplet_metric="geodesic"`.  Prints
one line per config: its label, then the first 16 hex digits of sha256 over
the trained rows' bytes (manifest order), over `head.weights`' bytes, the
bias repr, and the digest of the repr of the [(l_z, l_t, total), ...] loss
curve.  Two trees print the same lines iff their runs are bit-identical.
Wall time per config goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time

import numpy as np

from hypcloud import TrainConfig, generate_dataset, init_state, train

CONFIGS = {
    "default": {},
    "lr0.5": {"learning_rate": 0.5},
    "dim2": {"dim": 2},
    "euclidean": {"reg_space": "euclidean"},
    "geodesic": {"triplet_metric": "geodesic"},
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_digest(manifest, config: TrainConfig) -> str:
    """'rows head_w bias curve' of one training run."""
    state, curve = train(init_state(manifest, config), manifest, config)
    rows = np.stack([state.table[s.id] for s in manifest.samples])
    trajectory = [(r.l_z, r.l_t, r.total) for r in curve]
    return " ".join((digest(rows.tobytes()), digest(state.head.weights.tobytes()),
                     repr(state.head.bias), digest(repr(trajectory).encode())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--objects", type=int, default=20, help="objects per category")
    args = parser.parse_args(argv)
    manifest = generate_dataset(objects_per_category=args.objects)
    for label, changes in CONFIGS.items():
        config = dataclasses.replace(TrainConfig(), epochs=args.epochs, **changes)
        start = time.perf_counter()
        line = run_digest(manifest, config)
        print(f"{label} {line}", flush=True)
        print(f"{label}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
