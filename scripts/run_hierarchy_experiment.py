#!/usr/bin/env python3
"""End-to-end hierarchy experiment.

Generates the synthetic part-whole dataset, trains embeddings twice (16-D for
the quantitative rates, 2-D for the disk figure), contrasts the hyperbolic
regularizer with its Euclidean ablation, and compares the delta-hyperbolicity
of initial vs trained embeddings.  All outputs land in --out-dir.
"""

import argparse
import dataclasses
import json
import time
from pathlib import Path

from hypcloud import (
    TrainConfig,
    clip_to_ball,
    evaluate_hierarchy,
    generate_dataset,
    init_state,
    sampled_delta,
    save_manifest,
    train,
)
from hypcloud.svgplot import disk_svg
from hypcloud.train import export_disk


def embedding_rows(state):
    return clip_to_ball(state.table.rows, state.curvature, state.eps)


def run_once(manifest, config, label):
    state = init_state(manifest, config)
    start = time.monotonic()
    state, curve = train(state, manifest, config)
    elapsed = time.monotonic() - start
    rates = evaluate_hierarchy(state, manifest)
    print(f"[{label}] {elapsed:.0f}s  epoch-1 loss {curve[0].total:.3f} -> "
          f"final {curve[-1].total:.4f}")
    print(f"[{label}] norm_order_rate={rates['norm_order_rate']:.4f} "
          f"chain_rate={rates['chain_rate']:.3f} "
          f"triplet_accuracy={rates['triplet_accuracy']:.4f}")
    return state, curve, rates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="experiment_out")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = generate_dataset(seed=args.seed)
    save_manifest(manifest, out / "dataset")
    print(f"dataset: {len(manifest.samples)} samples, categories {manifest.categories}")

    config = dataclasses.replace(TrainConfig(), seed=args.seed, epochs=args.epochs)
    hyp_state, hyp_curve, hyp_rates = run_once(manifest, config, "hyperbolic")
    _, _, euc_rates = run_once(
        manifest, dataclasses.replace(config, reg_space="euclidean"), "euclidean-ablation")

    init = init_state(manifest, config)
    rel = {}
    for label, state in (("initial", init), ("trained", hyp_state)):
        report = sampled_delta(embedding_rows(state), "hyperbolic",
                               curv=state.curvature, seed=args.seed)
        rel[label] = report.delta_rel
        print(f"[delta] {label}: delta={report.delta:.4f} delta_rel={report.delta_rel:.4f}")

    disk_config = dataclasses.replace(config, dim=2)
    disk_state, _, _ = run_once(manifest, disk_config, "disk-2d")
    rows = export_disk(disk_state, manifest)
    (out / "disk.svg").write_text(disk_svg(rows, comment=f"seed {args.seed}"))
    print(f"figure: {out / 'disk.svg'}")

    summary = {
        "hyperbolic": hyp_rates,
        "euclidean_ablation": euc_rates,
        "delta_rel": rel,
        "loss_ratio_final_over_epoch1": hyp_curve[-1].total / hyp_curve[0].total,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
