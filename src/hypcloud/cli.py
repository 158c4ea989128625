"""Command-line surface tying the library together.

Subcommands: chamfer, hypercd, metrics, delta, synth, embed, gradcheck.
Exit codes: 0 success, 2 usage error, 3 input parse / file error,
4 numerical failure or tolerance breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import hyperbolicity, losses, metrics, svgplot, synthdata
from .train import DivergenceError, TrainConfig, evaluate_hierarchy, export_disk, init_state
from .train import train as train_embeddings
from .chamfer import chamfer_distance, hyper_chamfer
from .cloud import CloudParseError, _read_embedding_csv, _read_matrix, read_cloud
from .poincare import Curvature, NumericalDomainError, clip_to_ball, hyperbolic_norms

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4

GRADCHECK_TOLERANCE = 1e-4


class UsageError(ValueError):
    """Bad flag combination detected after parsing."""


def _emit(doc: dict, out_path: str | None, config: dict):
    """Print a JSON result line; optionally write it (with the effective
    config embedded) to a file."""
    print(json.dumps(doc, sort_keys=True))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({**doc, "config": config}, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# --- subcommand handlers -----------------------------------------------------


def cmd_chamfer(args) -> int:
    pred = read_cloud(args.pred)
    gt = read_cloud(args.gt)
    dist = chamfer_distance(pred, gt, args.variant, method=args.method)
    _emit({"variant": args.variant, "distance": dist,
           "n_pred": len(pred), "n_gt": len(gt)}, args.out, _config_dict(args))
    return EXIT_OK


def cmd_hypercd(args) -> int:
    pred = read_cloud(args.pred)
    gt = read_cloud(args.gt)
    curv = Curvature(args.k)
    dist = hyper_chamfer(pred, gt, curv, args.eps)
    _emit({"variant": "hypercd", "distance": dist, "k": args.k,
           "n_pred": len(pred), "n_gt": len(gt)}, args.out, _config_dict(args))
    return EXIT_OK


def cmd_metrics(args) -> int:
    pred = read_cloud(args.pred)
    gt = read_cloud(args.gt)
    report = metrics.evaluate(pred, gt, args.threshold)
    _emit({"acc": report.acc, "comp": report.comp, "cd": report.cd,
           "prec": report.prec, "recall": report.recall, "f1": report.f1,
           "threshold": report.threshold}, args.out, _config_dict(args))
    return EXIT_OK


def cmd_delta(args) -> int:
    if args.metric == "precomputed":
        data = _read_matrix(args.input)
    elif args.input.endswith(".csv"):
        data = _read_embedding_csv(args.input)
    else:
        data = read_cloud(args.input).points
    if data.shape[0] < 4:
        raise UsageError(f"need at least 4 points, got {data.shape[0]}")
    batches = {"batch_size": args.batch, "n_batches": args.trials, "seed": args.seed}
    if args.metric == "precomputed":
        report = hyperbolicity.sampled_delta_matrix(hyperbolicity.DistanceMatrix(data), **batches)
    else:
        curv = Curvature(args.k) if args.metric == "hyperbolic" else None
        report = hyperbolicity.sampled_delta(data, args.metric, curv=curv, eps=args.eps, **batches)
    doc = {"delta": report.delta, "diameter": report.diameter,
           "delta_rel": report.delta_rel, "base_point": report.base_point,
           "batches": report.batches, "samples_per_batch": report.samples_per_batch,
           "exact": report.exact, "four_point": report.four_point}
    _emit(doc, args.out, _config_dict(args))
    return EXIT_OK


def cmd_synth(args) -> int:
    manifest = synthdata.generate_dataset(
        n_categories=args.categories, objects_per_category=args.objects,
        parts_per_object=args.parts, points_whole=args.points, seed=args.seed)
    path = synthdata.save_manifest(manifest, args.out_dir, extra={"config": _config_dict(args)})
    print(json.dumps({"manifest": str(path), "n_samples": len(manifest.samples),
                      "categories": list(manifest.categories)}, sort_keys=True))
    return EXIT_OK


def _write_csv(path, header: str, rows: list[str], config: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def cmd_embed(args) -> int:
    manifest = synthdata.load_manifest(args.manifest)
    config = TrainConfig(
        epochs=args.epochs, batch_triplets=args.batch_triplets,
        learning_rate=args.lr, gamma0=args.gamma0, margin_eps=args.margin_eps,
        dim=args.dim, seed=args.seed, curvature_k=args.k, ball_eps=args.eps,
        minibatch=args.minibatch, reg_space=args.reg_space,
        triplet_metric=args.triplet_metric)
    if args.lr == 1e-3:
        print("note: learning-rate default 1e-3 is a desk-scale choice "
              "(1e-4 is the full-scale setting); override with --lr", file=sys.stderr)
    state = init_state(manifest, config)
    state, curve = train_embeddings(state, manifest, config)
    summary = evaluate_hierarchy(state, manifest)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _config_dict(args)
    _write_csv(out_dir / "loss.csv", "epoch,l_z,l_t,total",
               [f"{i},{r.l_z!r},{r.l_t!r},{r.total!r}" for i, r in enumerate(curve)],
               cfg)
    emb_header = "id,category,role,n_points,hnorm," + ",".join(f"c{i}" for i in range(config.dim))
    rows = state.table.rows  # in manifest order
    norms = hyperbolic_norms(clip_to_ball(rows, state.curvature, state.eps), state.curvature)
    emb_rows = [f"{s.id},{s.category},{s.role},{s.n_points},{norm!r}," + ",".join(map(repr, row))
                for s, row, norm in zip(manifest.samples, rows.tolist(), norms.tolist())]
    _write_csv(out_dir / "embeddings.csv", emb_header, emb_rows, cfg)
    if config.dim == 2:
        rows = export_disk(state, manifest)
        _write_csv(out_dir / "disk.csv", "id,category,role,n_points,hnorm,x,y",
                   [f"{r['id']},{r['category']},{r['role']},{r['n_points']},"
                    f"{r['hnorm']!r},{r['x']!r},{r['y']!r}" for r in rows], cfg)
        svg = svgplot.disk_svg(rows, comment=f"config: {json.dumps(cfg, sort_keys=True)}")
        (out_dir / "disk.svg").write_text(svg, encoding="utf-8")
    print(json.dumps({k: summary[k] for k in sorted(summary)}, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = losses.gradient_check_cases(
        args.seed, args.n_cases, h=args.h, flip_sign=args.inject_sign_flip)
    worst_kind, worst = max(results, key=lambda item: item[1])
    by_kind: dict[str, float] = {}
    for kind, err in results:
        by_kind[kind] = max(by_kind.get(kind, 0.0), err)
    print(json.dumps({"n_cases": args.n_cases, "max_rel_error": worst,
                      "worst_case": worst_kind, "by_kind": by_kind,
                      "tolerance": GRADCHECK_TOLERANCE}, sort_keys=True))
    if worst > GRADCHECK_TOLERANCE:
        print(f"gradcheck FAILED: {worst_kind} max relative error {worst:.3e} "
              f"> {GRADCHECK_TOLERANCE}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcloud",
        description="Hyperbolic point-cloud toolkit: ball geometry, Chamfer "
                    "distances, hierarchy losses, delta-hyperbolicity, and a "
                    "desk-scale embedding trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_flag=True):
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of flag defaults; explicit flags win")
        p.add_argument("--out", type=str, default=None,
                       help="optionally write the JSON result (with config) here")
        if k_flag:
            p.add_argument("--k", type=float, default=-0.14,
                           help="ball curvature (strictly negative)")
            p.add_argument("--eps", type=float, default=1e-5,
                           help="boundary clipping margin")

    p = sub.add_parser("chamfer", help="Euclidean Chamfer distance between two clouds")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--variant", choices=["l1", "l2"], default="l1")
    p.add_argument("--method", choices=["kdtree", "brute"], default="kdtree")
    common(p, k_flag=False)
    p.set_defaults(func=cmd_chamfer)

    p = sub.add_parser("hypercd", help="hyperbolic Chamfer distance between two clouds")
    p.add_argument("pred")
    p.add_argument("gt")
    common(p)
    p.set_defaults(func=cmd_hypercd)

    p = sub.add_parser("metrics", help="reconstruction metrics (Acc/Comp/CD/Prec/Recall/F1)")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--threshold", type=float, default=0.1)
    common(p, k_flag=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("delta", help="delta-hyperbolicity of a cloud, embedding CSV, "
                                     "or precomputed distance matrix")
    p.add_argument("input")
    p.add_argument("--metric", choices=["euclidean", "hyperbolic", "precomputed"],
                   default="euclidean")
    p.add_argument("--batch", type=int, default=1500)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("synth", help="generate the synthetic part-whole dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--categories", type=int, default=5)
    p.add_argument("--objects", type=int, default=20)
    p.add_argument("--parts", type=int, default=3)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--seed", type=int, default=42)
    common(p, k_flag=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="train hierarchy embeddings from a manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--gamma0", type=float, default=1000.0)
    p.add_argument("--margin-eps", type=float, default=4.0)
    p.add_argument("--batch-triplets", type=int, default=1536)
    p.add_argument("--minibatch", type=int, default=32)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reg-space", choices=["hyperbolic", "euclidean"], default="hyperbolic")
    p.add_argument("--triplet-metric", choices=["tangent", "geodesic"], default="tangent")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gradcheck", help="finite-difference verification of analytic gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cases", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-6)
    p.add_argument("--inject-sign-flip", action="store_true",
                   help="self-test hook: corrupt one gradient coordinate per case")
    common(p, k_flag=False)
    p.set_defaults(func=cmd_gradcheck)

    parser.subcommand_parsers = {name: sp for name, sp in sub.choices.items()}
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]):
    """Fold --config file values in as subcommand defaults (flags still win).

    Each subcommand takes the keys it defines; a key that no subcommand
    defines is a bad config file.
    """
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CloudParseError(path, 1, f"bad config file: {exc}") from None
    if not isinstance(values, dict):
        raise CloudParseError(path, 1, "config file must hold a JSON object")
    actions = {name: {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
               for name, sp in parser.subcommand_parsers.items()}
    unknown = sorted(set(values).difference(*actions.values()))
    if unknown:
        raise CloudParseError(path, 1, f"config keys no subcommand defines: {', '.join(unknown)}")
    for name, sp in parser.subcommand_parsers.items():
        sp.set_defaults(**{k: _config_value(path, k, v, actions[name][k])
                           for k, v in values.items() if k in actions[name]})


def _config_value(path, key: str, value, action: argparse.Action):
    """A config file value, converted and checked as the flag's own text is."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # store_true: the file must say true or false
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or value in action.choices:
                return value
    raise CloudParseError(path, 1, f"config key {key!r}: invalid value {value!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except CloudParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CloudParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericalDomainError, DivergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
