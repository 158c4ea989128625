#!/usr/bin/env python3
"""Run interleaved parent/change benchmark pairs and record them in one command.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads delta embed \
        --seeds 1-10 --label my_change
    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads delta --setup 15

Exports the committed files of the parent revision (`git archive`) into a
temporary directory.  The change is this checkout as it stands; commit it
first, since the record names it by HEAD.  For each seed, and each workload
within it, runs `perfbench/run.py` (untraced, for BENCHMARK.json's
`run_seconds`) from both trees in turn, the parent first on odd seeds and the
change first on even ones, and moves each `result-*.json` into
`bench_runs/<label>/` as it lands, so that no run overwrites another.  A run
that exits non-zero or reports `correct: false` stops the command before any
record is written.  Then `scripts/bench_record.py` writes `BENCH_<label>.json`
from the pairs, with the per-pair ratios and their sign test.

`--setup N` runs no benchmark.  In this one process it times
`import_hypcloud()` plus the workload's `build` N times per tree, the two
trees alternated (by `sys.path`), and prints per workload the median set-up
of each side and the per-pair ratio change/parent.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or reported wrong outputs."""


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export_tree(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, extracted into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_benchmark(tree: Path, workload: str, seed: int) -> int:
    """One untraced `perfbench/run.py` run from `tree`; returns its exit code."""
    with open(tree / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
            "--trace", "0"]
    return subprocess.run([*bench["command"], *args], cwd=tree).returncode


def run_pairs(trees: dict[str, Path], workloads: list[str], seeds: list[int], runs_dir: Path,
              runner=run_benchmark) -> dict[str, list[str]]:
    """Run every (seed, workload) pair; returns the kept result files per side,
    in pair order."""
    runs_dir.mkdir(parents=True, exist_ok=True)
    kept: dict[str, list[str]] = {"parent": [], "child": []}
    for seed in seeds:
        for workload in workloads:
            for side in ("parent", "child") if seed % 2 else ("child", "parent"):
                tag = f"{workload}-seed{seed}-trace0"
                code = runner(trees[side], workload, seed)
                if code != 0:
                    raise RunFailed(f"{side} {tag} exited {code}")
                target = runs_dir / f"{side}-{tag}.json"
                shutil.move(trees[side] / "perfbench" / "out" / f"result-{tag}.json", target)
                with open(target, encoding="utf-8") as fh:
                    if not json.load(fh)["correct"]:
                        raise RunFailed(f"{side} {tag} reported wrong outputs ({target})")
                kept[side].append(str(target))
    return kept


def _load_perfbench(tree: Path, name: str):
    """`tree`'s perfbench/run.py, with its own `checks`, `tracing` and `workloads`."""
    for module in ("checks", "tracing", "workloads"):
        sys.modules.pop(module, None)
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(tree / "perfbench"))
    return run


def time_setups(trees: dict[str, Path], workload: str, seed: int, repeats: int) -> dict:
    """Alternated set-up times (import_hypcloud + build) of both trees."""
    runs = {side: _load_perfbench(tree, f"run_{side}") for side, tree in trees.items()}
    times: dict[str, list[float]] = {"parent": [], "child": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            for side in ("parent", "child") if i % 2 == 0 else ("child", "parent"):
                run = runs[side]
                wl = run.workloads.make(workload, seed, Path(tmp) / f"{side}-{i}")
                sys.path.insert(0, str(trees[side] / "src"))
                try:
                    t0 = time.perf_counter()
                    hc = run.import_hypcloud()
                    wl.build(hc)
                    times[side].append(time.perf_counter() - t0)
                finally:
                    sys.path.remove(str(trees[side] / "src"))
                    if hasattr(wl, "cleanup"):
                        wl.cleanup()
    return {"parent": statistics.median(times["parent"]), "child": statistics.median(times["child"]),
            "ratio": bench_record._ratios(times["parent"], times["child"])}


def main(argv=None, runner=run_benchmark, export=export_tree) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--label", help="names BENCH_<label>.json and bench_runs/<label>/")
    parser.add_argument("--setup", type=int, default=0, metavar="N",
                        help="time N alternated set-ups per tree instead of running pairs")
    args = parser.parse_args(argv)
    if not args.setup and not args.label:
        parser.error("--label is required unless --setup is given")
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"), "child": ROOT}
        if args.setup:
            for workload in args.workloads:
                got = time_setups(trees, workload, seeds[0], args.setup)
                ratio = got["ratio"]
                print(f"{workload} setup parent {got['parent']:.4f} s child {got['child']:.4f} s "
                      f"ratio {ratio['median']:.3f} [{ratio['q1']:.3f}-{ratio['q3']:.3f}] "
                      f"below 1: {ratio['below_1']}/{args.setup} p={ratio['sign_test_p']:.3g}")
            return 0
        try:
            kept = run_pairs(trees, args.workloads, seeds, ROOT / "bench_runs" / args.label,
                             runner)
        except RunFailed as exc:
            print(f"no record written: {exc}", file=sys.stderr)
            return 1
    return bench_record.main(["--label", args.label, "--parent-rev", args.parent,
                              "--child-rev", "HEAD", "--parent", *kept["parent"],
                              "--child", *kept["child"]])


if __name__ == "__main__":
    sys.exit(main())
