"""Merge interleaved parent/change benchmark runs into one committed record.

    python3 scripts/bench_record.py --label delta_prune \
        --parent-rev HEAD~1 --child-rev HEAD \
        --parent runs/p01.json runs/p02.json ... --child runs/c01.json runs/c02.json ...

Each file is a `perfbench/out/result-*.json` written by `perfbench/run.py`
(copy it away after every run: the next run of the same workload, seed and
trace overwrites it).  The i-th parent file and the i-th child file form
pair i, and must be runs of the same workload, seed and trace setting.
Writes BENCH_<label>.json at the repository root with every run's values,
per-side medians and quartiles per workload and metric (traced runs under
"<workload>-trace"), the pairs each side won (by the metric's direction in
BENCHMARK.json), the seeds, both git SHAs, the machine, and the Python and
numpy versions.

Each metric also gets the per-pair ratio child/parent ("ratio"): its values
(null where the parent is 0, since the ratio is then undefined), the median
and quartiles of the defined ones, the count of pairs below 1, and the exact
two-sided sign-test p-value of that count (pairs at exactly 1 carry no sign).
Each ratio compares runs on the same seed, so the input's effect on the time,
which widens the per-side quartiles, largely cancels in it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _sha(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    info = doc["info"]
    return {"file": os.path.basename(path), "workload": info["workload"], "seed": info["seed"],
            "trace": info["trace"], "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _ratios(parent: list[float], child: list[float]) -> dict:
    values = [c / p if p else None for p, c in zip(parent, child)]
    defined = [r for r in values if r is not None]
    below = sum(r < 1 for r in defined)
    signed = below + sum(r > 1 for r in defined)
    tail = sum(math.comb(signed, k) for k in range(min(below, signed - below) + 1))
    spread = _spread(defined) if defined else {"median": None, "q1": None, "q3": None}
    return {**spread, "values": values, "below_1": below,
            "sign_test_p": min(1.0, 2 * tail / 2 ** signed)}


def summarize(parent: list[dict], child: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's spread, the pairs each side won,
    and the per-pair ratio child/parent."""
    summary: dict = {}
    for p, c in zip(parent, child):
        key = (p["workload"], p["seed"], p["trace"])
        if key != (c["workload"], c["seed"], c["trace"]):
            raise ValueError(f"pair {p['file']} / {c['file']}: {key} against "
                             f"{(c['workload'], c['seed'], c['trace'])}")
        workload = summary.setdefault(p["workload"] + ("-trace" if p["trace"] else ""), {})
        for name, pv in p["metrics"].items():
            cv = c["metrics"][name]
            entry = workload.setdefault(name, {"parent": [], "child": [], "child_wins": 0,
                                               "parent_wins": 0, "ties": 0})
            entry["parent"].append(pv)
            entry["child"].append(cv)
            sign = -1 if better.get(name, "lower") == "lower" else 1
            diff = sign * (cv - pv)
            entry["child_wins" if diff > 0 else "parent_wins" if diff < 0 else "ties"] += 1
    for workload in summary.values():
        for entry in workload.values():
            entry["ratio"] = _ratios(entry["parent"], entry["child"])
            entry["parent"] = _spread(entry["parent"])
            entry["child"] = _spread(entry["child"])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--child-rev", required=True)
    parser.add_argument("--parent", nargs="+", required=True,
                        help="parent result files, in run order")
    parser.add_argument("--child", nargs="+", required=True,
                        help="child result files, in run order")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.child):
        parser.error(f"{len(args.parent)} parent runs against {len(args.child)} child runs")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent = [_load(p) for p in args.parent]
    child = [_load(c) for c in args.child]
    record = {
        "label": args.label,
        "command": " ".join(bench["command"]),
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parent": {"sha": _sha(args.parent_rev), "runs": parent},
        "child": {"sha": _sha(args.child_rev), "runs": child},
        "summary": summarize(parent, child, better),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
