"""Benchmark hypcloud end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload embed --seed 0 --seconds 20 --trace 0

Runs one workload in this process on one thread, through hypcloud's public
library API in the checkout's `src/`.  The run sets up its inputs several
times (set-up time is the median), then repeats whole rounds of the
workload's operations until the round boundary nearest `--seconds`, checks
the first round's outputs against the benchmark's own computations and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 1 the run times one untraced round, then traced rounds (at
least one) for the rest of `--seconds` with every layer wrapped from outside
the package (see tracing.py), and reports per-layer metrics instead of
end-to-end ones.  Result JSON and the span file go to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread for every BLAS pool: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# Imported before the set-up clock starts: their import time moves by ~10%
# between runs and is not hypcloud's.
import numpy as np  # noqa: F401
import scipy.spatial  # noqa: F401

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
LAYERS = ("poincare", "chamfer", "metrics", "hyperbolicity", "losses", "train", "synthdata", "cloud")
END_TO_END_UNITS = {"run_s": "s", "op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_hypcloud() -> SimpleNamespace:
    """A fresh import of hypcloud; returns its modules by layer name.

    The package attribute `hypcloud.train` is the function `train`, so the
    modules are taken from sys.modules.
    """
    for name in [m for m in sys.modules if m == "hypcloud" or m.startswith("hypcloud.")]:
        del sys.modules[name]
    importlib.import_module("hypcloud")
    return SimpleNamespace(**{layer: sys.modules[f"hypcloud.{layer}"] for layer in LAYERS})


def run_rounds(ops, seconds: float, tracer=None):
    """Repeat whole rounds until the round boundary nearest `seconds` (at
    least one).  Returns (round times, op times, outputs per round, failed)."""
    round_s, op_s, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        frame = tracer.open(tracing.ROUND) if tracer else None
        outs = []
        for op in ops:
            o0 = time.perf_counter()
            op_frame = tracer.open(tracing.OP) if tracer else None
            try:
                outs.append(op())
            except Exception:  # an operation that raises is counted, not fatal
                traceback.print_exc()
                outs.append(None)
                failed += 1
            finally:
                if tracer:
                    tracer.close(op_frame)
            op_s.append(time.perf_counter() - o0)
        if tracer:
            tracer.close(frame)
        round_s.append(time.perf_counter() - t0)
        outputs.append(outs)
        if time.perf_counter() - start + statistics.median(round_s) / 2 >= seconds:
            return round_s, op_s, outputs, failed


def check_outputs(wl, hc, inputs, outputs) -> list[str]:
    """Check the first round against the references; every later round must
    repeat it bit for bit."""
    first = outputs[0]
    fails = []
    for r, outs in enumerate(outputs[1:], start=1):
        for i, (a, b) in enumerate(zip(first, outs)):
            if a is not None and b is not None and wl.fingerprint(a) != wl.fingerprint(b):
                fails.append(f"round {r} op {i}: output differs from round 0")
    if all(o is not None for o in first):
        fails += wl.check(hc, inputs, first)
    else:
        fails.append("round 0 has failed operations; its outputs were not checked")
    return fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypcloud" / "__init__.py").is_file():
        print(f"hypcloud sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, args.seed, OUT / f"tmp-{tag}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            hc = import_hypcloud()
            if tracer and i == SETUP_REPEATS - 1:
                tracer.install()
            inputs = wl.build(hc)
            setup_s.append(time.perf_counter() - t0)
        ops = wl.ops(hc, inputs)
        if tracer:
            tracer.uninstall()
            n_setup = len(tracer.spans)
            tracer.counts.clear()
            base_s, op_s, outputs, failed = run_rounds(ops, 0.0)
            tracer.install()
            traced_s, traced_op_s, traced_out, traced_failed = run_rounds(
                ops, args.seconds - sum(base_s), tracer)
            tracer.uninstall()
            op_s += traced_op_s
            outputs += traced_out
            failed += traced_failed
            metrics = tracing.layer_metrics(tracer.spans[n_setup:], tracer.counts, len(traced_s))
            metrics["synthdata.generate_dataset_s"] = sum(
                end - start for _, _, name, start, end in tracer.spans[:n_setup]
                if name == "synthdata.generate_dataset")
            metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(base_s)
            units = tracing.PER_LAYER_UNITS
            tracer.write_spans(OUT / f"trace-{tag}.csv")
            round_s = base_s + traced_s
        else:
            round_s, op_s, outputs, failed = run_rounds(ops, args.seconds)
            metrics = {
                "run_s": statistics.median(round_s),
                "op_s": statistics.median(op_s),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        fails = check_outputs(wl, hc, inputs, outputs)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "round_s": round_s, "op_s": op_s, "setup_s": setup_s, "fails": fails}
        if hasattr(wl, "margin_share"):
            info["margin_share"] = wl.margin_share(inputs)
    finally:
        if tracer:
            tracer.uninstall()
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": len(op_s),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
