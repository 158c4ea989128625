import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class FakeRunner:
    """Stands in for perfbench/run.py: records each call and writes the
    result file a real run would, with run_s 2.0 for the parent and 1.0 for
    the child; `fail` maps a call index to an exit code or to "incorrect"."""

    def __init__(self, trees, fail=None):
        self.trees = trees
        self.calls = []
        self.fail = fail or {}

    def __call__(self, tree, workload, seed):
        side = next(side for side, path in self.trees.items() if path == tree)
        self.calls.append((side, workload, seed))
        outcome = self.fail.get(len(self.calls) - 1, 0)
        if outcome not in (0, "incorrect"):
            return outcome
        out = tree / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        doc = {"correct": outcome == 0, "attempted": 1, "failed": 0,
               "metrics": {"run_s": {"value": 2.0 if side == "parent" else 1.0, "unit": "s"}},
               "info": {"workload": workload, "seed": seed, "trace": 0}}
        (out / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))
        return 0


@pytest.fixture()
def trees(tmp_path):
    return {"parent": tmp_path / "parent", "child": tmp_path / "child"}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("1,3,5-6") == [1, 3, 5, 6]


def test_pairs_alternate_and_every_result_is_kept(trees, tmp_path):
    runner = FakeRunner(trees)
    runs = tmp_path / "runs"
    kept = bench_pairs.run_pairs(trees, ["delta", "embed"], [1, 2], runs, runner)
    # the parent runs first on odd seeds, the change first on even ones
    assert runner.calls == [("parent", "delta", 1), ("child", "delta", 1),
                            ("parent", "embed", 1), ("child", "embed", 1),
                            ("child", "delta", 2), ("parent", "delta", 2),
                            ("child", "embed", 2), ("parent", "embed", 2)]
    assert kept["parent"] == [str(runs / f"parent-{w}-seed{s}-trace0.json")
                              for s in (1, 2) for w in ("delta", "embed")]
    assert all(Path(f).is_file() for f in kept["parent"] + kept["child"])
    # moved, not copied: nothing is left for the next run to overwrite
    assert [p for tree in trees.values() for p in (tree / "perfbench" / "out").iterdir()] == []


@pytest.fixture()
def record_root(tmp_path, trees, monkeypatch):
    """main() with the change at trees["child"] and the parent exported to a
    temporary tree by a fake export; the record lands in trees["child"]."""
    trees["child"].mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", trees["child"])
    monkeypatch.setattr(bench_pairs, "ROOT", trees["child"])
    monkeypatch.setattr(bench_pairs.bench_record, "ROOT", trees["child"])
    monkeypatch.setattr(bench_pairs.bench_record, "_sha", lambda rev: f"sha-of-{rev}")

    def export(rev, dest):
        dest.mkdir(parents=True)
        trees["parent"] = dest
        return dest

    return export


def _main(export, trees, fail=None):
    runner = FakeRunner(trees, fail)
    code = bench_pairs.main(["--parent", "HEAD~1", "--workloads", "delta", "--seeds", "1-3",
                             "--label", "t"], runner=runner, export=export)
    return code, runner


def test_main_writes_the_record(record_root, trees):
    code, runner = _main(record_root, trees)
    assert code == 0 and len(runner.calls) == 6
    record = json.loads((trees["child"] / "BENCH_t.json").read_text())
    assert record["parent"]["sha"] == "sha-of-HEAD~1" and record["child"]["sha"] == "sha-of-HEAD"
    assert [r["seed"] for r in record["parent"]["runs"]] == [1, 2, 3]
    ratio = record["summary"]["delta"]["run_s"]["ratio"]
    assert ratio["values"] == [0.5, 0.5, 0.5] and ratio["below_1"] == 3


@pytest.mark.parametrize("fail", [{3: 1}, {3: "incorrect"}], ids=["exit", "incorrect"])
def test_a_failed_run_stops_the_record(record_root, trees, fail, capsys):
    code, runner = _main(record_root, trees, fail)
    assert code == 1
    assert len(runner.calls) == 4  # nothing runs after the failure
    assert not (trees["child"] / "BENCH_t.json").exists()
    assert "no record written: parent delta-seed2-trace0" in capsys.readouterr().err


def test_setup_mode_alternates_both_trees(monkeypatch):
    # both sides are this checkout; the benchmark modules and hypcloud that
    # the set-ups import are put back afterwards
    names = [m for m in sys.modules
             if m in ("checks", "tracing", "workloads") or m.split(".")[0] == "hypcloud"]
    for name in names:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    before = set(sys.modules)
    got = bench_pairs.time_setups({"parent": ROOT, "child": ROOT}, "delta", 1, 2)
    for name in set(sys.modules) - before:
        if name in ("checks", "tracing", "workloads") or name.split(".")[0] == "hypcloud":
            del sys.modules[name]
    assert got["parent"] > 0 and got["child"] > 0
    assert len(got["ratio"]["values"]) == 2
