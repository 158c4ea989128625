import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(seed, run_s, rss, workload="delta"):
    return {"file": f"{workload}-{seed}-{run_s}", "workload": workload, "seed": seed, "trace": 0,
            "metrics": {"run_s": run_s, "peak_rss_mb": rss}}


def test_summary_counts_wins_by_direction_and_spreads():
    parent = [_run(1, 19.0, 130.0), _run(2, 20.0, 131.0), _run(3, 18.0, 120.0)]
    child = [_run(1, 3.0, 115.0), _run(2, 21.0, 131.0), _run(3, 2.0, 121.0)]
    run_s = bench_record.summarize(parent, child, {"run_s": "lower"})["delta"]["run_s"]
    assert (run_s["child_wins"], run_s["parent_wins"], run_s["ties"]) == (2, 1, 0)
    assert run_s["parent"] == {"median": 19.0, "q1": 18.5, "q3": 19.5,
                               "values": [19.0, 20.0, 18.0]}
    assert run_s["child"]["median"] == 3.0
    rss = bench_record.summarize(parent, child, {})["delta"]["peak_rss_mb"]
    assert (rss["child_wins"], rss["parent_wins"], rss["ties"]) == (1, 1, 1)
    higher = bench_record.summarize(parent, child, {"run_s": "higher"})["delta"]["run_s"]
    assert (higher["child_wins"], higher["parent_wins"]) == (1, 2)


def test_summary_rejects_unmatched_pairs():
    with pytest.raises(ValueError):
        bench_record.summarize([_run(1, 19.0, 130.0)], [_run(2, 3.0, 115.0)], {})
