import importlib.util
import json
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
    traced = {**_run(2, 3.0, 115.0), "trace": 1}
    with pytest.raises(ValueError):  # the second pair differs in its trace setting
        bench_record.summarize([_run(1, 19.0, 130.0), _run(2, 20.0, 131.0)],
                               [_run(1, 3.0, 115.0), traced], {})


def test_ratio_spread_and_sign_test_by_hand():
    parent = [_run(1, 19.0, 130.0), _run(2, 20.0, 131.0), _run(3, 18.0, 120.0)]
    child = [_run(1, 3.0, 115.0), _run(2, 21.0, 131.0), _run(3, 2.0, 121.0)]
    summary = bench_record.summarize(parent, child, {})["delta"]
    ratio = summary["run_s"]["ratio"]
    assert ratio["values"] == [3 / 19, 21 / 20, 2 / 18]
    assert ratio["median"] == 3 / 19
    assert ratio["q1"] == pytest.approx((2 / 18 + 3 / 19) / 2, rel=1e-15)
    assert ratio["q3"] == pytest.approx((3 / 19 + 21 / 20) / 2, rel=1e-15)
    assert ratio["below_1"] == 2
    assert ratio["sign_test_p"] == 1.0  # 2 (C(3,0) + C(3,1)) / 2^3, capped at 1
    rss = summary["peak_rss_mb"]["ratio"]  # one below, one tie, one above
    assert rss["below_1"] == 1 and rss["sign_test_p"] == 1.0
    assert summary["run_s"]["parent"]["median"] == 19.0  # the per-side fields stay


@pytest.mark.parametrize("below, above, ties, p", [
    (10, 0, 0, 2 / 1024), (9, 1, 0, 2 * 11 / 1024), (8, 2, 0, 2 * 56 / 1024),
    (1, 9, 0, 2 * 11 / 1024), (0, 9, 1, 2 / 512), (5, 5, 0, 1.0), (0, 0, 3, 1.0)])
def test_sign_test_p_value_is_exact(below, above, ties, p):
    ratios = [0.5] * below + [2.0] * above + [1.0] * ties
    parent = [_run(seed, 1.0, 1.0) for seed in range(len(ratios))]
    child = [_run(seed, r, 1.0) for seed, r in enumerate(ratios)]
    ratio = bench_record.summarize(parent, child, {})["delta"]["run_s"]["ratio"]
    assert ratio["below_1"] == below
    assert ratio["sign_test_p"] == p


def test_ratio_with_zero_parent_is_undefined_not_dropped():
    parent = [_run(1, 0.0, 0.0), _run(2, 2.0, 0.0), _run(3, 4.0, 0.0)]
    child = [_run(1, 0.5, 0.0), _run(2, 1.0, 3.0), _run(3, 1.0, 0.0)]
    summary = bench_record.summarize(parent, child, {})["delta"]
    ratio = summary["run_s"]["ratio"]
    assert ratio["values"] == [None, 0.5, 0.25]
    assert (ratio["median"], ratio["q1"], ratio["q3"]) == (0.375, 0.3125, 0.4375)
    assert ratio["below_1"] == 2 and ratio["sign_test_p"] == 0.5
    rss = summary["peak_rss_mb"]["ratio"]
    assert rss["values"] == [None, None, None] and rss["median"] is None
    assert rss["below_1"] == 0 and rss["sign_test_p"] == 1.0
    json.dumps(summary, allow_nan=False)  # the record stays strict JSON
