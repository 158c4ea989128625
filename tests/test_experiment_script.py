import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hierarchy_experiment_smoke(tmp_path):
    # the paper-level experiment, at 2 epochs: it runs end to end and writes
    # its summary with every rate and both delta_rel values
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "exp"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_hierarchy_experiment.py"),
         "--out-dir", str(out), "--epochs", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["delta_rel", "euclidean_ablation", "hyperbolic",
                               "loss_ratio_final_over_epoch1"]
    rates = ["chain_rate", "norm_order_rate", "triplet_accuracy"]
    assert set(rates) <= set(summary["hyperbolic"])
    assert set(summary["hyperbolic"]) == set(summary["euclidean_ablation"])
    # sampled_delta of the initial and trained embeddings, pinned bit for bit
    assert summary["delta_rel"] == {"initial": 0.47462720016534726,
                                    "trained": 0.43946796478491673}
    assert (out / "disk.svg").is_file() and (out / "dataset" / "manifest.json").is_file()
