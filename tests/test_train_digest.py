import dataclasses
import hashlib
import importlib.util
from pathlib import Path

from hypcloud import TrainConfig, generate_dataset, init_state, train

_spec = importlib.util.spec_from_file_location(
    "train_digest", Path(__file__).resolve().parent.parent / "scripts" / "train_digest.py")
train_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_digest)


# The five `--epochs 2 --objects 1` lines.  A change that moves any trained
# bit fails here; a change that means to alter the trajectory updates these
# pins and records the old and new lines in CHANGES.md.
PINNED = [
    "default eb11209080aeff25 607e3740be4ddb0a -0.0019348607216673548 3f9ce80252dd7d43",
    "lr0.5 1c39cb53fd80afc5 6b20f7bfcfa4b0f5 -0.8768472784871666 080c34e4da933e3f",
    "dim2 b52a5278cedebfdc 976b95ff66bdf158 -0.0019348607217556226 1a46066c95715b55",
    "euclidean 60cc7916da600a2b 39d48a974981cec0 -0.0019348607216458577 b052188cc86ca5d6",
    "geodesic 7f27db3092226198 e9a60dc96c473e18 -0.0019348607216454912 557c94d9a05fc96f",
]


def test_digest_lines_name_each_config_and_hash_the_run(capsys):
    assert train_digest.main(["--epochs", "2", "--objects", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == PINNED

    manifest = generate_dataset(objects_per_category=1)
    config = dataclasses.replace(TrainConfig(), epochs=2)
    state, curve = train(init_state(manifest, config), manifest, config)
    rows = b"".join(state.table[s.id].tobytes() for s in manifest.samples)
    curve_text = repr([(r.l_z, r.l_t, r.total) for r in curve])
    want = ["default"] + [hashlib.sha256(data).hexdigest()[:16] for data in
                          (rows, state.head.weights.tobytes())]
    want += [repr(state.head.bias), hashlib.sha256(curve_text.encode()).hexdigest()[:16]]
    assert lines[0].split() == want

    # a second run prints the same digests
    assert train_digest.main(["--epochs", "2", "--objects", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
