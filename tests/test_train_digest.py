import dataclasses
import hashlib
import importlib.util
from pathlib import Path

from hypcloud import TrainConfig, generate_dataset, init_state, train

_spec = importlib.util.spec_from_file_location(
    "train_digest", Path(__file__).resolve().parent.parent / "scripts" / "train_digest.py")
train_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_digest)


def test_digest_lines_name_each_config_and_hash_the_run(capsys):
    assert train_digest.main(["--epochs", "2", "--objects", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["default", "lr0.5", "dim2", "euclidean",
                                                   "geodesic"]
    assert len(set(lines)) == 5 and all(len(line.split()) == 5 for line in lines)

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
