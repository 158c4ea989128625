import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "cli_digest", Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


# `scripts/cli_digest.py`'s lines: per command its exit code and the digests of
# its stdout and stderr, then every file the run leaves.  A change that moves
# any output bit fails here; a change that means to move one updates these pins
# and records the old and new lines in CHANGES.md.  Like the other digests,
# they hold on one platform's float64 and libm.
PINNED = [
    "chamfer 0 d76a99394b601d70 e3b0c44298fc1c14",
    "hypercd 0 e23418c5893f723e e3b0c44298fc1c14",
    "metrics 0 c381b68353a750be e3b0c44298fc1c14",
    "delta 0 79b44e0b06d1e731 e3b0c44298fc1c14",
    "synth 0 25e4a2d6f1a7f2b3 e3b0c44298fc1c14",
    "embed 0 c4bc48be2e059aaf 5597c2608306870b",
    "gradcheck 0 06691913d19cb34a e3b0c44298fc1c14",
    "gradcheck-default 0 fbbdb146047c8fc9 e3b0c44298fc1c14",
    "delta-matrix-sampled 0 f4e4d64923e01ade e3b0c44298fc1c14",
    "delta-matrix-exact 0 389d8b1ac7b66ee0 e3b0c44298fc1c14",
    "delta-csv 0 8d44686a3b15619b e3b0c44298fc1c14",
    "delta-asymmetric 2 e3b0c44298fc1c14 4fdcf70096988fdc",
    "embed-dim16 0 11756d002d9fe392 5597c2608306870b",
    "a.xyz 1c6c6711adb79ec8",
    "asym.txt 61d63322cdf2a537",
    "b.xyz 8ad79a678bffe2f4",
    "chamfer.json 695fb34126b51c3b",
    "delta-csv.json 72be41de2338c7ac",
    "delta-matrix-exact.json c271df292a84e52d",
    "delta-matrix-sampled.json 0813a78d94ebea4a",
    "delta.json 073fc59bad74dd6b",
    "ds/clouds/chair-000-part0.xyz 2fdbf5498f308943",
    "ds/clouds/chair-000-part1.xyz 5a4421e53dabaad4",
    "ds/clouds/chair-000-whole.xyz 6fc5696e27facc9d",
    "ds/clouds/chair-001-part0.xyz 9c1d46e5ae5b95a0",
    "ds/clouds/chair-001-part1.xyz 4d4d661f8f9091f5",
    "ds/clouds/chair-001-whole.xyz 36ab8049ec002bae",
    "ds/clouds/lamp-000-part0.xyz 5f74a455c27ebb84",
    "ds/clouds/lamp-000-part1.xyz be80fb8d3d2bcff9",
    "ds/clouds/lamp-000-whole.xyz 43a7fe789c732244",
    "ds/clouds/lamp-001-part0.xyz ab63798aa19ea542",
    "ds/clouds/lamp-001-part1.xyz 76576b82aeec28cb",
    "ds/clouds/lamp-001-whole.xyz ee6ee0cafee7d2e1",
    "ds/manifest.json 6a684d506152769c",
    "embed-dim16.json 716d28804151c2bf",
    "embed.json b3e736e256306783",
    "gradcheck-default.json 78faf43a33406b7f",
    "gradcheck.json 5423a4e1648075a7",
    "hypercd.json 8d066f0f9d362786",
    "m.txt 4db2a0aa75e88dcc",
    "metrics.json 489b712e1a6be75b",
    "run/disk.csv 4443e8d4914331e5",
    "run/disk.svg ce02b9ea036b6a44",
    "run/embeddings.csv fe0d3491b56d7055",
    "run/loss.csv 06ce392c82a12d80",
    "run16/embeddings.csv c762441eafc24f5d",
    "run16/loss.csv 49a10ebc9134ceb2",
    "sq.xyz 2892d9bd07fb9d02",
    "star.txt f44c90fa4546db02",
    "synth.json e0ed123323818a68",
]


def test_every_cli_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digest.digest_lines() == PINNED


def test_digest_script_prints_the_lines(capsys):
    assert cli_digest.main([]) == 0
    assert capsys.readouterr().out.splitlines() == PINNED
