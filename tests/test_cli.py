import html
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import hypcloud
from hypcloud import cli, losses, svgplot
from hypcloud import BallPoint, Curvature, PointCloud, clip_to_ball, hyperbolic_norm, write_xyz
from hypcloud.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main


@pytest.fixture()
def clouds(tmp_path):
    rng = np.random.default_rng(0)
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    write_xyz(a, PointCloud(rng.normal(size=(30, 3))))
    write_xyz(b, PointCloud(rng.normal(size=(20, 3))))
    return str(a), str(b)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chamfer_identical_files(capsys, clouds):
    a, _ = clouds
    code, out, _ = run(capsys, ["chamfer", a, a, "--variant", "l1"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["distance"] == 0.0
    assert doc["n_pred"] == doc["n_gt"] == 30


def test_chamfer_single_point_pair(capsys, tmp_path):
    p = tmp_path / "p.xyz"
    q = tmp_path / "q.xyz"
    p.write_text("0 0 0\n")
    q.write_text("1 0 0\n")
    code, out, _ = run(capsys, ["chamfer", str(p), str(q)])
    assert code == EXIT_OK
    assert json.loads(out)["distance"] == 2.0


def test_hypercd_oracle_value(capsys, tmp_path):
    p = tmp_path / "p.xyz"
    q = tmp_path / "q.xyz"
    p.write_text("0.1 0 0\n")
    q.write_text("0 0 0\n")
    code, out, _ = run(capsys, ["hypercd", str(p), str(q), "--k", "-0.14"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["k"] == -0.14
    assert doc["distance"] == pytest.approx(0.4001868236236376, rel=1e-9)


def test_hypercd_rejects_positive_k(capsys, clouds):
    a, b = clouds
    code, _, err = run(capsys, ["hypercd", a, b, "--k", "0.5"])
    assert code == EXIT_USAGE
    assert "negative" in err


def test_malformed_cloud_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2 3\nx y z\n")
    code, _, err = run(capsys, ["chamfer", str(bad), str(bad)])
    assert code == EXIT_PARSE
    assert "bad.xyz:2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["chamfer", "/nonexistent.xyz", "/nonexistent.xyz"])
    assert code == EXIT_PARSE


def test_metrics_identical(capsys, clouds):
    a, _ = clouds
    code, out, _ = run(capsys, ["metrics", a, a])
    assert code == EXIT_OK
    assert json.loads(out)["f1"] == 1.0


def test_metrics_hand_example(capsys, tmp_path):
    p = tmp_path / "p.xyz"
    q = tmp_path / "q.xyz"
    p.write_text("0 0 0\n1 0 0\n")
    q.write_text("0 0 0\n")
    code, out, _ = run(capsys, ["metrics", str(p), str(q), "--threshold", "0.5"])
    doc = json.loads(out)
    assert doc["f1"] == pytest.approx(2 / 3, abs=1e-15)


def test_metrics_bad_threshold(capsys, clouds):
    a, b = clouds
    for threshold in ("0", "-1", "nan"):
        code, out, err = run(capsys, ["metrics", a, b, "--threshold", threshold])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: threshold must be positive")
    # the files are read before the library checks the threshold
    code, _, _ = run(capsys, ["metrics", "/nonexistent.xyz", b, "--threshold", "0"])
    assert code == EXIT_PARSE


def test_non_finite_cloud_exit_code(capsys, clouds, tmp_path):
    a, _ = clouds
    bad = tmp_path / "nf.xyz"
    bad.write_text("1 2 3\n4 nan 6\n")
    for argv in (["chamfer", str(bad), a], ["hypercd", a, str(bad)],
                 ["metrics", a, str(bad)], ["delta", str(bad)]):
        code, out, err = run(capsys, argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert "nf.xyz:2" in err


def test_delta_input_errors_report_line(capsys, tmp_path):
    matrix = tmp_path / "m.txt"
    csv = tmp_path / "e2.csv"
    cases = [
        (matrix, "# d\n0 1 1 1\n1 0 2 2\n1 2 0 nan\n1 2 2 0\n", ["precomputed"], "m.txt:4:"),
        (matrix, "0 1 1 1\n1 0 2 2\n1 2 0 2\n1 2 2 inf\n", ["precomputed"], "m.txt:4:"),
        (matrix, "0 1 1 1\n1 0 2 2\n1 2 0 2 7\n1 2 2 0\n", ["precomputed"], "m.txt:3:"),
        (csv, "# config: {}\nid,c0,c1\na,0.1,0.2\nb,0.3,x\nc,0,0\nd,0.1,0\n",
         ["euclidean", "hyperbolic"], "e2.csv:4:"),
        (csv, "# config: {}\nid,c0,c1\na,0.1,0.2\nb,0.3,0\nc,nan,0\nd,0.1,0\n",
         ["euclidean", "hyperbolic"], "e2.csv:5:"),
    ]
    for path, text, metrics, where in cases:
        path.write_text(text)
        for metric in metrics:
            code, out, err = run(capsys, ["delta", str(path), "--metric", metric])
            assert code == EXIT_PARSE
            assert out == ""
            assert where in err


def test_delta_star_tree_matrix(capsys, tmp_path):
    matrix = tmp_path / "star.txt"
    matrix.write_text("0 1 1 1\n1 0 2 2\n1 2 0 2\n1 2 2 0\n")
    code, out, _ = run(capsys, ["delta", str(matrix), "--metric", "precomputed"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["delta"] <= 1e-9
    assert doc["exact"] is True


def test_delta_asymmetric_matrix_outside_every_batch(capsys, tmp_path):
    # the asymmetric entry (5, 7) lies outside the one batch drawn (rows 0, 2,
    # 9 and 10 at seed 0), and the whole matrix is still checked
    pts = np.random.default_rng(15).normal(size=(12, 3))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    draws = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(5,)))
    assert not {5, 7} & set(draws.choice(12, size=4, replace=False).tolist())
    d[5, 7] += 0.5
    matrix = tmp_path / "asym.txt"
    matrix.write_text("".join(" ".join(map(repr, row)) + "\n" for row in d.tolist()))
    code, out, err = run(capsys, ["delta", str(matrix), "--metric", "precomputed",
                                  "--batch", "4", "--trials", "1"])
    assert (code, out, err) == (EXIT_USAGE, "", "error: distance matrix must be symmetric\n")


def test_delta_metric_choices(capsys, tmp_path):
    sq = tmp_path / "sq.xyz"
    sq.write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
    code, out, err = run(capsys, ["delta", str(sq), "--metric", "cosine"])
    assert code == EXIT_USAGE and out == ""
    assert "invalid choice: 'cosine' (choose from 'euclidean', 'hyperbolic', 'precomputed')" in err


def test_delta_square_corners(capsys, tmp_path):
    sq = tmp_path / "sq.xyz"
    sq.write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
    code, out, _ = run(capsys, ["delta", str(sq), "--metric", "euclidean"])
    doc = json.loads(out)
    assert doc["delta"] == pytest.approx(np.sqrt(2) - 1, abs=1e-6)


def test_delta_too_few_points(capsys, tmp_path):
    few = tmp_path / "few.xyz"
    few.write_text("0 0 0\n1 0 0\n")
    code, _, err = run(capsys, ["delta", str(few)])
    assert code == EXIT_USAGE
    assert "at least 4" in err
    matrix = tmp_path / "few.txt"
    matrix.write_text("0 1 1\n1 0 1\n1 1 0\n")
    code, _, err = run(capsys, ["delta", str(matrix), "--metric", "precomputed"])
    assert code == EXIT_USAGE
    assert "at least 4 points, got 3" in err


def test_delta_repeat_identical_bytes(capsys, tmp_path):
    rng = np.random.default_rng(1)
    pts = tmp_path / "pts.xyz"
    write_xyz(pts, PointCloud(rng.normal(size=(40, 3))))
    _, out1, _ = run(capsys, ["delta", str(pts), "--seed", "7"])
    _, out2, _ = run(capsys, ["delta", str(pts), "--seed", "7"])
    assert out1 == out2


def test_synth_writes_dataset(capsys, tmp_path):
    out = tmp_path / "ds"
    code, stdout, _ = run(capsys, ["synth", "--out-dir", str(out),
                                   "--categories", "2", "--objects", "2",
                                   "--parts", "2", "--points", "128", "--seed", "3"])
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["n_samples"] == 2 * 2 * 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "config" in manifest
    # re-running reproduces identical bytes
    before = {p.name: p.read_bytes() for p in sorted((out / "clouds").iterdir())}
    code, _, _ = run(capsys, ["synth", "--out-dir", str(out),
                              "--categories", "2", "--objects", "2",
                              "--parts", "2", "--points", "128", "--seed", "3"])
    after = {p.name: p.read_bytes() for p in sorted((out / "clouds").iterdir())}
    assert before == after


def test_embed_end_to_end_small(capsys, tmp_path):
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
                 "--parts", "2", "--points", "128", "--seed", "3"])
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, [
        "embed", str(ds / "manifest.json"), "--out-dir", str(out),
        "--epochs", "4", "--dim", "2", "--batch-triplets", "16", "--minibatch", "8"])
    assert code == EXIT_OK
    summary = json.loads(stdout)
    assert set(summary) == {"chain_rate", "norm_order_rate", "triplet_accuracy"}
    loss_lines = (out / "loss.csv").read_text().splitlines()
    assert loss_lines[0].startswith("# config:")
    assert loss_lines[1] == "epoch,l_z,l_t,total"
    assert len(loss_lines) == 2 + 4  # comment + header + one row per epoch
    emb_lines = (out / "embeddings.csv").read_text().splitlines()
    assert emb_lines[1] == "id,category,role,n_points,hnorm,c0,c1"
    assert len(emb_lines) == 2 + 12
    svg = (out / "disk.svg").read_text()
    assert svg.startswith("<svg")
    assert "<circle" in svg and "<rect" in svg
    # markers inside the unit circle: check the disk csv radii
    disk_lines = (out / "disk.csv").read_text().splitlines()[2:]
    for line in disk_lines:
        x, y = map(float, line.split(",")[-2:])
        assert x * x + y * y < 1.0


def test_embed_hnorm_columns_match_scalar_norm(capsys, tmp_path):
    """hnorm in embeddings.csv and disk.csv is the repr of a Python float equal
    bit for bit to the scalar norm of the clipped row."""
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
                 "--parts", "2", "--points", "128", "--seed", "3"])
    out = tmp_path / "run"
    code, _, _ = run(capsys, [
        "embed", str(ds / "manifest.json"), "--out-dir", str(out), "--lr", "0.5",
        "--epochs", "4", "--dim", "2", "--batch-triplets", "16", "--minibatch", "8"])
    assert code == EXIT_OK
    curv = Curvature(-0.14)
    hnorms = {}
    for line in (out / "embeddings.csv").read_text().splitlines()[2:]:
        fields = line.split(",")
        row = np.array([float(v) for v in fields[5:]])
        assert fields[4] == repr(hyperbolic_norm(BallPoint(clip_to_ball(row, curv), curv)))
        hnorms[fields[0]] = fields[4]
    disk = [line.split(",") for line in (out / "disk.csv").read_text().splitlines()[2:]]
    assert {fields[0]: fields[4] for fields in disk} == hnorms


def test_embed_single_category_error(capsys, tmp_path):
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "1",
                 "--parts", "2", "--points", "128"])
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["samples"] = [s for s in doc["samples"] if s["category"] == "chair"]
    doc["categories"] = ["chair"]
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["embed", str(manifest), "--out-dir", str(tmp_path / "x"),
                                "--epochs", "1"])
    assert code == EXIT_USAGE
    assert "categories" in err


@pytest.mark.parametrize("flag,value,field", [
    ("--margin-eps", "-3", "margin_eps"), ("--margin-eps", "0", "margin_eps"),
    ("--margin-eps", "nan", "margin_eps"), ("--margin-eps", "inf", "margin_eps"),
    ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate")])
def test_embed_rejects_bad_trainer_settings(capsys, tmp_path, flag, value, field):
    # a nonpositive margin once trained and wrote outputs; lr nan exited 4 at step 1
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
                 "--parts", "2", "--points", "128"])
    out = tmp_path / "run"
    code, _, err = run(capsys, ["embed", str(ds / "manifest.json"), "--out-dir", str(out),
                                "--epochs", "1", flag, value])
    assert code == EXIT_USAGE
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["whole_without_parts", "parts_in_one_category"])
def test_embed_rejects_untrainable_manifest_promptly(capsys, tmp_path, defect):
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
                 "--parts", "2", "--points", "128"])
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    if defect == "whole_without_parts":
        whole = next(s["id"] for s in doc["samples"] if s["role"] == "whole")
        doc["samples"] = [s for s in doc["samples"] if s.get("parent_id") != whole]
    else:  # both categories stay declared
        doc["samples"] = [s for s in doc["samples"] if s["category"] == "chair"]
    manifest.write_text(json.dumps(doc))
    # a subprocess, so that a trainer that loops forever fails the test
    env = {**os.environ, "PYTHONPATH": str(Path(hypcloud.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "hypcloud", "embed", str(manifest),
                           "--out-dir", str(tmp_path / "x"), "--epochs", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert "triplet mining" in proc.stderr


def test_hypercd_tiny_eps_margin_clouds(capsys, tmp_path):
    # eps = 1e-8 on margin clouds: identical files need no far pair and give 0
    # (the dense matrix exited 4 here); a jittered copy still exits 4
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 3)) * 20.0
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    write_xyz(a, PointCloud(pts))
    write_xyz(b, PointCloud(pts + rng.normal(0.0, 0.05, size=pts.shape)))
    code, out, _ = run(capsys, ["hypercd", str(a), str(a), "--eps", "1e-8"])
    assert code == EXIT_OK
    assert json.loads(out)["distance"] == 0.0
    with np.errstate(invalid="ignore"):
        code, _, err = run(capsys, ["hypercd", str(a), str(b), "--eps", "1e-8"])
    assert code == EXIT_NUMERICAL
    assert "arctanh" in err


def test_gradcheck_passes(capsys):
    code, out, _ = run(capsys, ["gradcheck", "--n-cases", "12", "--seed", "1"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["max_rel_error"] < 1e-5


def test_gradcheck_sign_flip_fails(capsys, monkeypatch):
    grad = losses.geodesic_distance_grad
    monkeypatch.setattr(losses, "geodesic_distance_grad", lambda *a: tuple(-g for g in grad(*a)))
    code, out, err = run(capsys, ["gradcheck", "--n-cases", "3"])
    assert code == EXIT_NUMERICAL
    assert json.loads(out)["worst_case"] == "geodesic"
    assert err.startswith("gradcheck FAILED: geodesic")


def test_gradcheck_zero_cases_usage_error(capsys):
    code, _, err = run(capsys, ["gradcheck", "--n-cases", "0"])
    assert code == EXIT_USAGE
    assert err.startswith("error: n_cases must be >= 1")


def test_unknown_command_usage(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_config_file_defaults_and_flag_override(capsys, tmp_path, clouds):
    a, b = clouds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "l2"}))
    target = tmp_path / "result.json"
    _, out_cfg, _ = run(capsys, ["chamfer", a, b, "--config", str(cfg), "--out", str(target)])
    assert json.loads(out_cfg)["variant"] == "l2"
    assert json.loads(target.read_text())["config"]["variant"] == "l2"
    _, out_flag, _ = run(capsys, ["chamfer", a, b, "--config", str(cfg), "--variant", "l1"])
    assert json.loads(out_flag)["variant"] == "l1"


def test_config_file_equals_form(capsys, tmp_path, clouds):
    a, b = clouds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "l2"}))
    _, spaced, _ = run(capsys, ["chamfer", a, b, "--config", str(cfg)])
    code, joined, _ = run(capsys, ["chamfer", a, b, f"--config={cfg}"])
    assert code == EXIT_OK
    assert joined == spaced
    assert json.loads(joined)["variant"] == "l2"


def test_config_file_unknown_key(capsys, tmp_path, clouds):
    a, b = clouds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "l2", "threads": 2}))
    code, out, err = run(capsys, ["chamfer", a, b, f"--config={cfg}"])
    assert code == EXIT_PARSE
    assert out == ""
    assert "threads" in err


def test_config_keys_of_other_subcommands(capsys, tmp_path, clouds):
    # one file may serve several subcommands; each takes only its own keys
    a, b = clouds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "l2", "threshold": 0.5}))
    target = tmp_path / "result.json"
    code, _, _ = run(capsys, ["metrics", a, b, "--config", str(cfg), "--out", str(target)])
    assert code == EXIT_OK
    config = json.loads(target.read_text())["config"]
    assert config["threshold"] == 0.5
    assert "variant" not in config


@pytest.mark.parametrize("values", [
    {"n_cases": 2.5},            # not an int: gradcheck died in range()
    {"seed": "three"},
    {"seed": True},              # a JSON boolean is no integer
    {"reg_space": "spherical"},  # not one of the flag's choices
    {"variant": 2},
])
def test_config_file_bad_values(capsys, tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run(capsys, ["gradcheck", "--config", str(cfg)])
    assert code == EXIT_PARSE
    assert out == ""
    assert next(iter(values)) in err


def test_config_file_json_error_names_its_line(capsys, tmp_path):
    # the line of the JSON error, not line 1; a file that cannot be opened is line 1
    cfg = tmp_path / "c3.json"
    cfg.write_text('{\n "n_cases": 3,\n "seed": 1,,\n "h": 1e-6\n}\n')
    code, out, err = run(capsys, ["gradcheck", "--config", str(cfg)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: {cfg}:3: bad config file: Expecting property name")
    code, _, err = run(capsys, ["gradcheck", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_PARSE
    assert err.startswith(f"error: {tmp_path / 'missing.json'}:1: bad config file:")


def test_config_file_values_convert_like_flags(capsys, tmp_path, clouds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": "1e-4", "k": -1, "out": None, "variant": "l2"}))
    target = tmp_path / "result.json"
    code, _, _ = run(capsys, ["hypercd", *clouds, "--config", str(cfg), "--out", str(target)])
    assert code == EXIT_OK
    config = json.loads(target.read_text())["config"]
    assert config["eps"] == 1e-4 and config["k"] == -1.0


def test_threads_flag_is_gone(capsys, clouds):
    # so are the flags that only tests used
    for argv in (["chamfer", *clouds, "--threads", "2"], ["chamfer", *clouds, "--method", "brute"],
                 ["gradcheck", "--inject-sign-flip"]):
        code, _, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert next(a for a in argv if a.startswith("--")) in err


def test_out_file_embeds_config(capsys, clouds, tmp_path):
    a, b = clouds
    target = tmp_path / "result.json"
    code, _, _ = run(capsys, ["chamfer", a, b, "--out", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert "config" in doc and doc["config"]["variant"] == "l1"


@pytest.mark.parametrize("command", ["chamfer", "hypercd", "metrics", "delta", "synth", "embed",
                                     "gradcheck"])
def test_out_file_is_the_result_plus_config(capsys, clouds, tmp_path, command):
    # synth, embed and gradcheck once printed their result and ignored --out
    ds = tmp_path / "ds"
    synth = ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
             "--parts", "2", "--points", "128"]
    if command == "embed":
        run(capsys, synth)
    argv = {"delta": ["delta", clouds[0]], "synth": synth,
            "gradcheck": ["gradcheck", "--n-cases", "3"],
            "embed": ["embed", str(ds / "manifest.json"), "--out-dir", str(tmp_path / "run"),
                      "--epochs", "1", "--dim", "2", "--batch-triplets", "8", "--minibatch", "4"],
            }.get(command, [command, *clouds])
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, [*argv, "--out", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    config = doc.pop("config")
    assert doc == json.loads(out)
    assert config["command"] == command and config["out"] == str(target)


def test_failing_gradcheck_still_writes_out(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 0.0)
    target = tmp_path / "result.json"
    code, out, err = run(capsys, ["gradcheck", "--n-cases", "3", "--out", str(target)])
    assert code == EXIT_NUMERICAL
    assert err.startswith("gradcheck FAILED: ") and err.endswith(" > 0.0\n")
    doc = json.loads(target.read_text())
    assert doc.pop("config")["n_cases"] == 3
    assert doc == json.loads(out) and doc["tolerance"] == 0.0


@pytest.mark.parametrize("name,text,argv", [
    ("bad.xyz", b"0 0 0\n1 \xff 0\n0 1 0\n", ["chamfer", "{path}", "{path}"]),
    ("bad.xyz", b"0 0 0\n1 \xff 0\n0 1 0\n0 0 1\n", ["delta", "{path}"]),
    ("bad.json", b'{"seed": 0,\n "categories": ["\xff"], "samples": []}\n',
     ["embed", "{path}", "--out-dir", "{path}-run"]),
    ("bad.json", b'{"seed": 0,\n "h": "\xff"}\n', ["gradcheck", "--config", "{path}"]),
], ids=["chamfer", "delta", "embed", "config"])
def test_non_utf8_input_exits_3_with_line(capsys, tmp_path, name, text, argv):
    # chamfer, delta and embed exited 2 with no line; a --config file crashed
    path = tmp_path / name
    path.write_bytes(text)
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"{path}:2: not UTF-8" in err


def test_delta_on_embedding_csv(capsys, tmp_path):
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "3",
                 "--parts", "2", "--points", "128", "--seed", "1"])
    out = tmp_path / "emb"
    run(capsys, ["embed", str(ds / "manifest.json"), "--out-dir", str(out),
                 "--epochs", "2", "--dim", "3", "--batch-triplets", "8", "--minibatch", "4"])
    code, stdout, _ = run(capsys, ["delta", str(out / "embeddings.csv"),
                                   "--metric", "hyperbolic", "--k", "-0.14"])
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["samples_per_batch"] == 2 * 3 * 3
    assert doc["delta"] >= 0.0


def test_disk_svg_is_well_formed_xml(capsys, tmp_path):
    # "--" in the out-dir and "&" in a category once made disk.svg unparseable
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "2",
                 "--parts", "2", "--points", "128", "--seed", "3"])
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    rename = {"chair": "tables & desks <2>"}
    doc["categories"] = [rename.get(c, c) for c in doc["categories"]]
    for s in doc["samples"]:
        s["category"] = rename.get(s["category"], s["category"])
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "run--a-"
    code, _, _ = run(capsys, ["embed", str(manifest), "--out-dir", str(out), "--epochs", "2",
                              "--dim", "2", "--batch-triplets", "16", "--minibatch", "8"])
    assert code == EXIT_OK
    svg = minidom.parse(str(out / "disk.svg"))
    (comment,) = [n for n in svg.documentElement.childNodes if n.nodeType == n.COMMENT_NODE]
    csv_config = (out / "loss.csv").read_text().splitlines()[0][len("# "):]
    assert html.unescape(comment.data.strip()) == csv_config and str(out) in csv_config
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert "tables & desks <2>" in texts
    titles = [t.firstChild.data for t in svg.getElementsByTagName("title")]
    assert len(titles) == 12 and all(t.split(" hnorm=")[0] in {s["id"] for s in doc["samples"]}
                                     for t in titles)


def test_disk_svg_escapes_every_text():
    rows = [{"id": "a<&>--b", "category": "x & y", "role": role, "n_points": 1,
             "hnorm": 0.5, "x": 0.1, "y": -0.2} for role in ("part", "whole")]
    for comment in ["--", "---", "a--b-", "-", "&#45; &amp; <!-- -->"]:
        text = svgplot.disk_svg(rows, comment=comment)
        doc = minidom.parseString(text)
        (node,) = [n for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE]
        assert html.unescape(node.data[1:-1]) == comment
        assert [t.firstChild.data for t in doc.getElementsByTagName("title")] == [
            "a<&>--b hnorm=0.5000"] * 2
        assert "x & y" in [t.firstChild.data for t in doc.getElementsByTagName("text")]


@pytest.mark.parametrize("defect,line", [
    ("no_samples", 1), ("no_category", 1), ("list", 1), ("entry_not_object", 1),
    ("bad_line", 4), ("not_json", 1)])
def test_embed_unparseable_manifest_exits_3(capsys, tmp_path, defect, line):
    ds = tmp_path / "ds"
    run(capsys, ["synth", "--out-dir", str(ds), "--categories", "2", "--objects", "1",
                 "--parts", "2", "--points", "128"])
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    if defect == "no_samples":
        del doc["samples"]
    elif defect == "no_category":
        del doc["samples"][2]["category"]
    elif defect == "list":
        doc = doc["samples"]
    elif defect == "entry_not_object":
        doc["samples"][0] = "chair-000-part0"
    text = json.dumps(doc, indent=1)
    if defect == "bad_line":
        lines = text.splitlines()
        text = "\n".join(lines[:3] + ["  !!"] + lines[3:]) + "\n"
    elif defect == "not_json":
        text = "samples: []\n"
    manifest.write_text(text)
    code, out, err = run(capsys, ["embed", str(manifest), "--out-dir", str(tmp_path / "x"),
                                  "--epochs", "1"])
    assert code == EXIT_PARSE
    assert out == "" and f"{manifest}:{line}:" in err
    assert not (tmp_path / "x").exists()
