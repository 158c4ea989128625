#!/usr/bin/env python3
"""Print digests of every CLI output, to show whether a change moves any bit.

    PYTHONPATH=src python3 scripts/cli_digest.py

Writes seeded inputs into a fresh temporary directory and runs, from there
with relative paths, the criterion-10 commands plus a default `gradcheck`,
`delta --metric precomputed` (one sampled run, one exact run and one
asymmetric matrix), `delta` on an embedding CSV and `embed --dim 16`, each
with `--out`.  Prints one line per command, `<label> <exit code> <stdout
digest> <stderr digest>`, then one line per file it leaves, `<path> <digest>`,
in sorted order (inputs, `synth`'s manifest and clouds, `embed`'s CSVs and
SVG, and the `--out` files).  A digest is the first 16 hex digits of sha256.
`synth`'s JSON and every `# config:` line hold the paths, which are relative,
so two trees print the same lines iff their outputs are bit-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from hypcloud import PointCloud, write_xyz
from hypcloud.cli import main as cli_main

STAR = "0 1 1 1 1\n1 0 2 2 2\n1 2 0 2 2\n1 2 2 0 2\n1 2 2 2 0\n"

COMMANDS = [
    ("chamfer", ["chamfer", "a.xyz", "b.xyz", "--variant", "l2"]),
    ("hypercd", ["hypercd", "a.xyz", "b.xyz", "--k", "-0.14"]),
    ("metrics", ["metrics", "a.xyz", "b.xyz", "--threshold", "0.25"]),
    ("delta", ["delta", "sq.xyz", "--metric", "euclidean", "--seed", "4"]),
    ("synth", ["synth", "--out-dir", "ds", "--categories", "2", "--objects", "2",
               "--parts", "2", "--points", "128", "--seed", "9"]),
    ("embed", ["embed", "ds/manifest.json", "--out-dir", "run", "--epochs", "3", "--dim", "2",
               "--batch-triplets", "16", "--minibatch", "8"]),
    ("gradcheck", ["gradcheck", "--n-cases", "9", "--seed", "2"]),
    ("gradcheck-default", ["gradcheck"]),
    ("delta-matrix-sampled", ["delta", "m.txt", "--metric", "precomputed", "--batch", "6",
                              "--trials", "2", "--seed", "3"]),
    ("delta-matrix-exact", ["delta", "star.txt", "--metric", "precomputed"]),
    ("delta-csv", ["delta", "run/embeddings.csv", "--metric", "hyperbolic"]),
    # rows 5 and 7 lie outside the one sampled batch (rows 0, 2, 9 and 10)
    ("delta-asymmetric", ["delta", "asym.txt", "--metric", "precomputed", "--batch", "4",
                          "--trials", "1"]),
    ("embed-dim16", ["embed", "ds/manifest.json", "--out-dir", "run16", "--epochs", "3",
                     "--batch-triplets", "16", "--minibatch", "8"]),
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _write_matrix(path, pts: np.ndarray, asymmetric=None):
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    if asymmetric is not None:
        d[asymmetric] += 0.5
    Path(path).write_text("".join(" ".join(map(repr, row)) + "\n" for row in d.tolist()))


def write_inputs():
    """The seeded input files, in the current directory."""
    rng = np.random.default_rng(1000)
    write_xyz("a.xyz", PointCloud(rng.normal(size=(60, 3))))
    write_xyz("b.xyz", PointCloud(rng.normal(size=(45, 3))))
    Path("sq.xyz").write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
    _write_matrix("m.txt", rng.normal(size=(20, 4)))
    _write_matrix("asym.txt", rng.normal(size=(12, 3)), asymmetric=(5, 7))
    Path("star.txt").write_text(STAR)


def digest_lines() -> list[str]:
    """Run every command from the current directory; return the digest lines."""
    write_inputs()
    lines = []
    for label, argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([*argv, "--out", f"{label}.json"])
        lines.append(f"{label} {code} {digest(out.getvalue().encode())} "
                     f"{digest(err.getvalue().encode())}")
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            lines.append(f"{path.as_posix()} {digest(path.read_bytes())}")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            lines = digest_lines()
        finally:
            os.chdir(cwd)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
