"""Point-cloud container and ASCII XYZ / PLY readers and writers."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np


class CloudParseError(ValueError):
    """Malformed cloud file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3-D points, shape (n, 3), n >= 1, all finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _float_rows(path, rows, cols, width: int, what: str) -> np.ndarray:
    """The float64 array of columns `cols` of `(line number, fields)` rows.

    A row with fewer than `width` fields, a token `float` rejects and a non-finite
    value raise CloudParseError at their line; the first two come in file order.
    """
    take = itemgetter(*cols) if len(cols) > 1 else lambda fields: (fields[cols[0]],)
    blocks, tokens, lines = [], [], []
    try:
        for line, fields in rows:
            if len(fields) < width:
                raise CloudParseError(path, line, f"expected at least {width} fields, got {len(fields)}")
            tokens += take(fields)
            lines.append(line)
            if len(tokens) >= 3072:  # convert in blocks to bound the token strings held at once
                blocks.append(np.array(tokens, dtype=np.float64))
                tokens.clear()
        blocks.append(np.array(tokens, dtype=np.float64))
    except ValueError:  # a failed conversion or a malformed row: an earlier bad token comes first
        for i, token in enumerate(tokens, sum(map(len, blocks))):
            try:
                float(token)
            except ValueError as exc:
                raise CloudParseError(path, lines[i // len(cols)], f"bad {what}: {exc}") from None
        raise
    values = np.concatenate(blocks)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CloudParseError(path, lines[i // len(cols)], f"non-finite {what} {values[i]}")
    return values.reshape(len(lines), len(cols))


def _text_rows(fh):
    """`(line number, fields)` of each whitespace-separated row; '#' starts a comment."""
    for line, raw in enumerate(fh, start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield line, fields


def read_xyz(path) -> PointCloud:
    """Read an ASCII XYZ file: one 'x y z' triple per line, '#' comments."""
    with open(path, "r", encoding="utf-8") as fh:
        points = _float_rows(path, _text_rows(fh), (0, 1, 2), 3, "coordinate")
    if not len(points):
        raise CloudParseError(path, 1, "file contains no points")
    return PointCloud(points)


def write_xyz(path, cloud: PointCloud):
    """Write an ASCII XYZ file with shortest round-trip decimal formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in cloud.points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY file's vertex x/y/z columns.

    Only 'format ascii' files are accepted.  Non-vertex elements and extra
    vertex properties are skipped with a warning.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(path, 1, "not a PLY file (missing 'ply' magic)")

    elements: list[tuple[str, int]] = []  # (name, count) in declaration order
    props: dict[str, list[str]] = {}
    lineno = 1
    current = None
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.strip().split()
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "format":
            if len(fields) < 2 or fields[1] != "ascii":
                raise CloudParseError(path, lineno, "only 'format ascii' PLY is supported")
        elif fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdecimal():
                raise CloudParseError(path, lineno, f"malformed element declaration {raw.strip()!r}")
            current = fields[1]
            elements.append((current, int(fields[2])))
            props[current] = []
        elif fields[0] == "property":
            if current is None:
                raise CloudParseError(path, lineno, "property before any element")
            if len(fields) < 3:
                raise CloudParseError(path, lineno, "malformed property declaration")
            if fields[1] == "list":
                props[current].append("__list__")
            else:
                props[current].append(fields[-1])
        elif fields[0] == "end_header":
            break
    else:
        raise CloudParseError(path, lineno, "missing end_header")

    names = [name for name, _ in elements]
    if "vertex" not in names:
        raise CloudParseError(path, lineno, "no vertex element declared")
    skipped = [name for name in names if name != "vertex"]
    if skipped:
        warnings.warn(f"{path}: skipping non-vertex PLY elements {skipped}")
    vprops = props["vertex"]
    try:
        cols = [vprops.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise CloudParseError(path, lineno, "vertex element lacks x/y/z properties") from None
    if len(vprops) > 3:
        extra = [p for p in vprops if p not in ("x", "y", "z")]
        warnings.warn(f"{path}: ignoring vertex properties {extra}")

    def vertex_rows(start=lineno):  # lines[lineno] is the first body line
        for name, count in elements:
            if name == "vertex":
                for n in range(start, min(start + count, len(lines))):
                    yield n + 1, lines[n].split()
                if start + count > len(lines):
                    raise CloudParseError(path, len(lines) + 1, "unexpected end of file")
            start += count

    points = _float_rows(path, vertex_rows(), cols, len(vprops), "coordinate")
    if not len(points):
        raise CloudParseError(path, lineno, "vertex element is empty")
    return PointCloud(points)


def read_cloud(path) -> PointCloud:
    """Dispatch on file suffix: .ply goes to the PLY reader, the rest to XYZ."""
    if Path(path).suffix.lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)


def _read_matrix(path) -> np.ndarray:
    """A square whitespace-separated distance matrix, '#' comments allowed."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(_text_rows(fh))  # every field is kept, so streaming saves nothing
    matrix = _float_rows(path, rows, range(len(rows)), len(rows), "matrix entry")
    for line, fields in rows:
        if len(fields) > len(rows):
            raise CloudParseError(
                path, line, f"{len(fields)} entries in a row of a {len(rows)}-row matrix")
    return matrix


def _read_embedding_csv(path) -> np.ndarray:
    """Coordinate columns (c0..) of an embedding CSV written by `hypcloud embed`."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((line, raw.rstrip("\n").split(",")) for line, raw in enumerate(fh, start=1)
                if raw != "\n" and not raw.startswith("#"))
        line, header = next(rows, (1, []))
        cols = [i for i, name in enumerate(header) if name.startswith("c") and name[1:].isdigit()]
        if not cols:
            raise CloudParseError(path, line, "no coordinate columns c0..c{d-1} found")
        return _float_rows(path, rows, cols, max(cols) + 1, "coordinate")
