"""Point-cloud container and ASCII XYZ / PLY readers and writers."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
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


def _parsed_cloud(path, rows: list, line_of) -> PointCloud:
    """The cloud of parsed rows; `line_of(i)` finds row i's line for an error."""
    points = np.array(rows, dtype=np.float64)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise CloudParseError(path, line_of(i), f"non-finite coordinate in {points[i].tolist()}")
    return PointCloud(points)


def _xyz_point_line(path, row: int) -> int:
    """The line number of point `row` (0-based) of an XYZ file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (n for n, raw in enumerate(fh, start=1) if raw.split("#", 1)[0].strip())
        return next(itertools.islice(lines, row, None))


def read_xyz(path) -> PointCloud:
    """Read an ASCII XYZ file: one 'x y z' triple per line, '#' comments."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 3:
                raise CloudParseError(path, lineno, f"expected 3 coordinates, got {len(fields)}")
            try:
                rows.append([float(fields[0]), float(fields[1]), float(fields[2])])
            except ValueError as exc:
                raise CloudParseError(path, lineno, f"bad coordinate: {exc}") from None
    if not rows:
        raise CloudParseError(path, 1, "file contains no points")
    return _parsed_cloud(path, rows, lambda i: _xyz_point_line(path, i))


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
            if len(fields) != 3:
                raise CloudParseError(path, lineno, "malformed element declaration")
            try:
                count = int(fields[2])
            except ValueError:
                raise CloudParseError(path, lineno, f"bad element count {fields[2]!r}") from None
            current = fields[1]
            elements.append((current, count))
            props[current] = []
        elif fields[0] == "property":
            if current is None:
                raise CloudParseError(path, lineno, "property before any element")
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

    body_start = lineno + 1
    cursor = 0
    body = lines[lineno:]
    rows = []
    for name, count in elements:
        if name != "vertex":
            cursor += count
            continue
        first_line = body_start + cursor
        for i in range(count):
            if cursor + i >= len(body):
                raise CloudParseError(path, body_start + cursor + i, "unexpected end of file")
            fields = body[cursor + i].split()
            if len(fields) < len(vprops):
                raise CloudParseError(
                    path, body_start + cursor + i,
                    f"expected {len(vprops)} vertex fields, got {len(fields)}")
            try:
                rows.append([float(fields[c]) for c in cols])
            except ValueError as exc:
                raise CloudParseError(path, body_start + cursor + i, f"bad coordinate: {exc}") from None
        cursor += count
    if not rows:
        raise CloudParseError(path, lineno, "vertex element is empty")
    return _parsed_cloud(path, rows, lambda i: first_line + i)


def read_cloud(path) -> PointCloud:
    """Dispatch on file suffix: .ply goes to the PLY reader, the rest to XYZ."""
    if Path(path).suffix.lower() == ".ply":
        return read_ply(path)
    return read_xyz(path)
