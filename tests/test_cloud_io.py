import warnings

import numpy as np
import pytest

from hypcloud import CloudParseError, PointCloud, read_cloud, read_ply, read_xyz, write_xyz
from hypcloud.cloud import _read_embedding_csv, _read_matrix


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.inf, 0.0]]))
    assert len(PointCloud(np.zeros((4, 3)))) == 4


def test_xyz_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(200, 3)) * rng.uniform(1e-6, 1e6, size=(200, 1)))
    path = tmp_path / "cloud.xyz"
    write_xyz(path, cloud)
    back = read_xyz(path)
    assert np.array_equal(cloud.points, back.points)


def test_xyz_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n  1 2 3   # trailing\n\n\t4\t5\t6\n")
    cloud = read_xyz(path)
    assert np.array_equal(cloud.points, np.array([[1.0, 2, 3], [4, 5, 6]]))


def test_xyz_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n4 five 6\n")
    with pytest.raises(CloudParseError) as err:
        read_xyz(path)
    assert err.value.line == 2
    path.write_text("1 2 3\n1 2\n")
    with pytest.raises(CloudParseError) as err:
        read_xyz(path)
    assert err.value.line == 2
    # errors come in file order: a bad token above a short row is reported first
    path.write_text("1 2 3\n4 five 6\n7 8\n")
    with pytest.raises(CloudParseError, match="five") as err:
        read_xyz(path)
    assert err.value.line == 2
    path.write_text("# only comments\n")
    with pytest.raises(CloudParseError):
        read_xyz(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_xyz_non_finite_reports_line(tmp_path, token):
    path = tmp_path / "nf.xyz"
    path.write_text(f"1 2 3\n# comment\n\n4 {token} 6\n7 8 nan\n")
    with pytest.raises(CloudParseError, match="non-finite") as err:
        read_xyz(path)
    assert err.value.line == 4
    assert str(err.value).startswith(f"{path}:4:")


PLY_BASIC = """ply
format ascii 1.0
comment demo
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""

PLY_EXTRA = """ply
format ascii 1.0
element vertex 2
property float x
property float y
property float z
property uchar red
element face 1
property list uchar int vertex_indices
end_header
0 0 1 255
2 0 0 255
3 0 1 2
"""


def test_ply_basic(tmp_path):
    path = tmp_path / "a.ply"
    path.write_text(PLY_BASIC)
    cloud = read_ply(path)
    assert np.array_equal(cloud.points, np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))


def test_ply_skips_extras_with_warning(tmp_path):
    path = tmp_path / "b.ply"
    path.write_text(PLY_EXTRA)
    with pytest.warns(UserWarning):
        cloud = read_ply(path)
    assert np.array_equal(cloud.points, np.array([[0.0, 0, 1], [2, 0, 0]]))


def test_ply_rejects_binary_and_garbage(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(CloudParseError):
        read_ply(path)
    path.write_text("not a ply\n")
    with pytest.raises(CloudParseError):
        read_ply(path)


@pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
def test_ply_non_finite_reports_line(tmp_path, token):
    path = tmp_path / "nf.ply"
    path.write_text(PLY_EXTRA.replace("2 0 0 255", f"2 {token} 0 255"))
    with pytest.raises(CloudParseError, match="non-finite") as err, pytest.warns(UserWarning):
        read_ply(path)
    assert err.value.line == 12


@pytest.mark.parametrize("header, line", [
    (PLY_BASIC.replace("property float y", "property"), 6),
    (PLY_EXTRA.replace("element face 1", "element face -1"), 8),
    (PLY_EXTRA.replace("element vertex 2", "element vertex -2"), 3),
    (PLY_EXTRA.replace("element vertex 2", "element vertex two"), 3),
], ids=["bare-property", "negative-face-count", "negative-vertex-count", "word-count"])
def test_ply_header_errors_report_line(tmp_path, header, line):
    path = tmp_path / "h.ply"
    path.write_text(header)
    with pytest.raises(CloudParseError) as err:
        read_ply(path)
    assert err.value.line == line


def test_ply_rejects_repeated_element(tmp_path):
    # Property lists were keyed by element name, so the second declaration
    # replaced the first one's columns: this file read as [[3, 2, 1], [6, 5, 4]].
    path = tmp_path / "r.ply"
    path.write_text("ply\nformat ascii 1.0\n"
                    "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
                    "element vertex 1\nproperty float z\nproperty float y\nproperty float x\n"
                    "end_header\n1 2 3\n4 5 6\n")
    with pytest.raises(CloudParseError, match="declared twice") as err:
        read_ply(path)
    assert err.value.line == 7


@pytest.mark.parametrize("header, line", [
    (PLY_BASIC.replace("format ascii 1.0\n", ""), 3),
    (PLY_BASIC.replace("format ascii 1.0\n", "").replace("end_header", "format ascii 1.0\nend_header"), 3),
    ("ply\ncomment no elements\nend_header\n", 3),
], ids=["no-format", "format-after-elements", "no-elements"])
def test_ply_requires_format_before_elements(tmp_path, header, line):
    path = tmp_path / "f.ply"
    path.write_text(header)
    with pytest.raises(CloudParseError, match="format ascii") as err:
        read_ply(path)
    assert err.value.line == line


def test_ply_truncated_body_reports_line(tmp_path):
    path = tmp_path / "t.ply"
    path.write_text(PLY_BASIC.replace("0 1 0\n", ""))
    with pytest.raises(CloudParseError, match="end of file") as err:
        read_ply(path)
    assert err.value.line == 11


# Each format's template, its failing row and its short row; `{row}` sits on the given line.
READER_CASES = {
    "xyz": (read_xyz, "1 2 3\n# comment\n\n{row}\n7 8 9\n", "4 {token} 6", "4 5", 4),
    "ply": (read_ply, PLY_EXTRA.replace("2 0 0 255", "{row}"), "2 {token} 0 255", "2 0 0", 12),
    "matrix": (_read_matrix, "# d\n0 1 1 1\n1 0 2 2\n{row}\n1 2 2 0\n", "1 2 0 {token}", "1 2 0", 4),
    "csv": (_read_embedding_csv, "# config: {{}}\nid,c0,c1,c2\na,1,2,3\n{row}\nc,7,8,9\n",
            "b,4,{token},6", "b,4,5", 4),
}


@pytest.mark.parametrize("kind, message", [
    ("short", "expected"), ("five", "bad"), ("nan", "non-finite"), ("inf", "non-finite"),
    ("1e400", "non-finite"),
])
@pytest.mark.parametrize("fmt", sorted(READER_CASES))
def test_every_reader_reports_line(tmp_path, fmt, kind, message):
    reader, template, row, short, line = READER_CASES[fmt]
    text = template.format(row=short if kind == "short" else row.format(token=kind))
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    with pytest.raises(CloudParseError, match=message) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reader(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("fmt", sorted(READER_CASES))
def test_every_reader_reports_non_utf8_line(tmp_path, fmt, newline):
    """A byte that is not UTF-8 is a parse error at its line; CRLF reads as LF does."""
    reader, template, row, _, line = READER_CASES[fmt]
    text = template.format(row=row.format(token="X")).replace("\n", newline).encode()
    paths = {name: tmp_path / f"{name}.{fmt}" for name in ("lf", "good", "bad")}
    paths["lf"].write_bytes(text.replace(b"X", b"5").replace(b"\r\n", b"\n"))
    paths["good"].write_bytes(text.replace(b"X", b"5"))
    paths["bad"].write_bytes(text.replace(b"X", b"\xff"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lf, good = (getattr(v, "points", v) for v in map(reader, (paths["lf"], paths["good"])))
        assert np.array_equal(lf, good)
        with pytest.raises(CloudParseError, match="not UTF-8") as err:
            reader(paths["bad"])
    assert str(err.value).startswith(f"{paths['bad']}:{line}: ")


@pytest.mark.parametrize("row, message", [("4 five 6", "bad"), ("4 5", "expected"),
                                          ("4 nan 6", "non-finite")])
@pytest.mark.parametrize("at", [1024, 1025, 1500])
def test_errors_past_the_first_block_report_line(tmp_path, row, message, at):
    """Tokens are converted in blocks of 3072 (1024 XYZ rows); lines stay exact across them."""
    lines = ["1 2 3"] * 2000
    lines[at - 1] = row
    path = tmp_path / "big.xyz"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CloudParseError, match=message) as err:
        read_xyz(path)
    assert err.value.line == at


def test_non_utf8_past_the_first_read_reports_line(tmp_path):
    lines = [b"1 2 3"] * 20000
    lines[15000] = b"4 \xff 6"
    path = tmp_path / "big.xyz"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(CloudParseError, match="not UTF-8") as err:
        read_xyz(path)
    assert err.value.line == 15001


def test_readers_agree_bit_for_bit(tmp_path):
    """The same points written as XYZ, PLY and embedding CSV read back exactly."""
    rng = np.random.default_rng(3)
    points = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-6, 6, size=(2000, 1))
    write_xyz(tmp_path / "p.xyz", PointCloud(points))
    rows = [" ".join(map(repr, p)) for p in points.tolist()]
    (tmp_path / "p.ply").write_text(
        "ply\nformat ascii 1.0\nelement vertex 2000\nproperty double x\nproperty double y\n"
        "property double z\nproperty uchar red\nelement face 1\n"
        "property list uchar int vertex_indices\nend_header\n"
        + "".join(f"{r} 7\n" for r in rows) + "3 0 1 2\n")
    (tmp_path / "p.csv").write_text(
        "# config: {}\nid,category,role,n_points,hnorm,c0,c1,c2\n"
        + "".join(f"s{i},cat,part,64,0.5,{r.replace(' ', ',')}\n" for i, r in enumerate(rows)))
    assert np.array_equal(read_xyz(tmp_path / "p.xyz").points, points)
    with pytest.warns(UserWarning):
        assert np.array_equal(read_ply(tmp_path / "p.ply").points, points)
    assert np.array_equal(_read_embedding_csv(tmp_path / "p.csv"), points)
    matrix = np.abs(points[:200, :1] - points[:200, :1].T)
    (tmp_path / "m.txt").write_text("".join(" ".join(map(repr, r)) + "\n" for r in matrix.tolist()))
    assert np.array_equal(_read_matrix(tmp_path / "m.txt"), matrix)


def test_read_cloud_dispatch(tmp_path):
    xyz = tmp_path / "d.xyz"
    xyz.write_text("1 2 3\n")
    ply = tmp_path / "d.ply"
    ply.write_text(PLY_BASIC)
    assert len(read_cloud(xyz)) == 1
    assert len(read_cloud(ply)) == 3
