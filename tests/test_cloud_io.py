import numpy as np
import pytest

from hypcloud import CloudParseError, PointCloud, read_cloud, read_ply, read_xyz, write_xyz


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
    path.write_text("1 2\n")
    with pytest.raises(CloudParseError):
        read_xyz(path)
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
    with pytest.raises(CloudParseError, match="non-finite") as err:
        read_ply(path)
    assert err.value.line == 12


def test_read_cloud_dispatch(tmp_path):
    xyz = tmp_path / "d.xyz"
    xyz.write_text("1 2 3\n")
    ply = tmp_path / "d.ply"
    ply.write_text(PLY_BASIC)
    assert len(read_cloud(xyz)) == 1
    assert len(read_cloud(ply)) == 3
