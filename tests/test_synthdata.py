import dataclasses
import itertools
from xml.dom import minidom

import numpy as np
import pytest

from hypcloud import (CloudParseError, chamfer_distance, generate_dataset, load_manifest,
                      sample_primitive, save_manifest, svgplot)
from hypcloud.synthdata import _UNSAFE_CATEGORY, _UNSAFE_ID, CATEGORY_TEMPLATES, HierarchyManifest


# --- primitives --------------------------------------------------------------

def test_disk_points_in_plane():
    cloud = sample_primitive("disk", (1.0,), 1000, seed=0)
    pts = cloud.points
    assert np.all(pts[:, 2] == 0.0)
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0)


def test_primitive_deterministic():
    a = sample_primitive("cylinder", (0.1, 0.5), 500, seed=3)
    b = sample_primitive("cylinder", (0.1, 0.5), 500, seed=3)
    assert np.array_equal(a.points, b.points)
    c = sample_primitive("cylinder", (0.1, 0.5), 500, seed=4)
    assert not np.array_equal(a.points, c.points)


def test_box_face_counts_binomial():
    n = 6000
    cloud = sample_primitive("box", (1.0, 1.0, 1.0), n, seed=1)
    pts = cloud.points
    counts = []
    for axis in range(3):
        for sign in (0.5, -0.5):
            counts.append(int(np.sum(pts[:, axis] == sign)))
    assert sum(counts) == n
    # binomial oracle: each face has p = 1/6
    sigma = np.sqrt(n * (1 / 6) * (5 / 6))
    for count in counts:
        assert abs(count - n / 6) <= 3 * sigma


def test_cylinder_on_lateral_surface():
    cloud = sample_primitive("cylinder", (0.5, 2.0), 400, seed=2)
    radii = np.linalg.norm(cloud.points[:, :2], axis=1)
    assert np.allclose(radii, 0.5, atol=1e-12)
    assert np.all(np.abs(cloud.points[:, 2]) <= 1.0)


def test_primitive_validation():
    with pytest.raises(ValueError):
        sample_primitive("disk", (0.0,), 10, seed=0)
    with pytest.raises(ValueError):
        sample_primitive("disk", (1.0,), 0, seed=0)
    with pytest.raises(ValueError):
        sample_primitive("sphere", (1.0,), 10, seed=0)


# --- dataset -----------------------------------------------------------------

def test_default_shape_counts():
    man = generate_dataset(seed=0)
    assert len(man.samples) == 5 * 20 * 4
    assert len(man.categories) == 5
    assert len(man.wholes()) == 100


def test_subset_chain_exact(small_manifest):
    parts_of = small_manifest.parts_by_whole()
    by_id = {s.id: s for s in small_manifest.samples}
    for whole_id, parts in parts_of.items():
        whole = by_id[whole_id]
        sizes = [p.n_points for p in parts]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        for part in parts:
            assert np.array_equal(part.cloud.points, whole.cloud.points[: part.n_points])


def test_dataset_deterministic_and_seed_sensitive():
    a = generate_dataset(2, 2, 2, 128, seed=1)
    b = generate_dataset(2, 2, 2, 128, seed=1)
    c = generate_dataset(2, 2, 2, 128, seed=2)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.id == sb.id
        assert np.array_equal(sa.cloud.points, sb.cloud.points)
    assert [s.id for s in a.samples] == [s.id for s in c.samples]
    assert not all(np.array_equal(sa.cloud.points, sc.cloud.points)
                   for sa, sc in zip(a.samples, c.samples))


def test_dataset_validation():
    with pytest.raises(ValueError):
        generate_dataset(n_categories=1)
    with pytest.raises(ValueError):
        generate_dataset(n_categories=99)
    with pytest.raises(ValueError):
        generate_dataset(parts_per_object=1)
    with pytest.raises(ValueError):
        generate_dataset(parts_per_object=40, points_whole=40)


def test_category_separability():
    man = generate_dataset(5, 4, 2, 256, seed=42)
    wholes = man.wholes()
    intra, inter = [], []
    for a, b in itertools.combinations(wholes, 2):
        d = chamfer_distance(a.cloud, b.cloud, "l1")
        (intra if a.category == b.category else inter).append(d)
    assert np.mean(inter) > np.mean(intra)


def test_all_templates_cover_categories():
    for name, comps in CATEGORY_TEMPLATES.items():
        assert len(comps) >= 2, name


# --- persistence -------------------------------------------------------------

def test_manifest_roundtrip(tmp_path, small_manifest):
    path = save_manifest(small_manifest, tmp_path / "ds")
    back = load_manifest(path)
    assert back.seed == small_manifest.seed
    assert back.categories == small_manifest.categories
    assert [s.id for s in back.samples] == [s.id for s in small_manifest.samples]
    for sa, sb in zip(small_manifest.samples, back.samples):
        assert np.array_equal(sa.cloud.points, sb.cloud.points)


def test_manifest_validates_on_load(tmp_path, small_manifest):
    import json
    path = save_manifest(small_manifest, tmp_path / "ds")
    doc = json.loads(path.read_text())
    doc["samples"][0]["parent_id"] = "nonexistent"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_manifest(path)


def test_manifest_not_utf8_reports_line(tmp_path, small_manifest):
    path = save_manifest(small_manifest, tmp_path / "ds")
    lines = path.read_bytes().split(b"\n")
    line = next(i for i, text in enumerate(lines, start=1) if b'"chair"' in text)
    lines[line - 1] = lines[line - 1].replace(b"chair", b"ch\xffair")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CloudParseError, match="not UTF-8") as err:
        load_manifest(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


def test_manifest_invariant_checks(small_manifest):
    # duplicated id
    samples = list(small_manifest.samples)
    with pytest.raises(ValueError):
        HierarchyManifest(samples=tuple(samples + [samples[0]]),
                          categories=small_manifest.categories, seed=0)
    # single category
    chairs = [s for s in samples if s.category == "chair"]
    with pytest.raises(ValueError):
        HierarchyManifest(samples=tuple(chairs), categories=("chair",), seed=0)
    # two categories declared, but every part in one of them: no negatives
    with pytest.raises(ValueError, match="2 categories"):
        HierarchyManifest(samples=tuple(chairs), categories=small_manifest.categories, seed=0)
    # a whole without parts: no positives
    whole = next(s for s in samples if s.role == "whole")
    with pytest.raises(ValueError, match="no parts"):
        HierarchyManifest(samples=tuple(s for s in samples if s.parent_id != whole.id),
                          categories=small_manifest.categories, seed=0)


@pytest.mark.parametrize("sample_id", ["chair-000,x", "chair\n000", "chair\r000", "#chair-000",
                                       "chairs/000", "chairs\\000", 7, "ch\x01air-000",
                                       "chair\x0c000", "chair\ud800", "chair\uffff"])
def test_manifest_rejects_unsafe_ids(small_manifest, sample_id):
    # a comma or a line break shifts the CSV rows, a leading "#" makes the
    # row a comment, a path separator escapes clouds/{id}.xyz, and a
    # character that XML 1.0 forbids breaks disk.svg
    samples = list(small_manifest.samples)
    i = next(i for i, s in enumerate(samples) if s.role == "part")
    samples[i] = dataclasses.replace(samples[i], id=sample_id)
    with pytest.raises(ValueError, match="sample id"):
        HierarchyManifest(samples=samples, categories=small_manifest.categories, seed=0)


@pytest.mark.parametrize("category", ["tables, desks", "tables\ndesks", "tables\rdesks",
                                      "tables\x00desks", "tables\x1b", "\udfff", "\ufffe"])
def test_manifest_rejects_unsafe_categories(small_manifest, category):
    old = small_manifest.categories[0]
    samples = [dataclasses.replace(s, category=category) if s.category == old else s
               for s in small_manifest.samples]
    with pytest.raises(ValueError, match="category"):
        HierarchyManifest(samples=samples, categories=small_manifest.categories, seed=0)
    with pytest.raises(ValueError, match="category"):  # declared only
        HierarchyManifest(samples=small_manifest.samples,
                          categories=(*small_manifest.categories, category), seed=0)


def test_manifest_keeps_safe_punctuation(tmp_path, small_manifest):
    # "#" past the first character, "&" and spaces are safe in CSV rows
    # and file names, and survive a save and load
    rename = {s.id: f"{s.id} #1 & co" for s in small_manifest.samples}
    samples = [dataclasses.replace(s, id=rename[s.id], category=f"{s.category} & co",
                                   parent_id=rename.get(s.parent_id)) for s in small_manifest.samples]
    manifest = HierarchyManifest(samples=samples, seed=0,
                                 categories=tuple(f"{c} & co" for c in small_manifest.categories))
    back = load_manifest(save_manifest(manifest, tmp_path / "ds"))
    assert [(s.id, s.category, s.parent_id) for s in back.samples] == [
        (s.id, s.category, s.parent_id) for s in manifest.samples]


def test_every_accepted_name_makes_well_formed_svg():
    """disk.svg parses for an id and a category holding every character a
    manifest accepts (each non-BMP one stands for the rest)."""
    chars = [chr(c) for c in (*range(0x10000), 0x10000, 0x10FFFF)]
    sample_id = "".join(c for c in chars if not _UNSAFE_ID.search("x" + c))
    category = "".join(c for c in chars if not _UNSAFE_CATEGORY.search(c))
    rows = [{"id": sample_id, "category": category, "role": "whole", "n_points": 1,
             "hnorm": 0.5, "x": 0.1, "y": -0.2}]
    doc = minidom.parseString(svgplot.disk_svg(rows, comment=sample_id + category))
    (title,) = doc.getElementsByTagName("title")
    assert title.firstChild.data == f"{sample_id} hnorm=0.5000"
    assert category in [t.firstChild.data for t in doc.getElementsByTagName("text")]
