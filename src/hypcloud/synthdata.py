"""Deterministic synthetic part-whole point-cloud generator.

Each object is assembled from primitive surfaces (boxes, disks, cylinders)
laid out per category template, then jittered per object (uniform scale and
a rotation about the vertical axis).  Parts are cumulative prefixes of the
whole's point array, so part point sets are exact subsets of the whole and
part sizes increase strictly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import PointCloud, read_xyz, write_xyz

ROLES = ("part", "whole")

# Component layouts: (kind, params, offset).  Components are ordered so that
# cumulative prefixes read as a semantic build-up (legs, then support, then
# top).  Dimensions are in scene units; objects are roughly unit scale.
CATEGORY_TEMPLATES: dict[str, list[tuple[str, tuple[float, ...], tuple[float, float, float]]]] = {
    "table": [
        ("cylinder", (0.04, 0.7), (-0.4, -0.4, 0.35)),
        ("cylinder", (0.04, 0.7), (0.4, -0.4, 0.35)),
        ("cylinder", (0.04, 0.7), (-0.4, 0.4, 0.35)),
        ("cylinder", (0.04, 0.7), (0.4, 0.4, 0.35)),
        ("box", (1.0, 1.0, 0.06), (0.0, 0.0, 0.73)),
    ],
    "chair": [
        ("cylinder", (0.035, 0.45), (-0.2, -0.2, 0.225)),
        ("cylinder", (0.035, 0.45), (0.2, -0.2, 0.225)),
        ("cylinder", (0.035, 0.45), (-0.2, 0.2, 0.225)),
        ("cylinder", (0.035, 0.45), (0.2, 0.2, 0.225)),
        ("box", (0.45, 0.45, 0.05), (0.0, 0.0, 0.475)),
        ("box", (0.45, 0.05, 0.5), (0.0, -0.2, 0.75)),
    ],
    "lamp": [
        ("disk", (0.25,), (0.0, 0.0, 0.0)),
        ("cylinder", (0.025, 1.0), (0.0, 0.0, 0.5)),
        ("cylinder", (0.2, 0.25), (0.0, 0.0, 1.05)),
    ],
    "stool": [
        ("cylinder", (0.04, 0.5), (0.25, 0.0, 0.25)),
        ("cylinder", (0.04, 0.5), (-0.125, 0.2165, 0.25)),
        ("cylinder", (0.04, 0.5), (-0.125, -0.2165, 0.25)),
        ("disk", (0.3,), (0.0, 0.0, 0.5)),
    ],
    "shelf": [
        ("box", (0.05, 0.3, 1.0), (-0.45, 0.0, 0.5)),
        ("box", (0.05, 0.3, 1.0), (0.45, 0.0, 0.5)),
        ("box", (0.9, 0.3, 0.04), (0.0, 0.0, 0.1)),
        ("box", (0.9, 0.3, 0.04), (0.0, 0.0, 0.5)),
        ("box", (0.9, 0.3, 0.04), (0.0, 0.0, 0.9)),
    ],
}


@dataclass(frozen=True)
class SampleRecord:
    id: str
    category: str
    role: str
    n_points: int
    parent_id: str | None
    cloud: PointCloud

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.n_points != len(self.cloud):
            raise ValueError(f"n_points {self.n_points} != cloud size {len(self.cloud)}")
        if (self.role == "part") != (self.parent_id is not None):
            raise ValueError("parts and only parts carry a parent_id")


@dataclass(frozen=True)
class HierarchyManifest:
    samples: tuple[SampleRecord, ...]
    categories: tuple[str, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "categories", tuple(self.categories))
        self.validate()

    def validate(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be unique")
        if len(self.categories) < 2:
            raise ValueError("at least 2 categories are required (triplet mining needs negatives)")
        by_id = {s.id: s for s in self.samples}
        for s in self.samples:
            if s.role != "part":
                continue
            parent = by_id.get(s.parent_id)
            if parent is None or parent.role != "whole":
                raise ValueError(f"part {s.id} has no whole parent {s.parent_id!r}")
            if parent.category != s.category:
                raise ValueError(f"part {s.id} and parent {parent.id} differ in category")
            if s.n_points >= parent.n_points:
                raise ValueError(f"part {s.id} is not smaller than its whole")
            if not np.array_equal(s.cloud.points, parent.cloud.points[: s.n_points]):
                raise ValueError(f"part {s.id} is not a prefix subset of its whole")
        parts_of = self.parts_by_whole()
        for whole in self.wholes():
            if whole.id not in parts_of:
                raise ValueError(f"whole {whole.id} has no parts (triplet mining needs positives)")
        for whole_id, parts in parts_of.items():
            sizes = [p.n_points for p in parts]
            if any(a >= b for a, b in zip(sizes, sizes[1:])):
                raise ValueError(f"parts of {whole_id} are not strictly increasing in size")
        if len({s.category for s in self.samples if s.role == "part"}) < 2:
            raise ValueError("parts must span at least 2 categories (triplet mining needs negatives)")

    def parts_by_whole(self) -> dict[str, list[SampleRecord]]:
        out: dict[str, list[SampleRecord]] = {}
        for s in self.samples:
            if s.role == "part":
                out.setdefault(s.parent_id, []).append(s)
        return out

    def wholes(self) -> list[SampleRecord]:
        return [s for s in self.samples if s.role == "whole"]


def _primitive_area(kind: str, params: tuple[float, ...]) -> float:
    if kind == "box":
        lx, ly, lz = params
        return 2.0 * (lx * ly + lx * lz + ly * lz)
    if kind == "disk":
        return math.pi * params[0] ** 2
    if kind == "cylinder":
        radius, height = params
        return 2.0 * math.pi * radius * height
    raise ValueError(f"unknown primitive kind {kind!r}")


def sample_primitive(kind: str, params: tuple[float, ...], n: int, seed) -> PointCloud:
    """Sample n points uniformly on a primitive surface, centered at origin.

    box (lx, ly, lz): all six faces, area-weighted.  disk (r): the flat disk
    at z = 0.  cylinder (r, h): the lateral surface only, no caps.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    params = tuple(float(p) for p in params)
    if any(p <= 0 for p in params):
        raise ValueError(f"primitive dimensions must be positive, got {params}")
    rng = np.random.default_rng(seed)
    if kind == "box":
        lx, ly, lz = params
        areas = np.array([lx * ly, lx * ly, lx * lz, lx * lz, ly * lz, ly * lz])
        faces = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, size=(n, 2))
        pts = np.empty((n, 3))
        # Faces come in +/- pairs along z, y, x; u spans the other two axes.
        for face in range(6):
            mask = faces == face
            axis = 2 - face // 2
            pts[mask, axis] = (0.5 - face % 2) * params[axis]
            for j, other in enumerate(a for a in range(3) if a != axis):
                pts[mask, other] = u[mask, j] * params[other]
        return PointCloud(pts)
    if kind == "disk":
        radius = params[0]
        r = radius * np.sqrt(rng.uniform(size=n))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return PointCloud(np.column_stack([r * np.cos(phi), r * np.sin(phi), np.zeros(n)]))
    if kind == "cylinder":
        radius, height = params
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        z = rng.uniform(-0.5 * height, 0.5 * height, size=n)
        return PointCloud(np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z]))
    raise ValueError(f"unknown primitive kind {kind!r}")


def _allocate(total: int, weights: np.ndarray) -> list[int]:
    """Largest-remainder apportionment of `total` points to components."""
    shares = weights / weights.sum() * total
    counts = np.floor(shares).astype(int)
    counts = np.maximum(counts, 1)
    while counts.sum() > total:
        counts[int(np.argmax(counts))] -= 1
    remainder = shares - np.floor(shares)
    order = np.argsort(-remainder, kind="stable")
    i = 0
    while counts.sum() < total:
        counts[order[i % len(counts)]] += 1
        i += 1
    return counts.tolist()


def _build_whole(category: str, points_whole: int, seed: int, cat_i: int, obj_i: int) -> np.ndarray:
    template = CATEGORY_TEMPLATES[category]
    areas = np.array([_primitive_area(kind, params) for kind, params, _ in template])
    counts = _allocate(points_whole, areas)
    blocks = []
    for comp_i, ((kind, params, offset), count) in enumerate(zip(template, counts)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, cat_i, obj_i, comp_i))
        cloud = sample_primitive(kind, params, count, ss)
        blocks.append(cloud.points + np.asarray(offset))
    pts = np.vstack(blocks)
    jitter = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, cat_i, obj_i)))
    scale = jitter.uniform(0.8, 1.2)
    phi = jitter.uniform(0.0, 2.0 * math.pi)
    rot = np.array([
        [math.cos(phi), -math.sin(phi), 0.0],
        [math.sin(phi), math.cos(phi), 0.0],
        [0.0, 0.0, 1.0],
    ])
    return (pts * scale) @ rot.T


def generate_dataset(
    n_categories: int = 5,
    objects_per_category: int = 20,
    parts_per_object: int = 3,
    points_whole: int = 512,
    seed: int = 42,
) -> HierarchyManifest:
    """Build the hierarchy dataset: per object, a whole plus cumulative parts.

    Part k of an object is the prefix of the whole's point array cut at
    round(points_whole * (k+1) / (parts_per_object+1)).
    """
    if not (2 <= n_categories <= len(CATEGORY_TEMPLATES)):
        raise ValueError(
            f"n_categories must be in [2, {len(CATEGORY_TEMPLATES)}], got {n_categories}")
    if objects_per_category < 1:
        raise ValueError("objects_per_category must be >= 1")
    if parts_per_object < 2:
        raise ValueError("parts_per_object must be >= 2")
    cuts = [round(points_whole * (k + 1) / (parts_per_object + 1)) for k in range(parts_per_object)]
    if cuts[0] < 1 or any(a >= b for a, b in zip(cuts, cuts[1:])) or cuts[-1] >= points_whole:
        raise ValueError(
            f"points_whole={points_whole} is too small for {parts_per_object} strictly growing parts")
    categories = tuple(sorted(CATEGORY_TEMPLATES)[:n_categories])
    samples = []
    for cat_i, category in enumerate(categories):
        for obj_i in range(objects_per_category):
            pts = _build_whole(category, points_whole, seed, cat_i, obj_i)
            whole_id = f"{category}-{obj_i:03d}-whole"
            whole = PointCloud(pts)
            for k, cut in enumerate(cuts):
                samples.append(SampleRecord(
                    id=f"{category}-{obj_i:03d}-part{k}", category=category, role="part",
                    n_points=cut, parent_id=whole_id, cloud=PointCloud(pts[:cut])))
            samples.append(SampleRecord(
                id=whole_id, category=category, role="whole",
                n_points=points_whole, parent_id=None, cloud=whole))
    return HierarchyManifest(samples=tuple(samples), categories=categories, seed=seed)


# --- disk persistence -------------------------------------------------------


def save_manifest(manifest: HierarchyManifest, out_dir, extra: dict | None = None) -> Path:
    """Write clouds as XYZ files plus manifest.json; returns the manifest path."""
    out_dir = Path(out_dir)
    cloud_dir = out_dir / "clouds"
    cloud_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in manifest.samples:
        rel = f"clouds/{s.id}.xyz"
        write_xyz(out_dir / rel, s.cloud)
        entry = {"id": s.id, "category": s.category, "role": s.role,
                 "n_points": s.n_points, "cloud_path": rel}
        if s.parent_id is not None:
            entry["parent_id"] = s.parent_id
        entries.append(entry)
    doc = {"seed": manifest.seed, "categories": list(manifest.categories), "samples": entries}
    if extra:
        doc.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path) -> HierarchyManifest:
    """Load and re-validate a manifest written by save_manifest."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    base = path.parent
    samples = []
    for entry in doc["samples"]:
        samples.append(SampleRecord(
            id=entry["id"], category=entry["category"], role=entry["role"],
            n_points=entry["n_points"], parent_id=entry.get("parent_id"),
            cloud=read_xyz(base / entry["cloud_path"])))
    return HierarchyManifest(samples=tuple(samples),
                             categories=tuple(doc["categories"]), seed=doc["seed"])
