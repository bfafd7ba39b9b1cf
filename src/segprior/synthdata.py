"""Deterministic synthetic segmentation data with engineered semantics.

The default taxonomy has eight foreground classes in four families of two
(discs, boxes, wedges, crosses).  Family members share geometry and color
and differ only in fill texture (solid vs striped), so a model trained on
one member fires on the other.  Embeddings are constructed so that the
name-space similarity mirrors that visual similarity for three families,
while the cross family is semantically isolated: its two members are no
closer to each other than to anything else, exercising the edge case where
a new class has no related old class.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import netpbm
from .class_semantics import ClassRegistry, EmbeddingTable
from .fileio import atomic_open
from .protocol import Sample

ELLIPSE, RECTANGLE, TRIANGLE, CROSS = 0, 1, 2, 3
GEOMETRY_CODES = {
    "ellipse": ELLIPSE,
    "rectangle": RECTANGLE,
    "triangle": TRIANGLE,
    "cross": CROSS,
}

_FAMILIES = (
    # (family, geometry, size range, rgb color)
    ("disc", "ellipse", (18.0, 30.0), (205, 62, 58)),
    ("box", "rectangle", (18.0, 30.0), (62, 185, 80)),
    ("wedge", "triangle", (20.0, 32.0), (72, 98, 205)),
    ("cross", "cross", (20.0, 32.0), (208, 188, 62)),
)

# Cosine targets: members of the first three families pair at 0.9, every
# other foreground pair sits at 0.1, background is orthogonal to all.
_COS_SHARED = 0.1
_COS_FAMILY = 0.9
ISOLATED_FAMILY = "cross"

_BKG_BASE = 96.0
_BKG_NOISE = 18.0
_FILL_NOISE = 8.0
_STRIPE_PERIOD = 8
# Striped members alternate two darkened shades of the family color: still
# saturated enough to stand out from the gray background, but with no pixel
# matching the solid sibling exactly, so a model trained on the solid fires
# on the striped variant with moderate rather than near-certain confidence.
_STRIPE_LIGHT = 0.75
_STRIPE_DARK = 0.40
_PLACE_RETRIES = 40


@dataclass(frozen=True)
class ShapeClassSpec:
    name: str
    geometry: str
    size_range: tuple
    texture: str                 # "solid" | "striped"
    embedding: tuple


@dataclass(frozen=True)
class Taxonomy:
    registry: ClassRegistry
    embeddings: EmbeddingTable
    shapes: dict                 # name -> ShapeClassSpec


@dataclass(frozen=True)
class PlacedShape:
    class_name: str
    kind: int
    cx: float
    cy: float
    pa: float
    pb: float


def _member_vectors():
    """Unit embeddings with the exact cosine structure described above.

    Basis: axis 0 is shared by all foreground classes (weight sqrt(0.1)),
    axes 1-3 are per-family directions for the three coupled families
    (weight sqrt(0.8)), axes 4-11 are unique per member, axis 12 is the
    background's own direction.
    """
    dim = 13
    vectors = {"bkg": np.eye(dim)[12]}
    member_axis = 4
    for fam_idx, (family, _, _, _) in enumerate(_FAMILIES):
        isolated = family == ISOLATED_FAMILY
        for texture in ("solid", "striped"):
            vec = np.zeros(dim)
            vec[0] = np.sqrt(_COS_SHARED)
            if isolated:
                vec[member_axis] = np.sqrt(1.0 - _COS_SHARED)
            else:
                vec[1 + fam_idx] = np.sqrt(_COS_FAMILY - _COS_SHARED)
                vec[member_axis] = np.sqrt(1.0 - _COS_FAMILY)
            vectors[f"{family}_{texture}"] = vec
            member_axis += 1
    return vectors


def default_taxonomy():
    """The repo-shipped toy taxonomy: 8 foreground classes plus 'bkg'."""
    vectors = _member_vectors()
    names = ["bkg"]
    names += [f"{fam}_solid" for fam, _, _, _ in _FAMILIES]
    names += [f"{fam}_striped" for fam, _, _, _ in _FAMILIES]
    registry = ClassRegistry(names)
    table = EmbeddingTable.from_mapping({n: vectors[n] for n in names})
    shapes = {}
    for family, geometry, size_range, _ in _FAMILIES:
        for texture in ("solid", "striped"):
            name = f"{family}_{texture}"
            shapes[name] = ShapeClassSpec(
                name, geometry, size_range, texture, tuple(vectors[name])
            )
    return Taxonomy(registry, table, shapes)


def family_color(class_name):
    family = class_name.split("_")[0]
    for fam, _, _, color in _FAMILIES:
        if fam == family:
            return color
    raise ValueError(f"unknown family for class {class_name!r}")


def _paint(image, mask_bool, color, texture, rng):
    h, w, _ = image.shape
    fill = np.empty((h, w, 3), dtype=np.float64)
    fill[:] = color
    if texture == "striped":
        color_arr = np.asarray(color, dtype=np.float64)
        dark_rows = (np.arange(h) // (_STRIPE_PERIOD // 2)) % 2 == 1
        fill[:] = _STRIPE_LIGHT * color_arr
        fill[dark_rows] = _STRIPE_DARK * color_arr
    fill += rng.normal(0.0, _FILL_NOISE, size=fill.shape)
    image[mask_bool] = np.clip(fill[mask_bool], 0, 255)


def shape_mask(kind, h, w, cx, cy, pa, pb):
    """Boolean (h, w) mask of the shape; pa/pb are per-kind size parameters.

    ellipse: pa, pb = semi-axes; rectangle: pa, pb = full width/height;
    triangle: pa, pb = base width, height (apex up); cross: pa, pb =
    full extent, arm width.  A pixel is inside when its integer center is.
    """
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    dx = xs - cx
    dy = ys - cy
    if kind == ELLIPSE:
        return (dx / pa) ** 2 + (dy / pb) ** 2 <= 1.0
    if kind == RECTANGLE:
        return (np.abs(dx) <= pa / 2) & (np.abs(dy) <= pb / 2)
    if kind == TRIANGLE:
        top = cy - pb / 2
        frac = (ys - top) / pb
        inside_y = (frac >= 0.0) & (frac <= 1.0)
        return inside_y & (np.abs(dx) <= frac * pa / 2)
    if kind == CROSS:
        bar_h = (np.abs(dx) <= pa / 2) & (np.abs(dy) <= pb / 2)
        bar_v = (np.abs(dx) <= pb / 2) & (np.abs(dy) <= pa / 2)
        return bar_h | bar_v
    raise ValueError(f"unknown shape kind {kind}")


def _draw_params(spec, rng):
    size = rng.uniform(*spec.size_range)
    kind = GEOMETRY_CODES[spec.geometry]
    if kind == ELLIPSE:
        pa = size / 2.0
        pb = pa * rng.uniform(0.6, 1.0)
        if rng.random() < 0.5:
            pa, pb = pb, pa
        extent = 2.0 * max(pa, pb)
    elif kind == RECTANGLE:
        pa = size
        pb = size * rng.uniform(0.5, 1.0)
        if rng.random() < 0.5:
            pa, pb = pb, pa
        extent = max(pa, pb)
    elif kind == TRIANGLE:
        pa = size
        pb = size * rng.uniform(0.8, 1.2)
        extent = max(pa, pb)
    else:
        pa = size
        pb = max(4.0, size * rng.uniform(0.30, 0.40))
        extent = size
    return kind, pa, pb, extent


def generate_dataset(taxonomy, n, image_size=64, objects_range=(1, 3), seed=0,
                     with_geometry=False):
    """n samples of 1-3 non-overlapping shapes on a noisy gray background.

    Deterministic per seed (per-sample child generators merged in index
    order).  The first object of sample i cycles through the foreground
    classes, so every class appears in at least floor(n / n_classes)
    samples.
    """
    lo, hi = objects_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad objects_range {objects_range}")
    registry = taxonomy.registry
    fg = registry.foreground_names
    max_extent = max(s.size_range[1] for s in taxonomy.shapes.values())
    if max_extent + 4 > image_size:
        raise ValueError(
            f"object sizes up to {max_extent} do not fit a {image_size}px image"
        )
    children = np.random.SeedSequence(seed).spawn(n)
    samples = []
    geometries = []
    for i in range(n):
        rng = np.random.default_rng(children[i])
        img = np.clip(
            _BKG_BASE + rng.normal(0.0, _BKG_NOISE, size=(image_size, image_size, 3)),
            0, 255,
        )
        mask = np.zeros((image_size, image_size), dtype=np.uint8)
        occupied = np.zeros((image_size, image_size), dtype=bool)
        n_objects = int(rng.integers(lo, hi + 1))
        class_names = [fg[i % len(fg)]]
        class_names += [fg[int(j)] for j in rng.integers(0, len(fg), n_objects - 1)]
        placed = []
        for name in class_names:
            spec = taxonomy.shapes[name]
            for _ in range(_PLACE_RETRIES):
                kind, pa, pb, extent = _draw_params(spec, rng)
                margin = extent / 2.0 + 1.0
                cx = rng.uniform(margin, image_size - margin)
                cy = rng.uniform(margin, image_size - margin)
                shape = shape_mask(kind, image_size, image_size, cx, cy, pa, pb)
                if shape.any() and not (shape & occupied).any():
                    _paint(img, shape, family_color(name), spec.texture, rng)
                    mask[shape] = registry.index_of(name)
                    occupied |= shape
                    placed.append(PlacedShape(name, kind, cx, cy, pa, pb))
                    break
        if not placed:
            raise RuntimeError(f"could not place any shape in sample {i}")
        samples.append(Sample(image=img.astype(np.uint8), dense_mask=mask))
        geometries.append(tuple(placed))
    if with_geometry:
        return samples, geometries
    return samples


def export_dataset(samples, registry, outdir):
    """Write paired PPM images and PGM index masks plus a JSON manifest."""
    img_dir = os.path.join(outdir, "images")
    mask_dir = os.path.join(outdir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)
    rows = []
    for i, sample in enumerate(samples):
        img_rel = os.path.join("images", f"img_{i:05d}.ppm")
        mask_rel = os.path.join("masks", f"mask_{i:05d}.pgm")
        netpbm.write_ppm(os.path.join(outdir, img_rel), sample.image)
        netpbm.write_pgm(os.path.join(outdir, mask_rel), sample.dense_mask)
        present = sorted(sample.present_indices())
        rows.append({
            "image": img_rel,
            "mask": mask_rel,
            "present": [registry.names[p] for p in present if p != 0],
        })
    manifest = {"classes": list(registry.names), "samples": rows}
    manifest_path = os.path.join(outdir, "manifest.json")
    with atomic_open(manifest_path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest_path


class ManifestSamples(Sequence):
    """The samples of a dataset manifest, each read from disk when indexed.

    Indexing reads that row's PPM image and PGM mask (uint8, as stored)
    and returns a new ``Sample``; nothing is cached, so indexing a row
    twice reads it twice.  Slicing returns a ManifestSamples over the
    chosen rows and reads nothing.
    """

    def __init__(self, paths):
        self._paths = paths         # (image path, mask path) per row

    def __len__(self):
        return len(self._paths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ManifestSamples(self._paths[i])
        image_path, mask_path = self._paths[i]
        return Sample(image=netpbm.read_ppm(image_path),
                      dense_mask=netpbm.read_pgm(mask_path))


def load_dataset(manifest_path):
    """A manifest's samples, as a ``ManifestSamples``, and its class names.

    Only the manifest is read here; each image and mask is read when its
    sample is indexed.  Evaluation passes the sequence on as it is, so each
    shard reads its own images one at a time; training reads every image
    once with ``list(files)``, since each epoch visits every image again.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    root = os.path.dirname(os.path.abspath(manifest_path))
    paths = tuple((os.path.join(root, row["image"]), os.path.join(root, row["mask"]))
                  for row in manifest["samples"])
    return ManifestSamples(paths), list(manifest["classes"])
