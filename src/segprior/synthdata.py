"""Deterministic synthetic segmentation data with engineered semantics.

The default taxonomy has eight foreground classes in four families of two
(discs, boxes, wedges, crosses).  Family members share geometry and color
and differ only in fill texture (solid vs striped), so a model trained on
one member fires on the other.  Embeddings are constructed so that the
name-space similarity mirrors that visual similarity for three families,
while the cross family is semantically isolated: its two members are no
closer to each other than to anything else, exercising the edge case where
a new class has no related old class.

``export_dataset`` generates and writes a split as the two fixed shards of
``layers.Shards``: this process writes the first half of the samples, and
one worker forked from it the second half.  Every sample draws from its
own child of the split seed's ``SeedSequence``, so the two processes write
the same bytes one process would.  Datasets on disk are read back by
``load_dataset``, one sample at a time.
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
from .layers import Shards, shard_slices
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
                     with_geometry=False, rows=slice(None)):
    """n samples of 1-3 non-overlapping shapes on a noisy gray background.

    Deterministic per seed: sample i draws from child i of the seed's
    ``SeedSequence`` alone.  The first object of sample i cycles through
    the foreground classes, so every class appears in at least
    floor(n / n_classes) samples.  rows, a slice of range(n), makes only
    those samples, each equal to its sample in the whole call.
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
    for i in range(n)[rows]:
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


def _write_sample(outdir, i, sample, registry):
    """Write sample i's PPM image and PGM mask under outdir; return its
    manifest row."""
    img_rel = os.path.join("images", f"img_{i:05d}.ppm")
    mask_rel = os.path.join("masks", f"mask_{i:05d}.pgm")
    netpbm.write_ppm(os.path.join(outdir, img_rel), sample.image)
    netpbm.write_pgm(os.path.join(outdir, mask_rel), sample.dense_mask)
    present = sorted(sample.present_indices())
    return {
        "image": img_rel,
        "mask": mask_rel,
        "present": [registry.names[p] for p in present if p != 0],
    }


def _halves(n):
    """The two shards' rows of an n-sample split; the second is empty if n < 2."""
    rows = shard_slices(n)
    return rows if len(rows) == 2 else rows + [slice(n, n)]


def export_dataset(taxonomy, splits, image_size=64, objects_range=(1, 3)):
    """Generate each split and write it under its directory: paired PPM
    images and PGM index masks, and a JSON manifest.  Returns the
    manifests' paths.

    splits holds one (outdir, n, seed) per split, whose samples are those
    of ``generate_dataset(taxonomy, n, image_size, objects_range, seed)``.
    One ``layers.Shards`` call does every split: shard 0 in this process
    and shard 1 in one forked worker each generate and write their half of
    every split (``layers.shard_slices``) and return its manifest rows.
    Each manifest is then written here, once and atomically, with its rows
    in index order.  Every file is byte-identical to a one-process write.
    """
    registry = taxonomy.registry
    for outdir, _, _ in splits:
        os.makedirs(os.path.join(outdir, "images"), exist_ok=True)
        os.makedirs(os.path.join(outdir, "masks"), exist_ok=True)

    def shard(split_rows):
        out = []
        for (outdir, n, seed), rows in zip(splits, split_rows):
            samples = generate_dataset(taxonomy, n, image_size, objects_range, seed,
                                       rows=rows)
            out.append([_write_sample(outdir, i, sample, registry)
                        for i, sample in zip(range(n)[rows], samples)])
        return out

    halves = [_halves(n) for _, n, _ in splits]
    shard_args = [(tuple(h[k] for h in halves),) for k in (0, 1)]
    if all(rows.start == rows.stop for rows in shard_args[1][0]):
        shard_args.pop()        # at most one sample: no worker is forked
    with Shards(shard) as shards:
        parts = shards(shard_args)
    paths = []
    for k, (outdir, _, _) in enumerate(splits):
        manifest = {"classes": list(registry.names),
                    "samples": [row for part in parts for row in part[k]]}
        path = os.path.join(outdir, "manifest.json")
        with atomic_open(path, encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths


class ManifestSamples(Sequence):
    """The samples of a dataset manifest, each read from disk when indexed.

    Indexing reads that row's PPM image and PGM mask (uint8, as stored)
    and returns a new ``Sample``; nothing is cached, so indexing a row
    twice reads it twice.  A mask whose classes differ from its row's
    ``present`` list raises ValueError naming the mask file.  Slicing, or
    indexing with a list of row positions, returns a ManifestSamples over
    the chosen rows and reads nothing.  ``present`` holds each row's
    foreground registry indices as the manifest lists them, so rows can be
    chosen before any image is read.
    """

    def __init__(self, rows, classes):
        self._rows = rows           # (image path, mask path, present) per row
        self._classes = classes
        self.present = tuple(row[2] for row in rows)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ManifestSamples(self._rows[i], self._classes)
        if isinstance(i, list):
            return ManifestSamples(tuple(self._rows[k] for k in i), self._classes)
        image_path, mask_path, present = self._rows[i]
        sample = Sample(image=netpbm.read_ppm(image_path),
                        dense_mask=netpbm.read_pgm(mask_path))
        shown = sample.present_indices() - {0}
        if shown != present:
            raise ValueError(f"mask {mask_path} shows classes {self._names(shown)}, "
                             f"its manifest row lists {self._names(present)}")
        return sample

    def _names(self, indices):
        return [self._classes[k] if k < len(self._classes) else str(k)
                for k in sorted(indices)]


def load_dataset(manifest_path):
    """A manifest's samples, as a ``ManifestSamples``, and its class names.

    Only the manifest is read here; each image and mask is read when its
    sample is indexed.  Evaluation passes the sequence on as it is, so each
    shard reads its own images one at a time; training first chooses its
    rows by their ``present`` lists, then reads each chosen image once,
    since each epoch visits every image again.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    root = os.path.dirname(os.path.abspath(manifest_path))
    classes = list(manifest["classes"])
    index = {name: k for k, name in enumerate(classes)}
    rows = []
    for k, row in enumerate(manifest["samples"]):
        unknown = [name for name in row["present"] if name not in index]
        if unknown:
            raise ValueError(f"{manifest_path}: row {k} lists unknown classes {unknown}")
        rows.append((os.path.join(root, row["image"]), os.path.join(root, row["mask"]),
                     frozenset(index[name] for name in row["present"])))
    return ManifestSamples(tuple(rows), classes), classes
