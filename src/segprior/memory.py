"""Fixed-size replay memories mixed into incremental-step batches.

Two populations are supported: an episodic bank sampled from past training
data (a single total capacity, split as evenly as possible across the old
classes) and an external bank ingested from a manifest of retrieved images
(one class per row).  A bank is a ``synthdata.ManifestSamples``, which
reads a row when it is indexed: for episodic memory at most ``CAPACITY``
of the past rows, which ``populate_episodic`` chooses by position, and
for external memory one mask-less row per manifest line, showing the
line's class.  Neither reads an image: the step's pool reads each memory
row once, checks its size and labels it with the old foreground classes
it shows (``engine._prepare_pool``).  During training memory rows
contribute solely to the localizer's classification loss, acting as
negatives for the new classes.  Memory items take the last ``RATIO``
share of every training batch.
"""

from __future__ import annotations

import os

import numpy as np

from . import protocol
from .synthdata import ManifestSamples

CAPACITY = 100
RATIO = 0.25


def _class_quotas(capacity, classes):
    base, extra = divmod(capacity, len(classes))
    return {name: base + (1 if i < extra else 0) for i, name in enumerate(classes)}


def populate_episodic(present, old_classes, registry, capacity, seed):
    """Per-class balanced uniform draw of at most capacity past rows, given
    each row's set of present registry indices: the drawn positions, class
    by class (``protocol.per_class_draw``).

    The capacity is split as evenly as possible across the old classes with
    the remainder going to the lowest-index classes; a row drawn for one
    class leaves the pools of the others.  Classes whose pools run short
    simply contribute fewer rows.  No image is read here.
    """
    if not len(present):
        raise ValueError("episodic memory needs a non-empty past stream")
    old_classes = list(old_classes)
    quotas = _class_quotas(capacity, old_classes)
    draws = protocol.per_class_draw(
        present, [(registry.index_of(n), quotas[n]) for n in old_classes],
        np.random.default_rng(seed))
    return [k for rows in draws for k in rows]


def ingest_external(manifest_path, old_classes, registry):
    """Read 'class_name<TAB>image_path' rows into an external bank: a
    ``synthdata.ManifestSamples`` of mask-less rows, each showing its
    row's class and read when indexed.

    Every row must name one of old_classes, the step's old foreground
    classes, and its image file must exist.  Any other name, a current or
    future class among them, or a missing file raises ValueError naming
    the row.  No image is read here; the step's pool reads each one and
    checks that it has the size of the step's images.
    """
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"memory manifest not found: {manifest_path}")
    root = os.path.dirname(os.path.abspath(manifest_path))
    rows = []
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{manifest_path}:{lineno}: expected 'class<TAB>path'"
                )
            name, rel = parts
            if name not in old_classes:
                raise ValueError(f"{manifest_path}:{lineno}: class {name!r} is not "
                                 f"an old class of the step {list(old_classes)}")
            path = rel if os.path.isabs(rel) else os.path.join(root, rel)
            if not os.path.exists(path):
                raise ValueError(f"{manifest_path}:{lineno}: unreadable image {rel!r}")
            rows.append((path, None, frozenset([registry.index_of(name)])))
    return ManifestSamples(tuple(rows), registry.names)


def mix_batch(current, memory, rng):
    """Replace the last floor(RATIO * B) batch items with uniform draws from
    the non-empty sequence memory.

    Draws are without replacement inside a batch (when memory allows) and
    independent across calls.  A batch too small to take a memory item
    comes back unchanged without touching the generator.
    """
    if not memory:
        raise ValueError("cannot mix from an empty memory")
    batch = list(current)
    k = int(RATIO * len(batch))
    if k == 0:
        return batch
    picks = rng.choice(len(memory), size=k, replace=len(memory) < k)
    for slot, p in enumerate(int(v) for v in picks):
        batch[len(batch) - k + slot] = memory[p]
    return batch
