"""Dense per-new-class similarity maps from old-model predictions.

Given the old model's most-probable class at every pixel and the image-level
labels of the current step, each new class gets a map

    s[i] = exp(sim(predicted_class_i, new_class) / tau)
         / exp(sim('bkg', new_class) / tau)

computed as ``exp((num - den) / tau)`` so the ratio never overflows.  Pixels
the old model calls background score exactly 1 for every new class; related
foreground predictions push the score above 1.  Maps exist only for the new
classes actually present in the image, never for the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .class_semantics import ClassRegistry


@dataclass
class LabelMap:
    """Per-pixel registry indices plus the registry they refer to."""

    grid: np.ndarray               # (H, W) integer registry indices
    registry: ClassRegistry

    def __post_init__(self):
        if self.grid.ndim != 2:
            raise ValueError("label map grid must be 2-D")
        if self.grid.size and (self.grid.min() < 0 or self.grid.max() >= len(self.registry)):
            raise ValueError("label map contains indices outside the registry")


@dataclass
class SimilarityStack:
    """Per-class similarity maps stacked channel-last as (H, W, K)."""

    values: np.ndarray
    class_names: tuple
    tau: float


def argmax_label_map(old_scores, channel_names, registry):
    """Most probable old class per pixel; ties go to the lowest channel index.

    old_scores is (H, W, C) over the old label space whose channel order is
    ``channel_names``; the result stores registry indices.
    """
    scores = np.asarray(old_scores)
    if scores.ndim != 3 or scores.shape[2] < 1:
        raise ValueError("old scores must be a non-empty (H, W, C) tensor")
    if scores.shape[2] != len(channel_names):
        raise ValueError("channel_names length must match the class axis")
    if not np.all(np.isfinite(scores)):
        raise ValueError("old scores contain non-finite values")
    winners = np.argmax(scores, axis=2)
    lut = np.array([registry.index_of(n) for n in channel_names], dtype=np.int32)
    return LabelMap(grid=lut[winners], registry=registry)


def similarity_maps(label_map, new_labels, sim, tau):
    """Similarity stack for the new classes present in one image.

    ``sim`` is the registry-indexed matrix from
    :func:`segprior.class_semantics.similarity_matrix`.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    names = sorted(new_labels)
    if not names:
        raise ValueError("no new labels given; similarity maps need at least one")
    registry = label_map.registry
    bkg = registry.index_of(registry.background_name)
    maps = np.empty(label_map.grid.shape + (len(names),), dtype=np.float64)
    for k, name in enumerate(names):
        col = registry.index_of(name)
        # exp((sim[pred, c] - sim[bkg, c]) / tau), looked up per pixel
        table = np.exp((sim[:, col] - sim[bkg, col]) / tau)
        maps[:, :, k] = table[label_map.grid]
    return SimilarityStack(values=maps, class_names=tuple(names), tau=float(tau))
