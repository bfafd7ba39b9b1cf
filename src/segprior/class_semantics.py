"""Class identities, name embeddings and the semantic similarity metric.

Similarity between two class names is the cosine-derived score
``-(1 - cos(v_a, v_b))``: 0 for positively parallel embeddings, -2 for
anti-parallel ones.  Embeddings are always ingested from a file (or built
by :mod:`segprior.synthdata`), never computed here, so everything stays
deterministic and offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open


class ClassRegistry:
    """Ordered class names, bkg first; the single source of truth for partitions."""

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("registry needs at least one class")
        if not all(names):
            raise ValueError("class names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def background_name(self):
        return self.names[0]

    @property
    def foreground_names(self):
        return self.names[1:]

    def index_of(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown class name {name!r}") from None

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self._index


@dataclass(frozen=True)
class EmbeddingTable:
    """Name -> vector map; every vector shares one dimension and has norm > 0."""

    dimension: int
    vectors: dict

    def vector(self, name):
        try:
            return self.vectors[name]
        except KeyError:
            raise ValueError(f"no embedding for class {name!r}") from None

    @classmethod
    def from_mapping(cls, mapping):
        if not mapping:
            raise ValueError("embedding table is empty")
        dim = None
        vectors = {}
        for name, values in mapping.items():
            vec = np.asarray(values, dtype=np.float64)
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"embedding for {name!r} must be a non-empty flat vector")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"embedding for {name!r} has dimension {vec.size}, expected {dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"embedding for {name!r} has non-finite entries")
            if np.linalg.norm(vec) == 0.0:
                raise ValueError(f"embedding for {name!r} has zero norm")
            vectors[name] = vec
        return cls(dimension=dim, vectors=vectors)


def _reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate class name {key!r} in embedding file")
        seen.add(key)
    return dict(pairs)


def load_embeddings(path):
    """Read a JSON object mapping class names to equal-length real vectors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
        except json.JSONDecodeError as exc:
            raise ValueError(f"embedding file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"embedding file {path} must contain a single JSON object")
    return EmbeddingTable.from_mapping(raw)


def save_embeddings(table, path):
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump({n: list(map(float, v)) for n, v in table.vectors.items()}, fh, indent=1)
        fh.write("\n")


def similarity_matrix(registry, table):
    """All pairwise similarities, indexed by registry order.

    Symmetric with an exactly zero diagonal; computed once per step, and
    ``segprior.simprior.rasp_target_table`` reads its old-class rows.
    """
    names = registry.names
    for name in names:
        if name not in table.vectors:
            raise ValueError(f"no embedding for class {name!r}")
    vecs = np.stack([table.vector(n) for n in names])
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sim = -(1.0 - vecs @ vecs.T)
    sim = (sim + sim.T) / 2.0
    np.fill_diagonal(sim, 0.0)
    return np.clip(sim, -2.0, 0.0)
