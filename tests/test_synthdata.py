import numpy as np
import pytest

from helpers import semantic_similarity
from segprior.synthdata import (
    ISOLATED_FAMILY,
    default_taxonomy,
    export_dataset,
    generate_dataset,
    load_dataset,
    shape_mask,
)


@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


def test_taxonomy_shape(taxonomy):
    reg = taxonomy.registry
    assert len(reg) == 9
    assert reg.background_name == reg.names[0] == "bkg"
    assert len(reg.foreground_names) == 8
    families = {n.split("_")[0] for n in reg.foreground_names}
    assert len(families) == 4
    # embedding invariants hold
    for name in reg.names:
        vec = taxonomy.embeddings.vector(name)
        assert vec.shape == (taxonomy.embeddings.dimension,)
        assert np.linalg.norm(vec) > 0


def test_taxonomy_cosine_structure(taxonomy):
    """Intra-family ~ -0.1, inter-family ~ -0.9, bkg ~ -1.0 (scalar oracle)."""
    table = taxonomy.embeddings
    fg = taxonomy.registry.foreground_names
    for a in fg:
        assert semantic_similarity(a, "bkg", table) == pytest.approx(-1.0, abs=1e-9)
        for b in fg:
            if a == b:
                continue
            fam_a, fam_b = a.split("_")[0], b.split("_")[0]
            s = semantic_similarity(a, b, table)
            if fam_a == fam_b and fam_a != ISOLATED_FAMILY:
                assert s == pytest.approx(-0.1, abs=1e-9)
            else:
                assert s == pytest.approx(-0.9, abs=1e-9)


def test_single_forced_ellipse(taxonomy):
    samples = generate_dataset(taxonomy, 1, objects_range=(1, 1), seed=3)
    present = samples[0].present_indices()
    assert present == {0, taxonomy.registry.index_of("disc_solid")}


def test_deterministic(taxonomy):
    a = generate_dataset(taxonomy, 6, seed=11)
    b = generate_dataset(taxonomy, 6, seed=11)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.dense_mask, sb.dense_mask)
    c = generate_dataset(taxonomy, 6, seed=12)
    assert any(not np.array_equal(sa.image, sc.image) for sa, sc in zip(a, c))


def test_class_coverage(taxonomy):
    n = 600
    samples = generate_dataset(taxonomy, n, seed=0)
    n_classes = len(taxonomy.registry.foreground_names)
    counts = {name: 0 for name in taxonomy.registry.foreground_names}
    for s in samples:
        for idx in s.present_indices():
            if idx != 0:
                counts[taxonomy.registry.names[idx]] += 1
    bound = n // (3 * n_classes)
    for name, cnt in counts.items():
        assert cnt >= bound, (name, cnt, bound)


def test_masks_match_analytic_regions(taxonomy):
    samples, geoms = generate_dataset(taxonomy, 12, seed=5, with_geometry=True)
    for sample, placed in zip(samples, geoms):
        reconstructed = np.zeros_like(sample.dense_mask)
        union = np.zeros(sample.dense_mask.shape, dtype=bool)
        for shape in placed:
            h, w = sample.dense_mask.shape
            m = shape_mask(shape.kind, h, w, shape.cx, shape.cy,
                                      shape.pa, shape.pb)
            assert not (m & union).any(), "shapes overlap"
            union |= m
            reconstructed[m] = taxonomy.registry.index_of(shape.class_name)
        assert np.array_equal(reconstructed, sample.dense_mask)


def test_objects_within_range(taxonomy):
    samples, geoms = generate_dataset(taxonomy, 30, objects_range=(2, 3), seed=9,
                                      with_geometry=True)
    for placed in geoms:
        assert 1 <= len(placed) <= 3


def test_export_load_round_trip(taxonomy, tmp_path):
    samples = generate_dataset(taxonomy, 4, seed=21)
    manifest = export_dataset(samples, taxonomy.registry, str(tmp_path))
    loaded, classes = load_dataset(manifest)
    assert classes == list(taxonomy.registry.names)
    assert len(loaded) == len(samples)
    for orig, back in zip(samples, loaded):
        assert np.array_equal(orig.image, back.image)
        assert np.array_equal(orig.dense_mask, back.dense_mask)
