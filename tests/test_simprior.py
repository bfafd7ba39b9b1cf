import math

import numpy as np
import pytest

from segprior.class_semantics import ClassRegistry, EmbeddingTable, similarity_matrix
from segprior.simprior import (
    LabelMap,
    argmax_label_map,
    similarity_maps,
)
from segprior.synthdata import default_taxonomy


@pytest.fixture(scope="module")
def setup():
    tax = default_taxonomy()
    sim = similarity_matrix(tax.registry, tax.embeddings)
    return tax.registry, sim


def test_argmax_single_channel(setup):
    registry, _ = setup
    scores = np.zeros((3, 3, 1))
    lm = argmax_label_map(scores, ["bkg"], registry)
    assert np.array_equal(lm.grid, np.zeros((3, 3), dtype=np.int32))


def test_argmax_picks_max_and_breaks_ties_low(setup):
    registry, _ = setup
    scores = np.array([[[0.2, 0.7, 0.1], [0.5, 0.5, 0.0]]])
    names = ["bkg", "disc_solid", "box_solid"]
    lm = argmax_label_map(scores, names, registry)
    assert lm.grid[0, 0] == registry.index_of("disc_solid")
    assert lm.grid[0, 1] == registry.index_of("bkg")  # tie -> lowest channel


def test_argmax_rejects_bad_input(setup):
    registry, _ = setup
    with pytest.raises(ValueError):
        argmax_label_map(np.zeros((2, 2, 0)), [], registry)
    bad = np.zeros((2, 2, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        argmax_label_map(bad, ["bkg"], registry)


def test_similarity_map_values(setup):
    registry, sim = setup
    grid = np.array([[registry.index_of("bkg"), registry.index_of("disc_solid")]],
                    dtype=np.int32)
    lm = LabelMap(grid=grid, registry=registry)
    stack = similarity_maps(lm, {"disc_striped"}, sim, tau=5.0)
    # bkg pixel: numerator equals denominator
    assert stack.class_names == ("disc_striped",)
    assert stack.values[0, 0, 0] == 1.0
    # related old class: exp((S(disc_solid, disc_striped) - S(bkg, .)) / tau)
    expected = math.exp((-0.1 + 1.0) / 5.0)
    assert stack.values[0, 1, 0] == pytest.approx(expected, rel=1e-9)


def test_similarity_map_frozen_value():
    """tau=5, S(pred,c)=-0.2, S(bkg,c)=-1.0 -> exp(0.16), via a scalar oracle."""
    registry = ClassRegistry.from_names(["bkg", "old", "new"])
    sim = np.array([
        [0.0, -0.6, -1.0],
        [-0.6, 0.0, -0.2],
        [-1.0, -0.2, 0.0],
    ])
    lm = LabelMap(grid=np.array([[1]], dtype=np.int32), registry=registry)
    stack = similarity_maps(lm, {"new"}, sim, tau=5.0)
    assert stack.values[0, 0, 0] == pytest.approx(1.1735108709918103, rel=1e-12)


def test_equal_similarity_gives_one():
    registry = ClassRegistry.from_names(["bkg", "old", "new"])
    sim = np.array([
        [0.0, -0.6, -0.7],
        [-0.6, 0.0, -0.7],
        [-0.7, -0.7, 0.0],
    ])
    lm = LabelMap(grid=np.array([[1]], dtype=np.int32), registry=registry)
    stack = similarity_maps(lm, {"new"}, sim, tau=3.0)
    assert stack.values[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


def test_similarity_map_errors(setup):
    registry, sim = setup
    lm = LabelMap(grid=np.zeros((2, 2), dtype=np.int32), registry=registry)
    with pytest.raises(ValueError):
        similarity_maps(lm, set(), sim, tau=5.0)
    with pytest.raises(ValueError):
        similarity_maps(lm, {"disc_striped"}, sim, tau=0.0)
    with pytest.raises(ValueError):
        similarity_maps(lm, {"unknown"}, sim, tau=5.0)


def test_invariants_random_label_maps(setup):
    """Background normalization, sign equivalence and tau monotonicity."""
    registry, sim = setup
    rng = np.random.default_rng(0)
    new_names = ["disc_striped", "wedge_striped"]
    for _ in range(50):
        grid = rng.integers(0, 5, size=(6, 6)).astype(np.int32)  # bkg + 4 solids
        lm = LabelMap(grid=grid, registry=registry)
        tau = float(rng.uniform(0.5, 10.0))
        stack = similarity_maps(lm, set(new_names), sim, tau)
        wide = similarity_maps(lm, set(new_names), sim, tau * 4.0)
        assert stack.class_names == tuple(new_names) == wide.class_names
        for k, name in enumerate(new_names):
            col = registry.index_of(name)
            values = stack.values[..., k]
            assert np.all(values > 0)
            bkg_pixels = grid == 0
            assert np.all(np.abs(values[bkg_pixels] - 1.0) <= 1e-12)
            diff = sim[grid, col] - sim[0, col]
            assert np.array_equal(values > 1.0, diff > 0)
            assert np.array_equal(values < 1.0, diff < 0)
            # larger tau pulls scores toward 1
            v4 = wide.values[..., k]
            above = diff > 0
            assert np.all(v4[above] < values[above])
            assert np.all(v4[above] > 1.0)


def test_relabeling_invariance():
    """Maps depend on names and embeddings only, not on index layout."""
    table = EmbeddingTable.from_mapping({
        "bkg": [1.0, 0.0, 0.0],
        "cow": [0.0, 1.0, 0.0],
        "sheep": [0.0, 0.8, 0.6],
    })
    reg_a = ClassRegistry.from_names(["bkg", "cow", "sheep"])
    reg_b = ClassRegistry.from_names(["bkg", "sheep", "cow"])
    sim_a = similarity_matrix(reg_a, table)
    sim_b = similarity_matrix(reg_b, table)
    names = np.array([["bkg", "cow"], ["cow", "bkg"]])
    grid_a = np.vectorize(reg_a.index_of)(names).astype(np.int32)
    grid_b = np.vectorize(reg_b.index_of)(names).astype(np.int32)
    stack_a = similarity_maps(LabelMap(grid_a, reg_a), {"sheep"}, sim_a, 5.0)
    stack_b = similarity_maps(LabelMap(grid_b, reg_b), {"sheep"}, sim_b, 5.0)
    assert np.allclose(stack_a.values, stack_b.values, atol=1e-12)
