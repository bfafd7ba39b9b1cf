import json

import numpy as np
import pytest

from helpers import semantic_similarity
from segprior.class_semantics import (
    ClassRegistry,
    EmbeddingTable,
    load_embeddings,
    save_embeddings,
    similarity_matrix,
)
from segprior.synthdata import default_taxonomy


def write(tmp_path, payload):
    path = tmp_path / "emb.json"
    path.write_text(payload, encoding="utf-8")
    return str(path)


def test_registry_invariants():
    reg = ClassRegistry(["bkg", "a", "b"])
    assert reg.names == ("bkg", "a", "b")
    assert reg.background_name == "bkg"
    assert reg.foreground_names == ("a", "b")
    assert reg.index_of("b") == 2 and len(reg) == 3 and "a" in reg
    with pytest.raises(ValueError, match="unknown"):
        reg.index_of("c")
    with pytest.raises(ValueError, match="at least one"):
        ClassRegistry([])
    with pytest.raises(ValueError, match="non-empty"):
        ClassRegistry(["bkg", ""])
    with pytest.raises(ValueError, match="unique"):
        ClassRegistry(["bkg", "a", "a"])


def test_load_embeddings_minimal(tmp_path):
    path = write(tmp_path, '{"bkg": [1, 0], "cow": [0, 1]}')
    table = load_embeddings(path)
    assert table.dimension == 2
    assert len(table.vectors) == 2
    assert np.array_equal(table.vector("cow"), [0.0, 1.0])


def test_load_embeddings_duplicate_name(tmp_path):
    path = write(tmp_path, '{"bkg": [1, 0], "cow": [0, 1], "cow": [1, 1]}')
    with pytest.raises(ValueError, match="cow"):
        load_embeddings(path)


def test_load_embeddings_zero_norm(tmp_path):
    path = write(tmp_path, '{"bkg": [0, 0]}')
    with pytest.raises(ValueError, match="bkg"):
        load_embeddings(path)


def test_load_embeddings_dimension_mismatch(tmp_path):
    path = write(tmp_path, '{"bkg": [1, 0], "cow": [0, 1, 2]}')
    with pytest.raises(ValueError, match="cow"):
        load_embeddings(path)


def test_load_embeddings_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_embeddings(str(tmp_path / "nope.json"))


def test_save_round_trip(tmp_path):
    table = EmbeddingTable.from_mapping({"bkg": [1.0, 0.0], "cow": [0.25, -2.0]})
    path = str(tmp_path / "out.json")
    save_embeddings(table, path)
    again = load_embeddings(path)
    assert again.dimension == 2
    assert np.allclose(again.vector("cow"), table.vector("cow"))


def test_semantic_similarity_values():
    table = EmbeddingTable.from_mapping({
        "a": [1.0, 0.0],
        "b": [0.0, 1.0],
        "c": [np.sqrt(2) / 2, np.sqrt(2) / 2],
    })
    assert semantic_similarity("a", "a", table) == pytest.approx(0.0, abs=1e-12)
    assert semantic_similarity("a", "b", table) == pytest.approx(-1.0, abs=1e-12)
    # frozen from the closed-form cosine expression: -(1 - cos 45deg)
    assert semantic_similarity("a", "c", table) == pytest.approx(
        -0.2928932188134524, abs=1e-12
    )
    with pytest.raises(ValueError, match="zebra"):
        semantic_similarity("a", "zebra", table)


def test_similarity_symmetry_and_scale_invariance():
    rng = np.random.default_rng(7)
    mapping = {f"c{i}": rng.standard_normal(6) for i in range(8)}
    table = EmbeddingTable.from_mapping(mapping)
    names = list(mapping)
    for a in names:
        for b in names:
            sab = semantic_similarity(a, b, table)
            sba = semantic_similarity(b, a, table)
            assert abs(sab - sba) < 1e-12
            assert -2.0 <= sab <= 0.0
        assert abs(semantic_similarity(a, a, table)) < 1e-12
    scaled = {n: (v * 37.5 if n == names[0] else v) for n, v in mapping.items()}
    table2 = EmbeddingTable.from_mapping(scaled)
    for b in names:
        assert semantic_similarity(names[0], b, table2) == pytest.approx(
            semantic_similarity(names[0], b, table), abs=1e-9
        )


def test_similarity_matrix_single_and_orthogonal():
    reg1 = ClassRegistry(["bkg"])
    t1 = EmbeddingTable.from_mapping({"bkg": [1.0, 0.0]})
    assert np.array_equal(similarity_matrix(reg1, t1), np.zeros((1, 1)))

    reg2 = ClassRegistry(["bkg", "x"])
    t2 = EmbeddingTable.from_mapping({"bkg": [1.0, 0.0], "x": [0.0, 1.0]})
    mat = similarity_matrix(reg2, t2)
    assert mat[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert mat[1, 0] == pytest.approx(-1.0, abs=1e-12)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def test_similarity_matrix_matches_scalar_oracle():
    tax = default_taxonomy()
    mat = similarity_matrix(tax.registry, tax.embeddings)
    names = tax.registry.names
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert mat[i, j] == pytest.approx(
                semantic_similarity(a, b, tax.embeddings), abs=1e-12
            )
    assert np.all(mat <= 0.0) and np.all(mat >= -2.0)


def test_similarity_matrix_unhoused_name():
    reg = ClassRegistry(["bkg", "a"])
    table = EmbeddingTable.from_mapping({"bkg": [1.0, 0.0]})
    with pytest.raises(ValueError, match="'a'"):
        similarity_matrix(reg, table)
