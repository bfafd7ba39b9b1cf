import json
import os
import re

import numpy as np
import pytest

from helpers import ProcessLog, semantic_similarity
from segprior import netpbm
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
    # embedding invariants hold: one shared dimension, nonzero norms
    vectors = [taxonomy.embeddings.vector(name) for name in reg.names]
    assert len({vec.shape for vec in vectors}) == 1
    assert all(np.linalg.norm(vec) > 0 for vec in vectors)


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
    present = samples[0].present
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
        for idx in s.present:
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
    manifest, = export_dataset(taxonomy, [(str(tmp_path), 4, 21)])
    loaded, classes = load_dataset(manifest)
    assert classes == list(taxonomy.registry.names)
    assert len(loaded) == len(samples)
    for orig, back in zip(samples, loaded):
        assert np.array_equal(orig.image, back.image)
        assert np.array_equal(orig.dense_mask, back.dense_mask)
        assert orig.dense_mask.dtype == back.dense_mask.dtype == np.uint8
        assert back.present == orig.present


def test_loaded_samples_are_read_when_indexed(taxonomy, tmp_path, monkeypatch):
    samples = generate_dataset(taxonomy, 7, image_size=40, seed=22)
    manifest, = export_dataset(taxonomy, [(str(tmp_path), 7, 22)], image_size=40)
    reads = []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    files, _ = load_dataset(manifest)
    assert len(files) == 7 and reads == []
    cuts = [slice(None), slice(2, 5), slice(4, None), slice(None, None, -1),
            slice(-3, -1), slice(1, 7, 3), slice(5, 2), slice(9, 12)]
    for cut in cuts:
        part = files[cut]
        assert reads == []          # slicing reads nothing
        want = samples[cut]
        assert len(part) == len(want)
        got = list(part)
        for a, b in zip(got, want):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.dense_mask, b.dense_mask)
        assert len(reads) == len(want)
        reads.clear()
    assert np.array_equal(files[-1].image, samples[-1].image)
    assert reads == ["img_00006.ppm"]
    with pytest.raises(IndexError):
        files[7]


@pytest.mark.parametrize("bad", [256, 300, -1])
def test_pgm_writer_rejects_values_outside_a_byte(tmp_path, bad):
    path = tmp_path / "mask.pgm"
    gray = np.zeros((3, 4), dtype=np.int32)
    gray[1, 2] = bad
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        netpbm.write_pgm(str(path), gray)
    assert not path.exists()
    gray[1, 2] = 255
    netpbm.write_pgm(str(path), gray)
    assert np.array_equal(netpbm.read_pgm(str(path)), gray)


@pytest.mark.parametrize("bad", [256, 300, -1])
def test_ppm_writer_rejects_values_outside_a_byte(tmp_path, bad):
    path = tmp_path / "image.ppm"
    rgb = np.zeros((3, 4, 3), dtype=np.int64)
    rgb[2, 0, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        netpbm.write_ppm(str(path), rgb)
    assert not path.exists()
    rgb[2, 0, 1] = 255
    netpbm.write_ppm(str(path), rgb)
    assert np.array_equal(netpbm.read_ppm(str(path)), rgb)


@pytest.mark.parametrize("rows", [slice(0, 3), slice(3, 9), slice(4, 4),
                                  slice(8, 9), slice(None)])
def test_a_range_call_equals_its_slice_of_the_whole_call(taxonomy, rows):
    whole, whole_geoms = generate_dataset(taxonomy, 9, image_size=48, seed=14,
                                          with_geometry=True)
    part, geoms = generate_dataset(taxonomy, 9, image_size=48, seed=14,
                                   with_geometry=True, rows=rows)
    assert len(part) == len(whole[rows])
    for a, b in zip(part, whole[rows]):
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.dense_mask, b.dense_mask)
    assert geoms == whole_geoms[rows]


@pytest.mark.parametrize("seed", [6, 7, 14])
def test_shapes_too_tall_for_a_40px_image_are_drawn_again(taxonomy, seed):
    """At 40 px a triangle can be taller than the image leaves room for;
    such a draw is redrawn, and every placed shape is centred inside it."""
    samples, geoms = generate_dataset(taxonomy, 9, image_size=40, seed=seed,
                                      with_geometry=True)
    assert len(samples) == 9
    for sample, placed in zip(samples, geoms):
        assert placed and sample.dense_mask.any()
        for shape in placed:
            assert 0 < shape.cx < 40 and 0 < shape.cy < 40


def files_under(root):
    """relative path -> bytes of every file under root."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def one_process_write(taxonomy, outdir, n, seed):
    """A 48 px split written sample by sample in this process, the way
    export_dataset lays it out; its files as ``files_under`` gives them."""
    os.makedirs(os.path.join(outdir, "images"))
    os.makedirs(os.path.join(outdir, "masks"))
    rows = []
    for i, sample in enumerate(generate_dataset(taxonomy, n, image_size=48, seed=seed)):
        row = {"image": os.path.join("images", f"img_{i:05d}.ppm"),
               "mask": os.path.join("masks", f"mask_{i:05d}.pgm"),
               "present": [taxonomy.registry.names[k]
                           for k in sorted(sample.present) if k]}
        netpbm.write_ppm(os.path.join(outdir, row["image"]), sample.image)
        netpbm.write_pgm(os.path.join(outdir, row["mask"]), sample.dense_mask)
        rows.append(row)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"classes": list(taxonomy.registry.names), "samples": rows}, fh,
                  indent=1)
        fh.write("\n")
    return files_under(outdir)


@pytest.mark.parametrize("eval_n", [0, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_two_process_writer_is_byte_equal_to_one_process(taxonomy, tmp_path,
                                                         monkeypatch, n, eval_n):
    """export_dataset writes the first half of each split here and the
    rest in one worker, and every file it writes is the one a
    one-process write of generate_dataset's samples gives."""
    splits = [(str(tmp_path / "train"), n, 31)]
    if eval_n:
        splits.append((str(tmp_path / "eval"), eval_n, 32))
    want = [one_process_write(taxonomy, str(tmp_path / "one" / os.path.basename(d)),
                              size, seed) for d, size, seed in splits]
    log = ProcessLog()
    real_write = netpbm.write_ppm

    def spy_write(path, rgb):
        log.append(os.path.relpath(path, tmp_path))
        return real_write(path, rgb)

    monkeypatch.setattr(netpbm, "write_ppm", spy_write)
    paths = export_dataset(taxonomy, splits, image_size=48)
    assert paths == [os.path.join(d, "manifest.json") for d, _, _ in splits]
    assert [files_under(d) for d, _, _ in splits] == want
    want_here, want_worker = [], []
    for outdir, size, _ in splits:
        names = [os.path.join(os.path.basename(outdir), "images", f"img_{i:05d}.ppm")
                 for i in range(size)]
        want_here += names[:(size + 1) // 2]
        want_worker += names[(size + 1) // 2:]
    writes = log.drain()
    assert [name for pid, name in writes if pid == os.getpid()] == want_here
    assert [name for pid, name in writes if pid != os.getpid()] == want_worker
    assert len({pid for pid, _ in writes} - {os.getpid()}) == (1 if want_worker else 0)


def test_a_mask_that_disagrees_with_its_manifest_row_is_refused(taxonomy, tmp_path):
    manifest, = export_dataset(taxonomy, [(str(tmp_path), 3, 40)], image_size=48)
    files, _ = load_dataset(manifest)
    mask_path = str(tmp_path / "masks" / "mask_00001.pgm")
    mask = netpbm.read_pgm(mask_path)
    mask[mask == min(files.present[1])] = 0
    netpbm.write_pgm(mask_path, mask)
    files[0], files[2]
    with pytest.raises(ValueError, match=re.escape(mask_path)):
        files[1]


def test_rows_are_chosen_by_their_present_lists_before_any_read(taxonomy, tmp_path,
                                                                monkeypatch):
    samples = generate_dataset(taxonomy, 6, image_size=48, seed=41)
    manifest, = export_dataset(taxonomy, [(str(tmp_path), 6, 41)], image_size=48)
    reads = []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    files, _ = load_dataset(manifest)
    assert files.present == tuple(s.present - {0} for s in samples)
    chosen = files[[4, 1]]
    assert reads == [] and len(chosen) == 2
    for got, want in zip(chosen, (samples[4], samples[1])):
        assert np.array_equal(got.image, want.image)
    assert reads == ["img_00004.ppm", "img_00001.ppm"]
