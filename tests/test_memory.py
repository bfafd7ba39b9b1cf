import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior.memory import (
    RATIO,
    ingest_external,
    mix_batch,
    populate_episodic,
)
from segprior.netpbm import write_ppm
from segprior.protocol import Sample, build_schedule, step_rows
from segprior.synthdata import default_taxonomy, generate_dataset

from helpers import pool_labels, step_samples

@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


@pytest.fixture(scope="module")
def data(taxonomy):
    return generate_dataset(taxonomy, 240, seed=33)


@pytest.fixture(scope="module")
def past(taxonomy, data):
    sched = build_schedule(taxonomy.registry, 4, 2, "overlap")
    return step_samples(data, sched, 0), sched


@pytest.fixture(scope="module")
def step1(data, past):
    """One step-1 sample, the step rows of a pool built to label a bank."""
    return step_samples(data, past[1], 1)[:1]


def present(samples):
    return [s.present for s in samples]


def test_populate_balanced(past, step1, taxonomy):
    """A full draw of distinct rows, each labelled in a step-1 pool with
    base classes only."""
    samples, sched = past
    rows = populate_episodic(present(samples), sched.base_classes, taxonomy.registry,
                             40, seed=1)
    assert len(rows) <= 40 and len(set(rows)) == len(rows)
    for labels in pool_labels(sched, 1, step1, [samples[k] for k in rows])[1:]:
        assert labels and labels <= set(sched.base_classes)
    # per-class quota: capacity 40 over 4 classes -> 10 each when pools allow
    assert len(rows) == 40


def test_populate_remainder_to_lowest_index(taxonomy):
    reg = taxonomy.registry
    a, b = reg.foreground_names[0], reg.foreground_names[1]
    def mk(name):
        m = np.zeros((4, 4), dtype=np.int32)
        m[0, 0] = reg.index_of(name)
        return Sample(image=np.zeros((4, 4, 3), np.uint8), dense_mask=m)
    samples = [mk(a) for _ in range(5)] + [mk(b) for _ in range(5)]
    rows = populate_episodic(present(samples), [a, b], reg, 3, seed=0)
    labels = [a if k < 5 else b for k in rows]
    assert labels.count(a) == 2 and labels.count(b) == 1


def test_populate_matches_a_replayed_draw(taxonomy):
    """Each class in turn draws its quota from the rows that show it and
    that no earlier class took, sorted; a class with an empty pool draws
    nothing and leaves the generator to the next class.  A step-1 pool
    labels each drawn row with the old classes it shows."""
    reg = taxonomy.registry
    a, b, c = reg.foreground_names[:3]
    shows = [{a}, {a, c}, {c}, {a}, {a, c}, {c}, {a}, {c}]
    samples = []
    for k, names in enumerate(shows):
        m = np.zeros((4, 4), dtype=np.int32)
        for col, name in enumerate(sorted(names)):
            m[0, col] = reg.index_of(name)
        samples.append(Sample(image=np.full((4, 4, 3), k, np.uint8), dense_mask=m))
    rows = populate_episodic(present(samples), [a, b, c], reg, 7, seed=4)
    rng = np.random.default_rng(4)
    expect, taken = [], set()
    for name, quota in ((a, 3), (c, 2)):
        pool = [k for k, names in enumerate(shows) if k not in taken and name in names]
        picks = sorted(int(v) for v in rng.choice(len(pool), size=quota, replace=False))
        taken.update(pool[p] for p in picks)
        expect += [pool[p] for p in picks]
    assert rows == expect
    sched = build_schedule(reg, 4, 2, "overlap")
    assert {a, b, c} <= set(sched.old_classes(1))
    new = np.zeros((4, 4), dtype=np.int32)
    new[0, 0] = reg.index_of(sched.increments[0][0])
    step1 = [Sample(image=np.zeros((4, 4, 3), np.uint8), dense_mask=new)]
    assert pool_labels(sched, 1, step1, [samples[k] for k in rows])[1:] == \
        [frozenset(shows[k] - {b}) for k in expect]


def test_populate_deterministic(past, taxonomy):
    samples, sched = past
    b1 = populate_episodic(present(samples), sched.base_classes, taxonomy.registry,
                           24, seed=7)
    b2 = populate_episodic(present(samples), sched.base_classes, taxonomy.registry,
                           24, seed=7)
    assert b1 == b2 and len(b1) == 24


def test_populate_from_a_manifest_reads_only_its_draws(tmp_path, taxonomy,
                                                       monkeypatch):
    """A loaded manifest's own present lists fill the pools, so the draw
    reads no image, and equals one drawn from the samples read in full.
    A step's pool then reads the drawn rows, each once."""
    from segprior import netpbm
    from segprior.synthdata import export_dataset, load_dataset

    manifest, = export_dataset(taxonomy, [(str(tmp_path), 24, 5)], image_size=40)
    files, _ = load_dataset(manifest)
    sched = build_schedule(taxonomy.registry, 4, 2, "overlap")
    want = populate_episodic(present(list(files)), sched.base_classes,
                             taxonomy.registry, 6, seed=2)
    step1 = [files[k] for k in step_rows(files.present, sched, 1)[:1]]
    reads = []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    rows = populate_episodic(files.present, sched.base_classes, taxonomy.registry,
                             6, seed=2)
    assert reads == []
    assert rows == want and len(rows) == 6
    pool_labels(sched, 1, step1, files[rows])
    assert [os.path.basename(path) for path in reads] == \
        [f"img_{k:05d}.ppm" for k in rows]


def test_populate_empty_stream(taxonomy):
    with pytest.raises(ValueError):
        populate_episodic([], ["disc_solid"], taxonomy.registry, 4, seed=0)


def test_capacity_never_exceeded_and_counts_close(past, taxonomy):
    samples, sched = past
    for cap in (3, 7, 11, 40):
        rows = populate_episodic(present(samples), sched.base_classes,
                                 taxonomy.registry, cap, seed=2)
        assert len(rows) <= cap


def test_external_round_trip(tmp_path, past, step1, taxonomy):
    """Each row loads as a mask-less sample showing its class, and a step's
    pool labels it with that class alone."""
    samples, sched = past
    reg = taxonomy.registry
    bank = populate_episodic(present(samples), sched.base_classes, reg, 12, seed=3)
    names = [min(n for n in sched.base_classes if reg.index_of(n) in samples[k].present)
             for k in bank]
    # one 'class<TAB>path' row per entry, paths relative to the manifest
    (tmp_path / "memory_images").mkdir()
    rows = []
    for i, (k, name) in enumerate(zip(bank, names)):
        rel = f"memory_images/mem_{i:05d}.ppm"
        write_ppm(str(tmp_path / rel), samples[k].image)
        rows.append(f"{name}\t{rel}\n")
    manifest = tmp_path / "memory_manifest.tsv"
    manifest.write_text("".join(rows), encoding="utf-8")
    loaded = ingest_external(str(manifest), sched.old_classes(1), reg)
    assert len(loaded) == len(bank)
    for k, name, back in zip(bank, names, loaded):
        assert np.array_equal(samples[k].image, back.image)
        assert back.dense_mask is None and back.present == {reg.index_of(name)}
    assert pool_labels(sched, 1, step1, loaded)[1:] == [{name} for name in names]


def test_external_empty_manifest(tmp_path, past):
    path = tmp_path / "m.tsv"
    path.write_text("")
    bank = ingest_external(str(path), past[1].old_classes(1), past[1].registry)
    assert len(bank) == 0


def test_external_missing_manifest(tmp_path, past):
    with pytest.raises(FileNotFoundError, match="memory manifest not found"):
        ingest_external(str(tmp_path / "m.tsv"), past[1].old_classes(1),
                        past[1].registry)


def test_external_unknown_class(tmp_path, past):
    path = tmp_path / "m.tsv"
    path.write_text("dragon\timg.ppm\n")
    with pytest.raises(ValueError, match="m.tsv:1: class 'dragon'"):
        ingest_external(str(path), past[1].old_classes(1), past[1].registry)


@pytest.mark.parametrize("name", ["bkg", "disc_striped", "cross_striped"])
def test_external_row_must_name_an_old_class(tmp_path, past, name):
    """At step 1 only the base classes are old: a row naming bkg, a class
    of step 1 itself or a step-2 class raises ValueError naming the row."""
    samples, sched = past
    write_ppm(str(tmp_path / "a.ppm"), samples[0].image)
    path = tmp_path / "m.tsv"
    path.write_text(f"disc_solid\ta.ppm\n{name}\ta.ppm\n")
    with pytest.raises(ValueError, match=f"m.tsv:2: class '{name}' is not an old class"):
        ingest_external(str(path), sched.old_classes(1), sched.registry)
    if name == "disc_striped":    # a step-1 class is old at step 2
        bank = ingest_external(str(path), sched.old_classes(2), sched.registry)
        assert [e.present for e in bank] == [{sched.registry.index_of("disc_solid")},
                                             {sched.registry.index_of("disc_striped")}]


def test_external_image_of_another_size(tmp_path, past, step1):
    """A row whose image is not the shape of the step's images loads, and
    the step's pool raises ValueError naming its bank position and both
    shapes."""
    samples, sched = past
    write_ppm(str(tmp_path / "a.ppm"), samples[0].image)
    write_ppm(str(tmp_path / "small.ppm"), samples[0].image[:40, :40])
    path = tmp_path / "m.tsv"
    path.write_text("disc_solid\ta.ppm\ndisc_solid\tsmall.ppm\n")
    bank = ingest_external(str(path), sched.old_classes(1), sched.registry)
    assert len(bank) == 2
    with pytest.raises(ValueError, match=r"memory entry 1 has an image of shape "
                                         r"\(40, 40, 3\), but the step's first image "
                                         r"has \(64, 64, 3\)"):
        pool_labels(sched, 1, step1, bank)


def test_external_bank_is_read_by_the_pool_alone(tmp_path, past, step1,
                                                  monkeypatch):
    """Building an external bank reads no image; the step's pool then reads
    each bank image once, in bank order."""
    from segprior import netpbm

    samples, sched = past
    names = [f"m{i}.ppm" for i in range(3)]
    for i, name in enumerate(names):
        write_ppm(str(tmp_path / name), samples[i].image)
    path = tmp_path / "m.tsv"
    path.write_text("".join(f"disc_solid\t{name}\n" for name in names))
    reads = []
    real_read = netpbm.read_ppm

    def spy_read(p):
        reads.append(os.path.basename(p))
        return real_read(p)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    bank = ingest_external(str(path), sched.old_classes(1), sched.registry)
    assert reads == []
    assert pool_labels(sched, 1, step1, bank)[1:] == [{"disc_solid"}] * 3
    assert reads == names


def test_external_unreadable_image(tmp_path, past):
    path = tmp_path / "m.tsv"
    path.write_text("disc_solid\tmissing.ppm\n")
    with pytest.raises(ValueError, match="missing.ppm"):
        ingest_external(str(path), past[1].old_classes(1), past[1].registry)


def test_mix_batch():
    # the pool rows of a 16-row bank after 24 step rows, as a step mixes them
    bank = range(24, 40)
    batch = list(range(24))
    mixed = mix_batch(batch, bank, np.random.default_rng(1))
    # a quarter of the batch, the last six slots, drawn without replacement
    assert RATIO == 0.25
    assert mixed[:18] == batch[:18]
    assert all(x in bank for x in mixed[18:])
    assert len(set(mixed[18:])) == 6
    with pytest.raises(ValueError):
        mix_batch(batch, [], np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 16), bank_size=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_mix_batch_properties(b, bank_size, seed):
    memory = [object() for _ in range(bank_size)]
    batch = [object() for _ in range(b)]
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    mixed = mix_batch(batch, memory, rng)
    k = int(np.floor(RATIO * b))
    assert len(mixed) == b
    assert all(m is c for m, c in zip(mixed[:b - k], batch))
    tail = mixed[b - k:]
    assert all(any(t is e for e in memory) for t in tail)
    if bank_size >= k:
        assert len({id(t) for t in tail}) == k
    if k == 0:     # a batch of fewer than 4 items takes no memory item
        assert rng.bit_generator.state == state
