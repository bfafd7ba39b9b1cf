import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import protocol
from segprior.memory import populate_episodic
from segprior.protocol import (
    Sample,
    build_schedule,
    few_shot_sample,
    filter_step,
    weak_labels,
    with_weak_labels,
)
from segprior.synthdata import default_taxonomy, generate_dataset


@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


@pytest.fixture(scope="module")
def toy_dataset(taxonomy):
    return generate_dataset(taxonomy, 200, seed=17)


def make_sample(registry, names, size=8):
    mask = np.zeros((size, size), dtype=np.int32)
    for k, name in enumerate(names):
        mask[k, :] = registry.index_of(name)
    return Sample(image=np.zeros((size, size, 3), dtype=np.uint8), dense_mask=mask)


def test_build_schedule_counts(taxonomy):
    reg = taxonomy.registry  # 8 foreground classes
    s42 = build_schedule(reg, 4, 2, "overlap")
    assert len(s42.base_classes) == 4
    assert len(s42.increments) == 2
    assert s42.n_steps == 3
    s41 = build_schedule(reg, 4, 1, "disjoint")
    assert s41.n_steps == 5
    assert all(len(g) == 1 for g in s41.increments)
    # groups partition the foreground set
    everything = set(s42.base_classes)
    for grp in s42.increments:
        assert not everything & set(grp)
        everything |= set(grp)
    assert everything == set(reg.foreground_names)


def test_build_schedule_paper_arithmetic():
    from segprior.class_semantics import ClassRegistry
    reg20 = ClassRegistry(["bkg"] + [f"c{i}" for i in range(20)])
    assert build_schedule(reg20, 15, 5, "overlap").n_steps == 2
    ten_two = build_schedule(reg20, 10, 2, "overlap")
    assert ten_two.n_steps == 6
    assert [len(ten_two.base_classes)] + [len(g) for g in ten_two.increments] == \
        [10, 2, 2, 2, 2, 2]
    reg6 = ClassRegistry(["bkg"] + [f"c{i}" for i in range(6)])
    assert build_schedule(reg6, 4, 1, "overlap").n_steps == 3


def test_build_schedule_errors(taxonomy):
    reg = taxonomy.registry
    with pytest.raises(ValueError):
        build_schedule(reg, 4, 3, "overlap")  # 4 not divisible by 3
    with pytest.raises(ValueError):
        build_schedule(reg, 8, 1, "overlap")  # n_base >= N
    with pytest.raises(ValueError):
        build_schedule(reg, 4, 2, "sliding")


def test_schedule_orderings_cover_same_classes(taxonomy):
    reg = taxonomy.registry
    a = build_schedule(reg, 4, 2, "overlap", ordering_seed=1)
    b = build_schedule(reg, 4, 2, "overlap", ordering_seed=2)
    cover = lambda s: set(s.base_classes) | {c for g in s.increments for c in g}
    assert cover(a) == cover(b) == set(reg.foreground_names)
    assert a.base_classes != b.base_classes or a.increments != b.increments


def test_filter_rules_handmade(taxonomy):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "disjoint")
    step1, step2 = sched.increments
    only_future = make_sample(reg, [step2[0]])
    assert filter_step([only_future], sched, 1) == []
    old_and_current = make_sample(reg, [sched.base_classes[0], step1[0]])
    ov = build_schedule(reg, 4, 2, "overlap")
    assert filter_step([old_and_current], ov, 1) == [old_and_current]
    only_old = make_sample(reg, [sched.base_classes[0]])
    assert filter_step([only_old], ov, 1) == []
    assert filter_step([only_old], sched, 1) == []
    current_plus_future = make_sample(reg, [step1[0], step2[0]])
    assert filter_step([current_plus_future], ov, 1) == [current_plus_future]
    assert filter_step([current_plus_future], sched, 1) == []


def test_filter_soundness_brute(taxonomy, toy_dataset):
    """Retained iff the defining predicate holds, on 200 samples, both modes."""
    reg = taxonomy.registry
    for mode in ("overlap", "disjoint"):
        sched = build_schedule(reg, 4, 2, mode)
        for step in range(sched.n_steps):
            current = {reg.index_of(c) for c in sched.classes_at_step(step)}
            future = {reg.index_of(c) for c in sched.future_classes(step)}
            kept = filter_step(toy_dataset, sched, step)
            kept_ids = {id(s) for s in kept}
            for sample in toy_dataset:
                present = sample.present_indices()
                want = bool(present & current)
                if mode == "disjoint" and present & future:
                    want = False
                assert (id(sample) in kept_ids) == want


def test_step_rows_pick_what_filter_step_keeps(taxonomy, toy_dataset):
    """Rows chosen from present sets alone, with or without the background
    index a manifest leaves out, are the samples filter_step keeps."""
    for mode in ("overlap", "disjoint"):
        sched = build_schedule(taxonomy.registry, 4, 2, mode)
        for step in range(sched.n_steps):
            kept = {id(s) for s in filter_step(toy_dataset, sched, step)}
            want = [k for k, s in enumerate(toy_dataset) if id(s) in kept]
            present = [s.present_indices() for s in toy_dataset]
            assert protocol.step_rows(present, sched, step) == want
            assert protocol.step_rows([p - {0} for p in present], sched, step) == want


def test_disjoint_subset_of_overlap(taxonomy, toy_dataset):
    reg = taxonomy.registry
    ov = build_schedule(reg, 4, 2, "overlap")
    dj = build_schedule(reg, 4, 2, "disjoint")
    for step in range(ov.n_steps):
        ov_ids = {id(s) for s in filter_step(toy_dataset, ov, step)}
        dj_ids = {id(s) for s in filter_step(toy_dataset, dj, step)}
        assert dj_ids <= ov_ids


def test_weak_labels(taxonomy):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    step1 = sched.increments[0]
    old = sched.base_classes[0]
    sample = make_sample(reg, [old, step1[0]])
    assert weak_labels(sample, sched, 1) == {step1[0]}
    both = make_sample(reg, list(step1))
    assert weak_labels(both, sched, 1) == set(step1)
    none = make_sample(reg, [old])
    assert weak_labels(none, sched, 1) == frozenset()
    with pytest.raises(ValueError):
        weak_labels(sample, sched, 0)


def test_weak_labels_never_leak(taxonomy, toy_dataset):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    for step in (1, 2):
        old = set(sched.old_classes(step))
        future = set(sched.future_classes(step))
        for s in with_weak_labels(filter_step(toy_dataset, sched, step), sched, step):
            assert s.weak_labels
            assert not (s.weak_labels & old)
            assert not (s.weak_labels & future)


def test_few_shot_exhaustive_pool(taxonomy):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    name = sched.increments[0][0]
    other = sched.increments[0][1]
    pool = [make_sample(reg, [name]) for _ in range(5)]
    pool += [make_sample(reg, [other]) for _ in range(5)]
    out = few_shot_sample(pool, sched, 1, 5, seed=0)
    assert len(out) == 10
    assert {id(s) for s in out} == {id(s) for s in pool}


def test_few_shot_determinism_and_replay(taxonomy, toy_dataset):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    eligible = filter_step(toy_dataset, sched, 1)
    a = few_shot_sample(eligible, sched, 1, 2, seed=9)
    b = few_shot_sample(eligible, sched, 1, 2, seed=9)
    assert [id(s) for s in a] == [id(s) for s in b]
    assert len(a) == 4
    assert len({id(s) for s in a}) == 4  # no duplicates across class pools
    # replay oracle: an independent generator seeded the same way picks the
    # same indices from the same pools
    rng = np.random.default_rng(9)
    expect = []
    taken = set()
    for name in sched.classes_at_step(1):
        idx = reg.index_of(name)
        pool = [i for i, s in enumerate(eligible)
                if i not in taken and idx in s.present_indices()]
        picks = rng.choice(len(pool), size=2, replace=False)
        for p in sorted(int(v) for v in picks):
            taken.add(pool[p])
            expect.append(pool[p])
    assert [id(eligible[i]) for i in expect] == [id(s) for s in a]


def test_few_shot_insufficient(taxonomy):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    name = sched.increments[0][0]
    pool = [make_sample(reg, [name])]
    with pytest.raises(ValueError, match="eligible"):
        few_shot_sample(pool, sched, 1, 5, seed=0)


def test_present_classes_scanned_once_per_sample(taxonomy, monkeypatch):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    scans = []
    present_classes = protocol.present_classes

    def counting(mask):
        scans.append(mask)
        return present_classes(mask)

    monkeypatch.setattr(protocol, "present_classes", counting)
    data = generate_dataset(taxonomy, 40, seed=23)
    assert len(scans) == len(data)
    for sample in data:
        assert sample.present_indices() == {int(v) for v in np.unique(sample.dense_mask)}
    # uint8, as generated and loaded masks are, and any wider integer type
    assert all(s.dense_mask.dtype == np.uint8 for s in data)
    mask = np.array([[0, 3, 3], [7, 0, 1]], dtype=np.int32)
    assert present_classes(mask) == {0, 1, 3, 7}
    assert present_classes(mask.astype(np.uint8)) == {0, 1, 3, 7}

    scans.clear()
    base = filter_step(data, sched, 0)
    step1 = with_weak_labels(filter_step(data, sched, 1), sched, 1)
    populate_episodic(base, sched.base_classes, reg, 6, seed=1)
    few_shot_sample(data, sched, 1, 1, seed=2)
    for sample in step1:
        assert weak_labels(sample, sched, 1) == sample.weak_labels
        assert sample.present_indices() == {int(v) for v in np.unique(sample.dense_mask)}
    assert scans == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_few_shot_sample_properties(taxonomy, data):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    step = data.draw(st.integers(1, len(sched.increments)), label="step")
    k = data.draw(st.integers(1, 3), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    current = list(sched.classes_at_step(step))
    fg = list(reg.names[1:])
    # random samples over all foreground classes, plus enough samples
    # showing every current class that no class pool runs short whatever
    # the earlier classes took; those sit in every pool at once
    mixes = data.draw(st.lists(st.lists(st.sampled_from(fg), min_size=1,
                                        max_size=4, unique=True),
                               max_size=12), label="mixes")
    mixes += [current] * (k * len(current))
    order = data.draw(st.permutations(range(len(mixes))), label="order")
    pool = [make_sample(reg, mixes[i]) for i in order]
    picks = few_shot_sample(pool, sched, step, k, seed=seed)
    assert len(picks) == k * len(current)
    assert len({id(s) for s in picks}) == len(picks)
    assert all(any(s is p for p in pool) for s in picks)
    for c, name in enumerate(current):
        for s in picks[c * k:(c + 1) * k]:
            assert reg.index_of(name) in s.present_indices()
    again = few_shot_sample(pool, sched, step, k, seed=seed)
    assert [id(s) for s in again] == [id(s) for s in picks]
