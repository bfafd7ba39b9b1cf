import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import protocol
from segprior.memory import populate_episodic
from segprior.protocol import Sample, build_schedule
from segprior.synthdata import default_taxonomy, generate_dataset

from helpers import pool_labels, step_samples


@pytest.fixture(scope="module")
def taxonomy():
    return default_taxonomy()


@pytest.fixture(scope="module")
def toy_dataset(taxonomy):
    return generate_dataset(taxonomy, 200, seed=17)


def few_shot_sample(dataset, schedule, step, k, seed):
    """The samples protocol.few_shot_rows draws from a list of samples."""
    rows = protocol.few_shot_rows([s.present for s in dataset], schedule, step, k, seed)
    return [dataset[i] for i in rows]


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
    assert step_samples([only_future], sched, 1) == []
    old_and_current = make_sample(reg, [sched.base_classes[0], step1[0]])
    ov = build_schedule(reg, 4, 2, "overlap")
    assert step_samples([old_and_current], ov, 1) == [old_and_current]
    only_old = make_sample(reg, [sched.base_classes[0]])
    assert step_samples([only_old], ov, 1) == []
    assert step_samples([only_old], sched, 1) == []
    current_plus_future = make_sample(reg, [step1[0], step2[0]])
    assert step_samples([current_plus_future], ov, 1) == [current_plus_future]
    assert step_samples([current_plus_future], sched, 1) == []


def admitted(present, schedule, step):
    """The defining predicate of a step's samples, on one present set."""
    reg = schedule.registry
    current = {reg.index_of(c) for c in schedule.classes_at_step(step)}
    future = {reg.index_of(c) for c in schedule.future_classes(step)}
    return bool(present & current) and not (schedule.mode == "disjoint" and present & future)


def test_filter_soundness_brute(taxonomy, toy_dataset):
    """Retained iff the defining predicate holds, on 200 samples, both modes."""
    reg = taxonomy.registry
    for mode in ("overlap", "disjoint"):
        sched = build_schedule(reg, 4, 2, mode)
        for step in range(sched.n_steps):
            kept = step_samples(toy_dataset, sched, step)
            kept_ids = {id(s) for s in kept}
            for sample in toy_dataset:
                want = admitted(sample.present, sched, step)
                assert (id(sample) in kept_ids) == want


def test_step_rows_with_or_without_the_background_index(taxonomy, toy_dataset):
    """Rows chosen from present sets alone, with or without the background
    index a manifest leaves out, are the samples the predicate admits."""
    for mode in ("overlap", "disjoint"):
        sched = build_schedule(taxonomy.registry, 4, 2, mode)
        for step in range(sched.n_steps):
            present = [s.present for s in toy_dataset]
            want = [k for k, p in enumerate(present) if admitted(p, sched, step)]
            assert protocol.step_rows(present, sched, step) == want
            assert protocol.step_rows([p - {0} for p in present], sched, step) == want


def test_disjoint_subset_of_overlap(taxonomy, toy_dataset):
    reg = taxonomy.registry
    ov = build_schedule(reg, 4, 2, "overlap")
    dj = build_schedule(reg, 4, 2, "disjoint")
    for step in range(ov.n_steps):
        ov_ids = {id(s) for s in step_samples(toy_dataset, ov, step)}
        dj_ids = {id(s) for s in step_samples(toy_dataset, dj, step)}
        assert dj_ids <= ov_ids


def test_weak_labels(taxonomy):
    """A step's pool labels a step row with the step's classes it shows; a
    row that shows none of them is rejected, and step 0, trained on dense
    masks, has no pool."""
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    step1 = sched.increments[0]
    old = sched.base_classes[0]
    sample = make_sample(reg, [old, step1[0]])
    both = make_sample(reg, list(step1))
    assert pool_labels(sched, 1, [sample, both]) == [{step1[0]}, set(step1)]
    none = make_sample(reg, [old])
    with pytest.raises(ValueError, match="step row 1 shows none of the step's classes"):
        pool_labels(sched, 1, [sample, none])
    with pytest.raises(ValueError):
        pool_labels(sched, 0, [sample])


def test_weak_labels_never_leak(taxonomy, toy_dataset):
    reg = taxonomy.registry
    sched = build_schedule(reg, 4, 2, "overlap")
    for step in (1, 2):
        old = set(sched.old_classes(step))
        future = set(sched.future_classes(step))
        samples = step_samples(toy_dataset, sched, step)
        labels = pool_labels(sched, step, samples)
        assert len(labels) == len(samples)
        for s, names in zip(samples, labels):
            assert names
            assert not (names & old)
            assert not (names & future)
            assert names == {n for n in sched.classes_at_step(step)
                             if reg.index_of(n) in s.present}


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
    eligible = step_samples(toy_dataset, sched, 1)
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
                if i not in taken and idx in s.present]
        picks = rng.choice(len(pool), size=2, replace=False)
        for p in sorted(int(v) for v in picks):
            taken.add(pool[p])
            expect.append(pool[p])
    assert [id(eligible[i]) for i in expect] == [id(s) for s in a]
    # rows drawn from present sets without the background index a manifest
    # leaves out are the same
    present = [s.present - {0} for s in eligible]
    assert protocol.few_shot_rows(present, sched, 1, 2, seed=9) == expect


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
        assert sample.present == {int(v) for v in np.unique(sample.dense_mask)}
    # uint8, as generated and loaded masks are, and any wider integer type
    assert all(s.dense_mask.dtype == np.uint8 for s in data)
    mask = np.array([[0, 3, 3], [7, 0, 1]], dtype=np.int32)
    assert present_classes(mask) == {0, 1, 3, 7}
    assert present_classes(mask.astype(np.uint8)) == {0, 1, 3, 7}

    scans.clear()
    base = step_samples(data, sched, 0)
    step1 = step_samples(data, sched, 1)
    populate_episodic([s.present for s in base], sched.base_classes, reg, 6, seed=1)
    few_shot_sample(data, sched, 1, 1, seed=2)
    labels = pool_labels(sched, 1, step1, base[:6])
    for sample, names in zip(step1, labels):
        assert names == {n for n in sched.classes_at_step(1)
                         if reg.index_of(n) in sample.present}
        assert sample.present == {int(v) for v in np.unique(sample.dense_mask)}
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
            assert reg.index_of(name) in s.present
    again = few_shot_sample(pool, sched, step, k, seed=seed)
    assert [id(s) for s in again] == [id(s) for s in picks]
