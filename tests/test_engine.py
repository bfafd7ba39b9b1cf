import contextlib
import copy
import dataclasses
import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import engine, layers, netpbm, objectives
from segprior.class_semantics import similarity_matrix
from segprior.engine import (
    EngineConfig,
    SegModel,
    StepState,
    base_train,
    extend_head,
    incremental_batch,
    incremental_step,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from segprior.layers import group_slices, shard_slices, zero_grads
from segprior.memory import populate_episodic
from segprior.objectives import LossConfig
from segprior.protocol import build_schedule, filter_step, with_weak_labels
from segprior.synthdata import (default_taxonomy, export_dataset, generate_dataset,
                                load_dataset)

from helpers import ProcessLog


WORLD_SEED = 101


@pytest.fixture(scope="module")
def world():
    tax = default_taxonomy()
    sched = build_schedule(tax.registry, 4, 2, "overlap")
    data = generate_dataset(tax, 60, seed=WORLD_SEED)
    sim = similarity_matrix(tax.registry, tax.embeddings)
    return tax, sched, data, sim


def small_cfg(**kw):
    defaults = dict(
        epochs_base=3,
        epochs_incremental=3,
        batch_size=12,
        seed=5,
        lr_base=0.01,
        lr_incremental=0.005,
    )
    defaults.update(kw)
    return EngineConfig(**defaults)


def base_model(world, cfg, train=True):
    tax, sched, data, _ = world
    names = sched.channel_names(0)
    model = SegModel.init(names, seed=cfg.seed, dtype=cfg.np_dtype())
    if train:
        base = filter_step(data, sched, 0)
        model, trace = base_train(model, base, tax.registry, cfg)
        return model, trace
    return model, None


def step_inputs(world, model, cfg, step=1, loss_cfg=None):
    tax, sched, data, sim = world
    extended = extend_head(model, sched.classes_at_step(step), seed=cfg.seed + step)
    samples = with_weak_labels(filter_step(data, sched, step), sched, step)
    state = StepState(
        step=step,
        old_model=model,
        model=extended,
        loss_cfg=loss_cfg or LossConfig(seg_warmup_epochs=1),
        engine_cfg=cfg,
        n_old=len(model.class_names),
    )
    return state, samples, sim


def one_batch(state, items, grads):
    """incremental_batch over all of items, in order, with a worker of its own."""
    with engine.incremental_shards(state, items) as shards:
        return incremental_batch(state, range(len(items)), grads, shards)


def test_step_leaves_old_model_unchanged(world):
    """The parent model is the step's old model; training a step changes
    none of its parameters and shares no array with the trained model."""
    tax = world[0]
    cfg = small_cfg(epochs_incremental=2)
    model, _ = base_model(world, cfg)
    before = {k: v.copy() for k, v in model.params().items()}
    state, samples, sim = step_inputs(world, model, cfg)
    trained, _ = incremental_step(state, samples, None, sim, tax.registry)
    assert state.old_model is model
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k
    new_params = trained.params()
    assert not np.array_equal(new_params["enc.0.W"], before["enc.0.W"])
    for k, v in model.params().items():
        assert not np.shares_memory(v, new_params[k]), k


def test_extend_head_preserves_old_channels(world):
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    x = np.full((2, 64, 64, 3), 0.1, dtype=cfg.np_dtype())
    feat, _ = model.encoder.forward(x)
    old_logits, _ = model.head.forward(feat)
    bigger = extend_head(model, ["new_a", "new_b"], seed=9)
    assert bigger.class_names == model.class_names + ("new_a", "new_b")
    feat2, _ = bigger.encoder.forward(x)
    logits2, _ = bigger.head.forward(feat2)
    assert np.array_equal(logits2[..., : len(model.class_names)], old_logits)
    twice = extend_head(model, ["new_a", "new_b"], seed=9)
    assert np.array_equal(twice.head.W, bigger.head.W)
    with pytest.raises(ValueError):
        extend_head(model, [], seed=0)
    with pytest.raises(ValueError):
        extend_head(model, [model.class_names[1]], seed=0)


def test_base_train_descends_and_is_deterministic(world):
    cfg = small_cfg()
    _, trace1 = base_model(world, cfg)
    _, trace2 = base_model(world, cfg)
    assert trace1 == trace2
    assert trace1[-1] < trace1[0]


def test_incremental_trace_and_warmup(world):
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    state, samples, sim = step_inputs(
        world, model, cfg, loss_cfg=LossConfig(seg_warmup_epochs=2)
    )
    tax = world[0]
    _, trace = incremental_step(state, samples, None, sim, tax.registry)
    assert len(trace) == cfg.epochs_incremental
    assert not trace[0]["seg_active"] and not trace[1]["seg_active"]
    assert trace[2]["seg_active"]
    assert trace[0]["seg"] == 0.0
    assert trace[2]["seg"] > 0.0
    for entry in trace:
        for key in ("cls", "kdl", "kde", "rasp"):
            assert np.isfinite(entry[key])


def test_incremental_determinism(world):
    cfg = small_cfg()
    tax = world[0]
    traces = []
    for _ in range(2):
        model, _ = base_model(world, cfg)
        state, samples, sim = step_inputs(world, model, cfg)
        _, trace = incremental_step(state, samples, None, sim, tax.registry)
        traces.append(trace)
    assert traces[0] == traces[1]


def test_channel_growth(world):
    tax, sched, data, sim = world
    cfg = small_cfg(epochs_incremental=1, epochs_base=1)
    model, _ = base_model(world, cfg)
    sizes = [model.n_classes()]
    for step in (1, 2):
        state, samples, _ = step_inputs(world, model, cfg, step=step)
        model, _ = incremental_step(state, samples, None, sim, tax.registry)
        sizes.append(model.n_classes())
    assert sizes == [5, 7, 9]
    assert sizes[-1] == 1 + len(tax.registry.foreground_names)


def test_batch_losses_match_objectives_recompute(world):
    """Engine batch components equal a standalone recomputation."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    loss_cfg = LossConfig(seg_warmup_epochs=0)
    state, samples, _ = step_inputs(world, model, cfg, loss_cfg=loss_cfg)
    items = engine._prepare_items(state, samples[:6], tax.registry, sim)
    state.epoch = 0
    grads = zero_grads(state.model.params())
    comps = one_batch(state, items, grads)

    # recomputation item by item, each one a batch of one through the
    # objectives module, normalised by itself
    x = engine._inputs(items, state.model.dtype)
    feat, _ = state.model.encoder.forward(x)
    z, _ = state.model.localizer.forward(feat)
    p_hat, _ = state.model.head.forward(feat)
    n_old = state.n_old
    agg = {k: 0.0 for k in ("cls", "kdl", "kde", "rasp", "seg")}
    for i, it in enumerate(items):
        zi, y_old = z[i:i + 1], it.y_old[None]
        scores, m, _ = objectives.image_scores_vjp(zi)
        agg["cls"] += objectives.cls_loss_grad(scores[0, n_old:], it.labels_new)[0]
        agg["kdl"] += objectives.kdl_loss_grad(zi[..., :n_old], y_old, 1)[0][0]
        agg["kde"] += objectives.kde_loss_grad(feat[i:i + 1], it.feat_old[None], 1)[0][0]
        agg["rasp"] += objectives.rasp_loss_grad(zi[0][:, :, it.present], it.rasp_target)[0]
        qt = objectives.pseudo_supervision(m, y_old)
        agg["seg"] += objectives.seg_loss_grad(p_hat[i:i + 1], qt, 1)[0][0]
    for key in agg:
        assert abs(agg[key] / len(items) - comps[key]) < 1e-10, key


def test_gradient_routing(world):
    """The head gets gradient only from seg, which also reaches the encoder;
    old-model parameters never change."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(
        world, model, cfg, loss_cfg=LossConfig(seg_warmup_epochs=100)
    )
    old_before = {k: v.copy() for k, v in state.old_model.params().items()}
    items = engine._prepare_items(state, samples[:6], tax.registry, sim)
    state.epoch = 0  # inside warmup: seg inactive
    grads = zero_grads(state.model.params())
    one_batch(state, items, grads)
    assert np.all(grads["head.W"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("loc."))
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("enc."))

    # after warmup the head trains, and its seg gradient reaches every
    # encoder weight while the localizer's gradient stays as it was
    state.epoch = 200
    grads_on = zero_grads(state.model.params())
    one_batch(state, items, grads_on)
    assert np.any(grads_on["head.W"] != 0.0)
    for k in grads:
        if k.startswith("enc.") and k.endswith(".W"):
            assert not np.array_equal(grads_on[k], grads[k]), k
        if k.startswith("loc."):
            assert np.array_equal(grads_on[k], grads[k]), k

    for k, v in state.old_model.params().items():
        assert np.array_equal(v, old_before[k])


def test_memory_changes_cls_path(world):
    tax, sched, data, sim = world
    cfg = small_cfg()
    base = filter_step(data, sched, 0)
    bank = populate_episodic(base, sched.base_classes, tax.registry, 8, seed=3)
    model, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(world, model, cfg)
    _, trace_mem = incremental_step(state, samples, bank, sim, tax.registry)
    model2, _ = base_model(world, cfg)
    state2, samples2, _ = step_inputs(world, model2, cfg)
    _, trace_plain = incremental_step(state2, samples2, None, sim, tax.registry)
    assert trace_mem != trace_plain


def test_checkpoint_round_trip(world, tmp_path):
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    path = str(tmp_path / "ckpt_step0.npz")
    save_checkpoint(model, path, step=0, config_hash="abc123")
    loaded, step, chash = load_checkpoint(path)
    assert step == 0 and chash == "abc123"
    assert loaded.class_names == model.class_names
    x = np.full((1, 64, 64, 3), -0.2, dtype=cfg.np_dtype())
    f1, _ = model.encoder.forward(x)
    f2, _ = loaded.encoder.forward(x)
    assert np.array_equal(f1, f2)
    l1, _ = model.head.forward(f1)
    l2, _ = loaded.head.forward(f2)
    assert np.array_equal(l1, l2)


def test_predict_dataset_shapes(world):
    """Counts are (truth, prediction) over the registry: each row adds up
    to its class's pixels in the masks, and only the model's classes are
    predicted."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    counts = predict_dataset(model, data[:5], tax.registry)
    n = len(tax.registry)
    assert counts.shape == (n, n) and counts.dtype == np.int64
    truth = np.concatenate([s.dense_mask.ravel() for s in data[:5]])
    assert np.array_equal(counts.sum(axis=1), np.bincount(truth, minlength=n))
    predicted = set(np.flatnonzero(counts.sum(axis=0)).tolist())
    assert predicted <= {tax.registry.index_of(name) for name in model.class_names}


def test_prepare_items_runs_the_old_model_in_groups(world):
    """float64: the old model runs cache-free (infer, never forward) in
    groups of at most GROUP_ITEMS per shard: a 9-image chunk splits 5 | 4,
    so groups of 3 and 2 run here and one of 4 in the worker.  Each item's
    scores and features equal the old model's forward of its image alone."""
    tax, sched, data, sim = world
    cfg = small_cfg(dtype="float64")
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg)
    log = ProcessLog()
    encoder = state.old_model.encoder
    real_infer = encoder.infer

    def spy_infer(x):
        log.append(len(x))
        return real_infer(x)

    def no_forward(x):
        raise AssertionError("the old model kept backward caches")

    encoder.infer, encoder.forward = spy_infer, no_forward
    items = engine._prepare_items(state, samples[:9], tax.registry, sim)
    sizes = log.drain()
    assert [n for pid, n in sizes if pid == os.getpid()] == [3, 2]
    assert [n for pid, n in sizes if pid != os.getpid()] == [4]
    del encoder.infer, encoder.forward
    for item, sample in zip(items, samples[:9]):
        x = engine.image_to_input(sample.image, cfg.np_dtype())[None]
        feat, _ = model.encoder.forward(x)
        logits, _ = model.head.forward(feat)
        np.testing.assert_allclose(item.feat_old, feat[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(item.y_old, objectives.sigmoid(logits)[0],
                                   rtol=1e-10, atol=1e-12)


def test_checkpoint_records_parent_config_hash(world, tmp_path):
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    old_style = str(tmp_path / "ckpt_step0.npz")
    save_checkpoint(model, old_style, step=0, config_hash="parent")
    with np.load(old_style) as data:
        assert "__parent_config_hash__" not in data.files
    # a checkpoint without the field still loads
    _, step, chash = load_checkpoint(old_style)
    assert (step, chash) == (0, "parent")
    child = str(tmp_path / "ckpt_step1.npz")
    save_checkpoint(model, child, step=1, config_hash="child",
                    parent_config_hash="parent")
    with np.load(child) as data:
        assert str(data["__parent_config_hash__"]) == "parent"
    _, step, chash = load_checkpoint(child)
    assert (step, chash) == (1, "child")


# ---------------------------------------------------------------------------
# Two-shard batches
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def whole_batch():
    """The engine runs each batch whole: one shard of one group, on this thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "shard_slices", lambda b: [slice(0, b)])
        patch.setattr(engine, "group_slices", lambda rows: [rows])
        yield


def assert_close_dicts(got, want, tol=1e-10):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=tol, atol=tol,
                                   err_msg=name)


def test_shard_slices_are_fixed_halves():
    assert shard_slices(1) == [slice(0, 1)]
    assert shard_slices(2) == [slice(0, 1), slice(1, 2)]
    assert shard_slices(3) == [slice(0, 2), slice(2, 3)]
    assert shard_slices(8) == [slice(0, 4), slice(4, 8)]


def test_base_train_shards_match_full_batch(world, monkeypatch):
    """float64: every step's gradient equals the whole-batch one at 1e-10."""
    cfg = small_cfg(dtype="float64", epochs_base=1, batch_size=10)
    tax, sched, data, _ = world
    # batches of 10, 10 and 3: shards of 5 run as groups of 3 and 2
    base = filter_step(data, sched, 0)[:23]

    steps = []

    class Recording(layers.SGDMomentum):
        def step(self, params, grads):
            steps.append({k: v.copy() for k, v in grads.items()})
            super().step(params, grads)

    monkeypatch.setattr(engine, "SGDMomentum", Recording)
    runs = []
    for whole in (False, True):
        steps.clear()
        model = SegModel.init(sched.channel_names(0), seed=cfg.seed, dtype=np.float64)
        loc_before = {k: v.copy() for k, v in model.localizer.params().items()}
        with whole_batch() if whole else contextlib.nullcontext():
            model, trace = base_train(model, base, tax.registry, cfg)
        runs.append((model, trace, list(steps)))
        # base training optimises the encoder and head only
        assert not any(k.startswith("loc.") for k in steps[0])
        for k, v in model.localizer.params().items():
            assert np.array_equal(v, loc_before[k])
    (m_sh, t_sh, g_sh), (m_one, t_one, g_one) = runs
    assert len(g_sh) == len(g_one) == 3
    np.testing.assert_allclose(t_sh, t_one, rtol=1e-10)
    for a, b in zip(g_sh, g_one):
        assert_close_dicts(a, b)
    assert_close_dicts(m_sh.params(), m_one.params())


@pytest.mark.parametrize("n_items", [1, 3, 8])
@pytest.mark.parametrize("seg_on", [False, True])
def test_incremental_batch_shards_match_full_batch(world, n_items, seg_on):
    """float64: shard gradients and losses equal the whole-batch ones at 1e-10."""
    tax, sched, data, sim = world
    cfg = small_cfg(dtype="float64")
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    state.epoch = 1 if seg_on else 0
    items = engine._prepare_items(state, samples[:n_items], tax.registry, sim)
    if n_items > 1:   # a memory item in the last slot, as mix_batch puts it
        bank = populate_episodic(filter_step(data, sched, 0), sched.base_classes,
                                 tax.registry, 4, seed=3)
        items[-1] = engine._prepare_memory(state, bank)[0]
    grads = zero_grads(state.model.params())
    comps = one_batch(state, items, grads)
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = one_batch(state, items, ref)
    assert_close_dicts(grads, ref)
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("enc."))

    # the old model's batched two-shard forward equals the whole-batch one
    prepared = engine._prepare_items(state, samples[:n_items], tax.registry, sim)
    with whole_batch():
        ref_items = engine._prepare_items(state, samples[:n_items], tax.registry, sim)
    for it, ref in zip(prepared, ref_items):
        for name in ("y_old", "feat_old", "rasp_target"):
            np.testing.assert_allclose(getattr(it, name), getattr(ref, name),
                                       rtol=1e-10, atol=1e-10, err_msg=name)


@pytest.fixture(scope="module")
def float64_pools(world):
    """A float64 step-1 state with prepared current and memory items."""
    tax, sched, data, sim = world
    cfg = small_cfg(dtype="float64")
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    current = engine._prepare_items(state, samples[:9], tax.registry, sim)
    bank = populate_episodic(filter_step(data, sched, 0), sched.base_classes,
                             tax.registry, 9, seed=3)
    memory = engine._prepare_memory(state, bank)
    return state, current, memory


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shard_local_losses_match_whole_batch(float64_pools, data):
    """float64: comps and gradients equal a whole-batch run at 1e-10."""
    state, current, memory = float64_pools
    n = data.draw(st.integers(1, 9), label="batch size")
    is_memory = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                          label="memory slots")
    order = data.draw(st.permutations(range(9)), label="item order")
    items = [memory[k] if mem else current[k] for k, mem in zip(order, is_memory)]
    state.epoch = 1 if data.draw(st.booleans(), label="seg on") else 0
    state.loss_cfg = dataclasses.replace(
        state.loss_cfg, lambda_rasp=data.draw(st.sampled_from([0.0, 1.0]), label="rasp"))

    log = ProcessLog()
    real_losses = engine._batch_losses

    def spy_losses(st_, group_items, *args):
        out = real_losses(st_, group_items, *args)
        # the worker's items are its inherited copies of these very objects
        first = next(i for i, it in enumerate(items) if it is group_items[0])
        log.append((first, out[0]))
        return out

    grads = zero_grads(state.model.params())
    with mock.patch.object(engine, "_batch_losses", spy_losses):
        comps = one_batch(state, items, grads)
    group_losses = [record for _, record in log.drain()]
    # the per-item losses are added one by one in item order
    total = 0.0
    for _, losses in sorted(group_losses, key=lambda c: c[0]):
        for value in losses["cls"]:
            total += value
    assert comps["cls"] == total / n
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = one_batch(state, items, ref)
    assert_close_dicts(grads, ref)
    assert comps.keys() == ref_comps.keys()
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    if all(is_memory):
        assert all(comps[k] == 0.0 for k in ("kdl", "kde", "rasp", "seg"))
    if state.loss_cfg.lambda_rasp == 0.0:      # RaSP runs iff lambda_rasp != 0
        assert comps["rasp"] == 0.0
        assert not any(losses["rasp"] for _, losses in group_losses)


@pytest.mark.parametrize("rasp", [0.0, 1.0])
@pytest.mark.parametrize("seg_on", [False, True])
def test_grouped_benchmark_batch_matches_one_forward(world, rasp, seg_on):
    """float64: a 24-item batch shaped like a step-1 benchmark batch (18
    current items, then 6 memory items) runs as groups of 4 on each shard,
    and its gradients and loss components equal one forward over all 24
    items at 1e-10."""
    tax, sched, data, sim = world
    cfg = small_cfg(dtype="float64")
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg, loss_cfg=LossConfig(
        seg_warmup_epochs=1, lambda_rasp=rasp))
    state.epoch = 1 if seg_on else 0
    current = engine._prepare_items(state, samples[:18], tax.registry, sim)
    bank = populate_episodic(filter_step(data, sched, 0), sched.base_classes,
                             tax.registry, 6, seed=3)
    items = current + engine._prepare_memory(state, bank)
    assert len(items) == 24 and sum(it.is_memory for it in items) == 6

    log = ProcessLog()
    forward = state.model.encoder.forward

    def spy_forward(x):
        log.append(len(x))
        return forward(x)

    state.model.encoder.forward = spy_forward
    grads = zero_grads(state.model.params())
    comps = one_batch(state, items, grads)
    sizes = log.drain()
    assert [n for _, n in sizes] == [4] * 6
    here = [pid for pid, _ in sizes if pid == os.getpid()]
    assert len(here) == 3 and len({pid for pid, _ in sizes}) == 2
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = one_batch(state, items, ref)
    assert log.drain() == [(os.getpid(), 24)]
    assert_close_dicts(grads, ref)
    assert comps.keys() == ref_comps.keys()
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    assert (comps["rasp"] != 0.0) == (rasp != 0.0)
    assert (comps["seg"] != 0.0) == seg_on


def test_group_layout_on_the_shard_processes(world):
    """Each shard runs its items as balanced groups of at most 4, shard 0
    in this process and shard 1 in its worker, each group's backward
    ending before the next group's forward begins."""
    assert layers.GROUP_ITEMS == 4
    want = {1: [(0, 1)], 4: [(0, 4)], 5: [(0, 3), (3, 5)],
            12: [(0, 4), (4, 8), (8, 12)],
            13: [(0, 4), (4, 7), (7, 10), (10, 13)]}
    for n, bounds in want.items():
        assert group_slices(slice(0, n)) == [slice(a, b) for a, b in bounds]
        assert group_slices(slice(n, 2 * n)) == [slice(a + n, b + n)
                                                 for a, b in bounds]

    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=0))
    current = engine._prepare_items(state, samples[:20], tax.registry, sim)
    bank = populate_episodic(filter_step(data, sched, 0), sched.base_classes,
                             tax.registry, 6, seed=3)
    items = current + engine._prepare_memory(state, bank)
    log = ProcessLog()
    encoder = state.model.encoder
    forward, backward = encoder.forward, encoder.backward

    def spy_forward(x):
        log.append(("fwd", hashlib.sha256(x.tobytes()).hexdigest()))
        return forward(x)

    def spy_backward(dy, caches, grads):
        log.append(("bwd", len(dy)))
        out = backward(dy, caches, grads)
        log.append(("bwd_end", len(dy)))
        return out

    encoder.forward, encoder.backward = spy_forward, spy_backward
    with engine.incremental_shards(state, items) as shards:
        incremental_batch(state, range(len(items)),
                          zero_grads(state.model.params()), shards)
        worker = shards._proc.pid
    events = log.drain()
    assert len(items) == 26        # two shards of 13: groups of 4, 3, 3, 3
    for pid, shard in ((os.getpid(), slice(0, 13)), (worker, slice(13, 26))):
        mine = [e for p, e in events if p == pid]
        groups = group_slices(shard)
        assert [e[0] for e in mine] == ["fwd", "bwd", "bwd_end"] * len(groups)
        for k, group in enumerate(groups):
            fwd, bwd, bwd_end = mine[3 * k:3 * k + 3]
            want_x = engine._inputs(items[group], state.model.dtype)
            assert fwd[1] == hashlib.sha256(want_x.tobytes()).hexdigest()
            assert bwd[1] == bwd_end[1] == len(want_x)
    assert len(events) == 3 * 8


def test_one_on_shards_call_per_training_batch(world, monkeypatch):
    """Forward, losses and backward of a batch share one call of the
    loop's Shards, whose one worker serves the whole loop, and the loss
    terms run in this process and in the worker."""
    tax, sched, data, sim = world
    cfg = small_cfg(epochs_base=2, epochs_incremental=2, batch_size=8)
    events, log = [], ProcessLog()
    real_losses, real_batch = engine._batch_losses, engine.incremental_batch

    class SpyShards(layers.Shards):
        def __call__(self, shard_args):
            events.append("shards")
            return super().__call__(shard_args)

    def spy_batch(*args):
        events.append("batch")
        return real_batch(*args)

    def spy_losses(*args):
        log.append("losses")
        return real_losses(*args)

    monkeypatch.setattr(engine, "Shards", SpyShards)
    monkeypatch.setattr(engine, "incremental_batch", spy_batch)
    monkeypatch.setattr(engine, "_batch_losses", spy_losses)
    base = filter_step(data, sched, 0)[:20]
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed)
    model, _ = base_train(model, base, tax.registry, cfg)
    assert events == ["shards"] * (2 * 3)       # 2 epochs of batches 8, 8, 4

    events.clear()
    bank = populate_episodic(base, sched.base_classes, tax.registry, 8, seed=3)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    incremental_step(state, samples[:12], bank, sim, tax.registry)
    first = events.index("batch")
    assert events[:first] == ["shards"] * 2       # _prepare_items: chunks 8, 4
    assert events[first:] == ["batch", "shards"] * (2 * 2)   # batches 8, 4
    pids = [pid for pid, _ in log.drain()]
    assert len(pids) == 2 * (2 * 2)
    assert os.getpid() in pids and len(set(pids)) == 2


class _NoHead:
    """A seg head that fails if the warm-up epochs run it."""

    def __init__(self, head):
        self.W, self.b, self.name = head.W, head.b, head.name

    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def forward(self, x):
        raise AssertionError("seg head ran forward during warm-up")

    def backward(self, *args, **kwargs):
        raise AssertionError("seg head ran backward during warm-up")


def warmup_grads_with_head(state, items):
    """Warm-up gradients as computed before the head was skipped.

    Shard by shard on this thread, the head runs forward and then backward
    on an all-zero gradient, whose input gradient is added to the
    encoder's.  Each shard's loss terms see its own items and the whole
    batch's item counts.
    """
    model = state.model
    x = engine._inputs(items, state.model.dtype)
    n_cur = sum(not it.is_memory for it in items)
    rows = shard_slices(len(items))
    dicts = [zero_grads(model.params()) for _ in rows]
    for r, g in zip(rows, dicts):
        feat, enc_cache = model.encoder.forward(x[r])
        z, loc_cache = model.localizer.forward(feat)
        p_hat, head_cache = model.head.forward(feat)
        _, dz, dp, dfeat_extra = engine._batch_losses(
            state, items[r], feat, z, None, len(items), n_cur)
        assert dp is None
        dfeat = model.localizer.backward(dz, loc_cache, g) + dfeat_extra
        dfeat = dfeat + model.head.backward(np.zeros_like(p_hat), head_cache, g)
        model.encoder.backward(dfeat, enc_cache, g)
    for name in dicts[0]:
        dicts[0][name] += dicts[1][name]
    return dicts[0]


def test_warmup_skips_seg_head(world):
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=2))
    items = engine._prepare_items(state, samples[:7], tax.registry, sim)
    state.epoch = 1
    want = warmup_grads_with_head(state, items)
    state.model.head = _NoHead(state.model.head)
    grads = zero_grads(state.model.params())
    one_batch(state, items, grads)
    assert grads.keys() == want.keys()
    for name in want:
        assert np.array_equal(grads[name], want[name]), name
    assert not np.any(grads["head.W"]) and not np.any(grads["head.b"])
    state.epoch = 2
    with pytest.raises(AssertionError, match="seg head ran forward"):
        one_batch(state, items, zero_grads(state.model.params()))


def test_shards_run_on_caller_and_one_worker(world):
    """Shard 0 in this process, shard 1 always in the same worker: ten
    batches through one incremental_shards give the same gradients, so
    each shard's forward and backward ran in one process, on its own
    buffers, with the parameters this process sent."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=0))
    items = engine._prepare_items(state, samples[:7], tax.registry, sim)
    log = ProcessLog()
    encoder = state.model.encoder
    forward, backward = encoder.forward, encoder.backward

    def spy_forward(x):
        log.append(("fwd", len(x)))
        return forward(x)

    def spy_backward(dy, caches, grads):
        log.append(("bwd", len(dy)))
        return backward(dy, caches, grads)

    encoder.forward, encoder.backward = spy_forward, spy_backward
    results = []
    with engine.incremental_shards(state, items) as shards:
        for _ in range(10):
            grads = zero_grads(state.model.params())
            incremental_batch(state, range(7), grads, shards)
            results.append(grads)
        worker = shards._proc.pid
    for grads in results[1:]:
        for name in grads:
            assert np.array_equal(grads[name], results[0][name]), name
    calls = log.drain()
    assert len(calls) == 40
    assert {pid for pid, (_, n) in calls if n == 4} == {os.getpid()}
    assert {pid for pid, (_, n) in calls if n == 3} == {worker} != {os.getpid()}


# ---------------------------------------------------------------------------
# Streaming evaluation
# ---------------------------------------------------------------------------

def predict_alone(model, sample, registry):
    """One image's label map, the image run through the model by itself:
    encoder, head, argmax, registry index, nearest resize to its mask."""
    x = engine.image_to_input(sample.image, model.dtype)[None]
    feat, _ = model.encoder.forward(x)
    logits, _ = model.head.forward(feat)
    channels = np.argmax(logits[0], axis=-1)
    h, w = sample.dense_mask.shape
    gh, gw = channels.shape
    out = np.empty((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            name = model.class_names[channels[i * gh // h, j * gw // w]]
            out[i, j] = registry.index_of(name)
    return out


def reference_counts(model, samples, registry, fresh=False):
    """Confusion counts of predict_alone's maps, image by image; with
    fresh, each image runs through a copy of the model with new buffers."""
    n = len(registry)
    counts = np.zeros((n, n), dtype=np.int64)
    for s in samples:
        pred = predict_alone(copy.deepcopy(model) if fresh else model, s, registry)
        np.add.at(counts, (s.dense_mask.ravel(), pred.ravel()), 1)
    return counts


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_predict_dataset_equals_per_image_reference(world, dtype, n):
    tax, sched, data, _ = world
    cfg = small_cfg(dtype=dtype)
    model, _ = base_model(world, cfg, train=False)
    samples = data[:n]
    want = reference_counts(model, samples, tax.registry)
    got = predict_dataset(model, samples, tax.registry)
    assert np.array_equal(got, want)
    if n == 7:
        assert np.count_nonzero(want.sum(axis=0)) > 1
        assert np.array_equal(predict_dataset(model, samples[::-1], tax.registry), got)


def test_predict_dataset_mixes_image_sizes(world):
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    wide = generate_dataset(tax, 3, image_size=96, seed=7)
    samples = [data[0], wide[0], wide[1], data[1], wide[2]]
    got = predict_dataset(model, samples, tax.registry)
    assert got.sum() == 2 * 64 * 64 + 3 * 96 * 96
    assert np.array_equal(got, reference_counts(model, samples, tax.registry))


def test_predict_dataset_alternates_63_and_64_px(world):
    """63 and 64 px images pad to 65 and 66 px, which the stride-2 conv
    rounds up to the same size; the counts must match each image run
    alone through a copy of the model with fresh buffers."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    odd = generate_dataset(tax, 3, image_size=63, seed=7)
    samples = [data[0], odd[0], data[1], odd[1], data[2], odd[2]]
    got = predict_dataset(model, samples, tax.registry)
    assert got.sum() == 3 * (64 * 64 + 63 * 63)
    assert np.array_equal(got, reference_counts(model, samples, tax.registry,
                                                fresh=True))


def test_predict_dataset_streams_on_the_two_shard_processes(world, monkeypatch):
    """One Shards call; the first half of the samples runs in this process
    and the second half in the worker, and each shard counts its own maps
    through evalkit.confusion_accumulate."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    samples = data[:7]
    calls, log = [], ProcessLog()
    real_input = engine.image_to_input
    real_count = engine.evalkit.confusion_accumulate

    class SpyShards(layers.Shards):
        def __call__(self, shard_args):
            calls.append(len(shard_args))
            return super().__call__(shard_args)

    def spy_input(image, dtype):
        log.append(("image", hashlib.sha256(image.tobytes()).hexdigest()))
        return real_input(image, dtype)

    def spy_count(pred, truth, counts):
        log.append(("count", None))
        return real_count(pred, truth, counts)

    monkeypatch.setattr(engine, "Shards", SpyShards)
    monkeypatch.setattr(engine, "image_to_input", spy_input)
    monkeypatch.setattr(engine.evalkit, "confusion_accumulate", spy_count)
    predict_dataset(model, samples, tax.registry)
    assert calls == [2]
    events = log.drain()
    digests = [hashlib.sha256(s.image.tobytes()).hexdigest() for s in samples]
    images = [(pid, digest) for pid, (kind, digest) in events if kind == "image"]
    (worker,) = {pid for pid, _ in images} - {os.getpid()}
    for pid, want in ((os.getpid(), digests[:4]), (worker, digests[4:])):
        assert [d for p, d in images if p == pid] == want
        assert sum(p == pid for p, (kind, _) in events if kind == "count") == len(want)


@pytest.fixture(scope="module")
def exported(world, tmp_path_factory):
    """The first seven world samples, exported; their manifest's path."""
    tax, _, _, _ = world
    return export_dataset(tax, [(str(tmp_path_factory.mktemp("eval")), 7, WORLD_SEED)])[0]


@pytest.mark.parametrize("n", [1, 2, 7])
def test_predict_dataset_over_files_equals_over_the_list(world, exported, n):
    tax, _, data, _ = world
    model, _ = base_model(world, small_cfg(), train=False)
    files = load_dataset(exported)[0][:n]
    got = predict_dataset(model, files, tax.registry)
    assert np.array_equal(got, predict_dataset(model, list(files), tax.registry))
    assert np.array_equal(got, predict_dataset(model, data[:n], tax.registry))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_predict_dataset_reads_each_shards_images_in_its_process(world, exported,
                                                                 monkeypatch, n):
    """Loading reads no image; this process reads exactly the first
    ceil(n / 2) images, each once, and the worker the rest."""
    tax, _, _, _ = world
    model, _ = base_model(world, small_cfg(), train=False)
    here, log = [], ProcessLog()
    real_read = netpbm.read_ppm

    def spy_read(path):
        name = os.path.basename(path)
        here.append(name)
        log.append(name)
        return real_read(path)

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    files = load_dataset(exported)[0][:n]
    assert here == []
    predict_dataset(model, files, tax.registry)
    names = [f"img_{i:05d}.ppm" for i in range(n)]
    half = -(-n // 2)
    assert here == names[:half]
    elsewhere = [name for pid, name in log.drain() if pid != os.getpid()]
    assert elsewhere == names[half:]
