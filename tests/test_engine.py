import contextlib
import copy
import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import engine, layers, objectives
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
from segprior.layers import group_slices, on_shards, shard_slices, zero_grads
from segprior.memory import populate_episodic
from segprior.objectives import LossConfig
from segprior.protocol import build_schedule, filter_step, with_weak_labels
from segprior.synthdata import default_taxonomy, generate_dataset


@pytest.fixture(scope="module")
def world():
    tax = default_taxonomy()
    sched = build_schedule(tax.registry, 4, 2, "overlap")
    data = generate_dataset(tax, 60, seed=101)
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
    comps = incremental_batch(state, items, grads)

    # recomputation item by item, each one a batch of one through the
    # objectives module, normalised by itself
    x = np.stack([it.x for it in items])
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
    incremental_batch(state, items, grads)
    assert np.all(grads["head.W"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("loc."))
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("enc."))

    # after warmup the head trains, and its seg gradient reaches every
    # encoder weight while the localizer's gradient stays as it was
    state.epoch = 200
    grads_on = zero_grads(state.model.params())
    incremental_batch(state, items, grads_on)
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
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    preds = predict_dataset(model, data[:5], tax.registry)
    assert len(preds) == 5
    for p, s in zip(preds, data[:5]):
        assert p.shape == s.dense_mask.shape
        assert set(np.unique(p)) <= {tax.registry.index_of(n) for n in model.class_names}


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
    comps = incremental_batch(state, items, grads)
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = incremental_batch(state, items, ref)
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

    group_losses = []
    real_losses = engine._batch_losses

    def spy_losses(st_, group_items, *args):
        out = real_losses(st_, group_items, *args)
        first = next(i for i, it in enumerate(items) if it is group_items[0])
        group_losses.append((first, out[0]))
        return out

    grads = zero_grads(state.model.params())
    with mock.patch.object(engine, "_batch_losses", spy_losses):
        comps = incremental_batch(state, items, grads)
    # the per-item losses are added one by one in item order
    total = 0.0
    for _, losses in sorted(group_losses, key=lambda c: c[0]):
        for value in losses["cls"]:
            total += value
    assert comps["cls"] == total / n
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = incremental_batch(state, items, ref)
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

    sizes = []
    forward = state.model.encoder.forward

    def spy_forward(x):
        sizes.append(len(x))
        return forward(x)

    state.model.encoder.forward = spy_forward
    grads = zero_grads(state.model.params())
    comps = incremental_batch(state, items, grads)
    assert sizes == [4] * 6
    sizes.clear()
    with whole_batch():
        ref = zero_grads(state.model.params())
        ref_comps = incremental_batch(state, items, ref)
    assert sizes == [24]
    assert_close_dicts(grads, ref)
    assert comps.keys() == ref_comps.keys()
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    assert (comps["rasp"] != 0.0) == (rasp != 0.0)
    assert (comps["seg"] != 0.0) == seg_on


def test_group_layout_on_the_shard_threads(world):
    """Each shard runs its items as balanced groups of at most 4, on its
    own thread, each group's backward ending before the next group's
    forward begins."""
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
    events = []
    encoder = state.model.encoder
    forward, backward = encoder.forward, encoder.backward

    def spy_forward(x):
        events.append(("fwd", threading.get_ident(), x))
        return forward(x)

    def spy_backward(dy, caches, grads):
        events.append(("bwd", threading.get_ident(), len(dy)))
        out = backward(dy, caches, grads)
        events.append(("bwd_end", threading.get_ident(), len(dy)))
        return out

    encoder.forward, encoder.backward = spy_forward, spy_backward
    incremental_batch(state, items, zero_grads(state.model.params()))
    worker = on_shards(lambda: threading.get_ident(), [(), ()])[1]
    assert len(items) == 26        # two shards of 13: groups of 4, 3, 3, 3
    for ident, shard in ((threading.get_ident(), slice(0, 13)),
                         (worker, slice(13, 26))):
        mine = [e for e in events if e[1] == ident]
        groups = group_slices(shard)
        assert [e[0] for e in mine] == ["fwd", "bwd", "bwd_end"] * len(groups)
        for k, group in enumerate(groups):
            fwd, bwd, bwd_end = mine[3 * k:3 * k + 3]
            want_x = np.stack([it.x for it in items[group]])
            assert np.array_equal(fwd[2], want_x)
            assert bwd[2] == bwd_end[2] == len(want_x)
    assert len(events) == 3 * 8


def test_one_on_shards_call_per_training_batch(world, monkeypatch):
    """Forward, losses and backward of a batch share one on_shards call,
    and the loss terms run on the caller's thread and the worker's."""
    tax, sched, data, sim = world
    cfg = small_cfg(epochs_base=2, epochs_incremental=2, batch_size=8)
    events, loss_threads = [], []
    real_on_shards, real_losses = engine.on_shards, engine._batch_losses
    real_batch = engine.incremental_batch

    def spy_on_shards(fn, shard_args):
        events.append("on_shards")
        return real_on_shards(fn, shard_args)

    def spy_batch(*args):
        events.append("batch")
        return real_batch(*args)

    def spy_losses(*args):
        loss_threads.append(threading.get_ident())
        return real_losses(*args)

    monkeypatch.setattr(engine, "on_shards", spy_on_shards)
    monkeypatch.setattr(engine, "incremental_batch", spy_batch)
    monkeypatch.setattr(engine, "_batch_losses", spy_losses)
    base = filter_step(data, sched, 0)[:20]
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed)
    model, _ = base_train(model, base, tax.registry, cfg)
    assert events == ["on_shards"] * (2 * 3)       # 2 epochs of batches 8, 8, 4

    events.clear()
    bank = populate_episodic(base, sched.base_classes, tax.registry, 8, seed=3)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    incremental_step(state, samples[:12], bank, sim, tax.registry)
    first = events.index("batch")
    assert "batch" not in events[:first]
    assert events[first:] == ["batch", "on_shards"] * (2 * 2)   # batches 8, 4
    assert threading.get_ident() in loss_threads
    assert len(set(loss_threads)) == 2
    assert len(loss_threads) == 2 * (2 * 2)


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
    x = np.stack([it.x for it in items])
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
    incremental_batch(state, items, grads)
    assert grads.keys() == want.keys()
    for name in want:
        assert np.array_equal(grads[name], want[name]), name
    assert not np.any(grads["head.W"]) and not np.any(grads["head.b"])
    state.epoch = 2
    with pytest.raises(AssertionError, match="seg head ran forward"):
        incremental_batch(state, items, zero_grads(state.model.params()))


def test_shards_run_on_caller_and_one_worker(world):
    """Shard 0 on the calling thread, shard 1 always on the same other thread."""
    def whoami(shard):
        return shard, threading.get_ident()

    seen = [on_shards(whoami, [(0,), (1,)]) for _ in range(50)]
    assert {ident for (_, ident), _ in seen} == {threading.get_ident()}
    workers = {ident for _, (_, ident) in seen}
    assert len(workers) == 1 and threading.get_ident() not in workers

    # through the engine, with frequent thread switches: a shard whose
    # forward and backward ran on different threads, or whose buffers the
    # other shard overwrote, would change the gradients between repeats
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=0))
    items = engine._prepare_items(state, samples[:7], tax.registry, sim)
    calls = []
    encoder = state.model.encoder
    forward, backward = encoder.forward, encoder.backward

    def spy_forward(x):
        calls.append(("fwd", len(x), threading.get_ident()))
        return forward(x)

    def spy_backward(dy, caches, grads):
        calls.append(("bwd", len(dy), threading.get_ident()))
        return backward(dy, caches, grads)

    encoder.forward, encoder.backward = spy_forward, spy_backward
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for _ in range(10):
            grads = zero_grads(state.model.params())
            incremental_batch(state, items, grads)
            results.append(grads)
    finally:
        sys.setswitchinterval(interval)
    for grads in results[1:]:
        for name in grads:
            assert np.array_equal(grads[name], results[0][name]), name
    assert len(calls) == 40
    assert {ident for _, n, ident in calls if n == 4} == {threading.get_ident()}
    assert {ident for _, n, ident in calls if n == 3} == workers


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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_predict_dataset_equals_per_image_reference(world, dtype, n):
    tax, sched, data, _ = world
    cfg = small_cfg(dtype=dtype)
    model, _ = base_model(world, cfg, train=False)
    samples = data[:n]
    want = [predict_alone(model, s, tax.registry) for s in samples]
    got = predict_dataset(model, samples, tax.registry)
    assert len(got) == n
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if n == 7:
        assert len(np.unique(np.concatenate([w.ravel() for w in want]))) > 1
        back = predict_dataset(model, samples[::-1], tax.registry)
        for g, b in zip(got, back[::-1]):
            assert np.array_equal(g, b)


def test_predict_dataset_mixes_image_sizes(world):
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    wide = generate_dataset(tax, 3, image_size=96, seed=7)
    samples = [data[0], wide[0], wide[1], data[1], wide[2]]
    got = predict_dataset(model, samples, tax.registry)
    assert [g.shape for g in got] == [(64, 64), (96, 96), (96, 96), (64, 64),
                                      (96, 96)]
    for g, s in zip(got, samples):
        assert np.array_equal(g, predict_alone(model, s, tax.registry))


def test_predict_dataset_alternates_63_and_64_px(world):
    """63 and 64 px images pad to 65 and 66 px, which the stride-2 conv
    rounds up to the same size; each label map must match the image run
    alone through a copy of the model with fresh buffers."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    odd = generate_dataset(tax, 3, image_size=63, seed=7)
    samples = [data[0], odd[0], data[1], odd[1], data[2], odd[2]]
    got = predict_dataset(model, samples, tax.registry)
    assert [g.shape for g in got] == [(64, 64), (63, 63)] * 3
    for g, s in zip(got, samples):
        assert np.array_equal(g, predict_alone(copy.deepcopy(model), s, tax.registry))


def test_predict_dataset_streams_on_the_two_shard_threads(world, monkeypatch):
    """One on_shards call; the first half of the samples runs on the
    caller's thread and the second half on the shard-1 worker."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    samples = data[:7]
    calls, seen = [], {}
    real_on_shards, real_input = engine.on_shards, engine.image_to_input

    def spy_on_shards(fn, shard_args):
        calls.append(len(shard_args))
        return real_on_shards(fn, shard_args)

    def spy_input(image, dtype):
        seen[id(image)] = threading.get_ident()
        return real_input(image, dtype)

    monkeypatch.setattr(engine, "on_shards", spy_on_shards)
    monkeypatch.setattr(engine, "image_to_input", spy_input)
    predict_dataset(model, samples, tax.registry)
    assert calls == [2]
    threads = [seen[id(s.image)] for s in samples]
    worker = on_shards(lambda: threading.get_ident(), [(), ()])[1]
    assert threads == [threading.get_ident()] * 4 + [worker] * 3
