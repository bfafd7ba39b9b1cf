import contextlib
import dataclasses
import functools
import gc
import hashlib
import os
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import engine, layers, memory, netpbm, objectives, simprior
from segprior.class_semantics import save_embeddings, similarity_matrix
from segprior.config import ExperimentConfig, MemoryConfig
from segprior.engine import (
    EngineConfig,
    SegModel,
    StepState,
    base_train,
    extend_head,
    incremental_step,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from segprior.layers import group_slices, shard_slices, zero_grads
from segprior.objectives import LossConfig
from segprior.protocol import Sample, build_schedule, step_rows
from segprior.synthdata import (default_taxonomy, export_dataset, generate_dataset,
                                load_dataset)

from helpers import (ProcessLog, bce_reference, episodic_bank, norm_backward_reference,
                     step_samples, unique_nbytes)


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


def base_model(world, cfg, train=True, dtype=np.float32):
    tax, sched, data, _ = world
    names = sched.channel_names(0)
    model = SegModel.init(names, seed=cfg.seed, dtype=dtype)
    if train:
        base = step_samples(data, sched, 0)
        model, trace = base_train(model, base, tax.registry, cfg)
        return model, trace
    return model, None


def step_inputs(world, model, cfg, step=1, loss_cfg=None):
    tax, sched, data, sim = world
    extended = extend_head(model, sched.classes_at_step(step), seed=cfg.seed + step)
    samples = step_samples(data, sched, step)
    state = StepState(
        step=step,
        old_model=model,
        model=extended,
        loss_cfg=loss_cfg or LossConfig(seg_warmup_epochs=1),
        engine_cfg=cfg,
    )
    return state, samples, sim


def prepare(world, state, samples, bank=()):
    """The step's pool of samples, then the bank's entries."""
    tax, _, _, sim = world
    return engine._prepare_pool(state, samples, list(bank), tax.registry, sim)


def one_batch(state, pool, rows, epochs=1):
    """The pool rows, in their order, as the one batch of each of epochs
    epochs of ``_fit`` with the step's group step, and a worker of its own.

    Returns the last epoch's loss terms and each batch's gradients.  The
    one seam is the optimizer, which records the gradients and leaves the
    parameters as they are, so every batch trains the same model.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = []

    class Recording:
        def __init__(self, lr):
            pass

        def step(self, params, batch_grads):
            grads.append(batch_grads)

    cfg = dataclasses.replace(state.engine_cfg, batch_size=len(rows))
    order = types.SimpleNamespace(permutation=lambda n: rows)
    with mock.patch.object(engine, "SGDMomentum", Recording):
        trace = engine._fit(cfg, state.model.params(), cfg.lr_incremental, epochs,
                            len(rows), order,
                            functools.partial(engine._incremental_group, state, pool))
    return trace[-1], grads


def test_base_train_names_a_row_without_a_dense_mask(world):
    """A sample without a dense mask, as an external memory row is, raises
    ValueError naming its row before training starts."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    base = step_samples(data, sched, 0)[:3]
    maskless = Sample(base[1].image, None, base[1].present)
    with pytest.raises(ValueError, match="base training row 1 has no dense mask"):
        base_train(model, [base[0], maskless, base[2]], tax.registry, cfg)


def test_step_leaves_old_model_unchanged(world):
    """The parent model is the step's old model; training a step changes
    none of its parameters and shares no array with the trained model."""
    cfg = small_cfg(epochs_incremental=2)
    model, _ = base_model(world, cfg)
    before = {k: v.copy() for k, v in model.params().items()}
    state, samples, _ = step_inputs(world, model, cfg)
    trained, _ = incremental_step(state, prepare(world, state, samples))
    assert state.old_model is model
    for k, v in model.params().items():
        assert np.array_equal(v, before[k]), k
    new_params = trained.params()
    assert not np.array_equal(new_params["enc.0.W"], before["enc.0.W"])
    for k, v in model.params().items():
        assert not np.shares_memory(v, new_params[k]), k


def test_a_non_finite_loss_stops_training_before_any_update(world):
    """A NaN weight makes a loss term non-finite in the first batch: base
    training and an incremental step raise RuntimeError naming the term
    and the epoch, and no parameter has changed."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    model.head.W[0, 0, 0, 0] = np.nan
    before = {k: v.copy() for k, v in model.params().items()}
    with pytest.raises(RuntimeError, match="non-finite base loss at epoch 0"):
        base_train(model, step_samples(data, sched, 0), tax.registry, cfg)
    for k, v in model.params().items():
        assert np.array_equal(v, before[k], equal_nan=True), k

    parent, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(world, parent, cfg)
    state.model.localizer.params()["loc.2.W"][0, 0, 0, -1] = np.nan
    before = {k: v.copy() for k, v in state.model.params().items()}
    with pytest.raises(RuntimeError, match="non-finite cls loss at epoch 0"):
        incremental_step(state, prepare(world, state, samples))
    for k, v in state.model.params().items():
        assert np.array_equal(v, before[k], equal_nan=True), k


def test_extend_head_preserves_old_channels(world):
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    x = np.full((2, 32, 32, engine.INPUT_CHANNELS), 0.1, dtype=np.float32)
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


def test_base_train_on_odd_size_images(world):
    """41 px images are padded to 42 px before their space-to-depth
    rearrangement: the labels are resized to the 21 x 21 network input,
    training descends, and the trained model scores every pixel."""
    tax, sched, _, _ = world
    cfg = small_cfg(batch_size=8)
    odd = step_samples(generate_dataset(tax, 30, image_size=41, seed=3), sched, 0)
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed)
    model, trace = base_train(model, odd, tax.registry, cfg)
    assert trace[-1] < trace[0]
    assert predict_dataset(model, odd, tax.registry).sum() == len(odd) * 41 * 41


def test_base_train_rejects_an_image_of_another_size(world):
    """A 40 px image among 64 px ones stops base training before it
    starts, with a ValueError naming its row and both shapes."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    small = step_samples(generate_dataset(tax, 8, image_size=40, seed=3), sched, 0)
    samples = step_samples(data, sched, 0)[:3] + small[:1]
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed)
    with pytest.raises(ValueError, match=r"base training row 3 has an image of shape "
                                         r"\(40, 40, 3\), but the step's first image "
                                         r"has \(64, 64, 3\)"):
        base_train(model, samples, tax.registry, cfg)


def test_incremental_trace_and_warmup(world):
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(
        world, model, cfg, loss_cfg=LossConfig(seg_warmup_epochs=2)
    )
    _, trace = incremental_step(state, prepare(world, state, samples))
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
    traces = []
    for _ in range(2):
        model, _ = base_model(world, cfg)
        state, samples, _ = step_inputs(world, model, cfg)
        _, trace = incremental_step(state, prepare(world, state, samples))
        traces.append(trace)
    assert traces[0] == traces[1]


def test_channel_growth(world):
    tax, sched, data, sim = world
    cfg = small_cfg(epochs_incremental=1, epochs_base=1)
    model, _ = base_model(world, cfg)
    sizes = [model.n_classes()]
    for step in (1, 2):
        state, samples, _ = step_inputs(world, model, cfg, step=step)
        model, _ = incremental_step(state, prepare(world, state, samples))
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
    samples = samples[:6]
    pool = prepare(world, state, samples)
    comps, _ = one_batch(state, pool, range(6))

    # recomputation item by item, each one a batch of one through the
    # objectives module, normalised by itself, with its labels and RaSP
    # targets built from the sample.  The network runs on the engine's own
    # groups: a float32 GEMM's rounding depends on its row count, so a
    # forward over the whole batch would round differently.
    n_old = state.n_old
    new_names = state.model.class_names[n_old:]
    table = simprior.rasp_target_table(sim, tax.registry, model.class_names, new_names,
                                       loss_cfg.tau, state.model.dtype)
    agg = {k: 0.0 for k in ("cls", "kdl", "kde", "rasp", "seg")}
    groups = [g for rows in shard_slices(len(samples)) for g in group_slices(rows)]
    for group in groups:
        x = engine.image_to_input(np.stack([s.image for s in samples[group]]),
                                  state.model.dtype)
        feat, _ = state.model.encoder.forward(x)
        z, _ = state.model.localizer.forward(feat)
        p_hat, _ = state.model.head.forward(feat)
        for i, k in enumerate(range(len(samples))[group]):
            shown = [tax.registry.index_of(name) in samples[k].present
                     for name in new_names]
            cols = np.flatnonzero(shown)
            zi, y_old = z[i:i + 1], pool.y_old[k][None]
            scores, m, _ = objectives.image_scores_vjp(zi)
            agg["cls"] += objectives.bce_loss_grad(
                scores[:, n_old:].astype(np.float64), np.array([shown], dtype=np.float64),
                1)[0][0]
            agg["kdl"] += objectives.bce_loss_grad(zi[..., :n_old], y_old, 1)[0][0]
            agg["kde"] += objectives.kde_loss_grad(feat[i:i + 1] - pool.feat_old[k][None],
                                                   1)[0][0]
            target = table[:, cols][np.argmax(pool.y_old[k], axis=2)]
            agg["rasp"] += objectives.bce_loss_grad(zi[..., n_old + cols], target[None],
                                                    1)[0][0]
            qt = objectives.pseudo_supervision(m, y_old)
            agg["seg"] += objectives.bce_loss_grad(p_hat[i:i + 1], qt, 1)[0][0]
    for key in agg:
        assert abs(agg[key] / len(samples) - comps[key]) < 1e-10, key


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
    pool = prepare(world, state, samples[:6])
    _, [grads] = one_batch(state, pool, range(6))  # inside warmup: seg inactive
    assert np.all(grads["head.W"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("loc."))
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("enc."))

    # after warmup the head trains, and its seg gradient reaches every
    # encoder weight while the localizer's gradient stays as it was
    state.loss_cfg = LossConfig(seg_warmup_epochs=0)
    _, [grads_on] = one_batch(state, pool, range(6))
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
    base = step_samples(data, sched, 0)
    bank = episodic_bank(base, sched.base_classes, tax.registry, 8, seed=3)
    model, _ = base_model(world, cfg)
    state, samples, _ = step_inputs(world, model, cfg)
    _, trace_mem = incremental_step(state, prepare(world, state, samples, bank))
    model2, _ = base_model(world, cfg)
    state2, samples2, _ = step_inputs(world, model2, cfg)
    _, trace_plain = incremental_step(state2, prepare(world, state2, samples2))
    assert trace_mem != trace_plain


def test_checkpoint_round_trip(world, tmp_path):
    cfg = small_cfg()
    model, _ = base_model(world, cfg)
    path = str(tmp_path / "ckpt_step0.npz")
    save_checkpoint(model, path, step=0, config_hash="abc123")
    loaded, step, chash = load_checkpoint(path)
    assert step == 0 and chash == "abc123"
    assert loaded.class_names == model.class_names
    x = np.full((1, 32, 32, engine.INPUT_CHANNELS), -0.2, dtype=np.float32)
    f1, _ = model.encoder.forward(x)
    f2, _ = loaded.encoder.forward(x)
    assert np.array_equal(f1, f2)
    l1, _ = model.head.forward(f1)
    l2, _ = loaded.head.forward(f2)
    assert np.array_equal(l1, l2)


@pytest.mark.parametrize("member", ["__config_hash__", "enc.0.W"])
def test_load_checkpoint_names_a_member_it_cannot_read(tmp_path, member):
    """A member np.load cannot read without pickle, such as an object array,
    raises ValueError naming the checkpoint and the member."""
    model = SegModel.init(("bkg", "a", "b"), seed=None)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(model, path, step=0, config_hash="h")
    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    members[member] = np.array([{}], dtype=object)
    np.savez(path, **members)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert f"checkpoint {path}: member {member} cannot be read: Object arrays" \
        in str(err.value)


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    """A checkpoint fills every parameter of the model it loads into, so
    that model is built without a generator, and eval never loads
    numpy.random."""
    model = SegModel.init(("bkg", "a", "b"), seed=3, dtype=np.float64)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(model, path, step=0, config_hash="h")

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    loaded, _, _ = load_checkpoint(path)
    params = loaded.params()
    assert params.keys() == model.params().keys()
    for name, p in model.params().items():
        assert params[name].dtype == p.dtype and np.array_equal(params[name], p)


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


def test_prepare_pool_runs_the_old_model_in_groups(world):
    """float64: ``_prepare_pool`` runs the old model cache-free (infer,
    never forward) in groups of at most GROUP_ITEMS per shard: a 9-image
    chunk splits 5 | 4, so groups of 3 and 2 run here and one of 4 in the
    worker.  Each row's scores and features equal the old model's forward
    of its image alone."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False, dtype=np.float64)
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
    pool = prepare(world, state, samples[:9])
    sizes = log.drain()
    assert [n for pid, n in sizes if pid == os.getpid()] == [3, 2]
    assert [n for pid, n in sizes if pid != os.getpid()] == [4]
    del encoder.infer, encoder.forward
    for k, sample in enumerate(samples[:9]):
        x = engine.image_to_input(sample.image, np.float64)[None]
        feat, _ = model.encoder.forward(x)
        logits, _ = model.head.forward(feat)
        np.testing.assert_allclose(pool.feat_old[k], feat[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(pool.y_old[k], objectives.sigmoid(logits)[0],
                                   rtol=1e-10, atol=1e-12)


def test_pool_rejects_an_image_of_another_size(world):
    """A step image or an episodic memory image of another size than the
    first step image's raises ValueError naming its row and both shapes,
    before the old model runs."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg)
    small = generate_dataset(tax, 8, image_size=40, seed=3)
    odd = dataclasses.replace(samples[0], image=small[0].image)
    with pytest.raises(ValueError, match=r"step row 2 has an image of shape "
                                         r"\(40, 40, 3\), but the step's first image "
                                         r"has \(64, 64, 3\)"):
        prepare(world, state, samples[:2] + [odd])
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 2, seed=3)
    bank += episodic_bank(step_samples(small, sched, 0), sched.base_classes,
                          tax.registry, 1, seed=3)
    with pytest.raises(ValueError, match=r"memory entry 2 has an image of shape "
                                         r"\(40, 40, 3\), but the step's first image "
                                         r"has \(64, 64, 3\)"):
        prepare(world, state, samples[:3], bank)


@pytest.mark.parametrize("rasp", [0.0, 1.0])
def test_pool_rows_are_the_step_images_then_the_bank(world, experiment, rasp):
    """A pool reads the step's rows, then the bank's in bank order, and
    labels each from its manifest present set: a step row on the step's
    classes it shows, a memory row on the old classes it shows, so a
    memory row that also shows a step class reads 0 on it.  Old-model
    outputs and the old model's argmax cover the current rows; the RaSP
    table is old x new; and there is neither without RaSP."""
    cfg, files = experiment
    schedule = cfg.task_schedule()
    registry = schedule.registry
    model, _ = base_model(world, small_cfg(), train=False)
    state, _, sim = step_inputs(world, model, small_cfg(),
                                loss_cfg=LossConfig(lambda_rasp=rasp))
    assert state.model.class_names == schedule.channel_names(1)
    new = {registry.index_of(name) for name in schedule.classes_at_step(1)}
    base = step_rows(files.present, schedule, 0)
    shows_new = [k for k in base if files.present[k] & new]
    # four base rows, then one that shows a step-1 class too
    bank = [k for k in base if k not in shows_new][:4] + shows_new[:1]
    step = step_rows(files.present, schedule, 1)[:7]
    pool = engine._prepare_pool(state, files[step], files[bank], registry, sim)
    assert pool.n_current == 7 and len(pool.images) == len(pool.labels) == 12
    assert pool.images.dtype == np.uint8
    fg = state.model.class_names[1:]
    reached = False
    for row, k in enumerate(step + bank):
        current = row < pool.n_current
        assert np.array_equal(pool.images[row], files[k].image)
        labelled = schedule.classes_at_step(1) if current else schedule.old_classes(1)
        assert [fg[c] for c in np.flatnonzero(pool.labels[row])] == \
            [name for name in labelled if registry.index_of(name) in files.present[k]]
        if not current and files.present[k] & new:
            reached = True
            assert not pool.labels[row, state.n_old - 1:].any()
    assert reached
    assert len(pool.y_old) == len(pool.feat_old) == 7
    n_new = state.model.n_classes() - state.n_old
    if rasp:
        assert pool.winner.dtype == np.uint8
        assert np.array_equal(pool.winner, np.argmax(pool.y_old, axis=3))
        assert pool.rasp_table.shape == (state.n_old, n_new)
        assert pool.rasp_table[pool.winner].shape == pool.y_old.shape[:3] + (n_new,)
    else:
        assert pool.rasp_table is None and pool.winner is None


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


@pytest.fixture(scope="module")
def experiment(world, tmp_path_factory):
    """A 40-image train split on disk and a one-epoch experiment config
    over it."""
    tax = world[0]
    root = tmp_path_factory.mktemp("experiment")
    manifest = export_dataset(tax, [(str(root / "train"), 40, WORLD_SEED)])[0]
    save_embeddings(tax.embeddings, str(root / "embeddings.json"))
    cfg = ExperimentConfig(registry=list(tax.registry.names),
                           embeddings_path="embeddings.json", train_manifest=manifest,
                           eval_manifest="", workdir="runs", root=str(root),
                           engine=small_cfg(epochs_base=1, epochs_incremental=1))
    return cfg, load_dataset(manifest)[0]


def test_run_step_checks_the_step_and_the_parent(experiment, monkeypatch):
    """Step 0 trains from no parent and step s >= 1 from the step s - 1
    model; any other step or parent raises ValueError before an image is
    read."""
    cfg, files = experiment
    schedule = cfg.task_schedule()
    model, trace, n = engine.run_step(cfg, files, None, 0)
    assert model.class_names == schedule.channel_names(0)
    assert len(trace) == 1
    assert n == len(step_rows(files.present, schedule, 0))
    reads = []
    monkeypatch.setattr(netpbm, "read_ppm", reads.append)
    for parent, step, match in [(None, 1, "step 1: step 0 trains from no parent"),
                                (model, 0, "step 0: step 0 trains from no parent"),
                                (model, -1, r"step -1 is not in \[0, 2\]"),
                                (model, 3, r"step 3 is not in \[0, 2\]"),
                                (model, 2, "class list .* at step 1")]:
        with pytest.raises(ValueError, match=match):
            engine.run_step(cfg, files, parent, step)
    assert reads == []


def test_episodic_memory_draws_each_past_image_once(experiment, monkeypatch):
    """Under overlap an image can show a base class and a step-1 class, so
    steps 0 and 1 both train on it; at step 2 it is still one row of the
    memory's pool.  The draw reads no image: the pool reads the step's
    images and then the bank's, each once per use, and the bank's images
    are pairwise distinct."""
    cfg, files = experiment
    cfg = dataclasses.replace(cfg, memory=MemoryConfig(mode="episodic"))
    schedule = cfg.task_schedule()
    past = [k for step in (0, 1) for k in step_rows(files.present, schedule, step)]
    assert len(set(past)) < len(past)
    row_of = {files[k].image.tobytes(): k for k in range(len(files))}
    assert len(row_of) == len(files)
    parent = extend_head(SegModel.init(schedule.channel_names(0), seed=0),
                         schedule.classes_at_step(1), seed=1)
    pools, reads, phase = [], [], []
    real_read = netpbm.read_ppm

    def spy_read(path):
        reads.append((list(phase), os.path.basename(path)))
        return real_read(path)

    def spying(name, real, results=None):
        def spy(*args):
            phase.append(name)
            try:
                out = real(*args)
            finally:
                phase.pop()
            if results is not None:
                results.append(out)
            return out
        return spy

    monkeypatch.setattr(netpbm, "read_ppm", spy_read)
    monkeypatch.setattr(memory, "populate_episodic",
                        spying("draw", memory.populate_episodic))
    monkeypatch.setattr(engine, "_prepare_pool",
                        spying("pool", engine._prepare_pool, pools))
    monkeypatch.setattr(engine, "incremental_step", lambda state, pool: (state.model, []))
    engine.run_step(cfg, files, parent, 2)
    (pool,) = pools
    assert [where for where, _ in reads] == [["pool"]] * len(pool.images)
    assert [name for _, name in reads] == \
        [f"img_{row_of[image.tobytes()]:05d}.ppm" for image in pool.images]
    bank = pool.images[pool.n_current:]
    digests = {hashlib.sha256(image.tobytes()).hexdigest() for image in bank}
    assert len(digests) == len(bank) > 0


def test_training_holds_each_image_once(experiment, monkeypatch, tmp_path):
    """Every image and mask a step reads is gone before the step trains:
    step 0 reads its rows into base training's arrays, step 1 its rows and
    its episodic or its external memory into its pool, and neither keeps a
    sample or a memory row beside them."""
    cfg, files = experiment
    schedule = cfg.task_schedule()
    registry = schedule.registry
    images = os.path.join(os.path.dirname(cfg.train_manifest), "images")
    external = step_rows(files.present, schedule, 0)[:3]
    rows = []
    for k in external:
        name = min(n for n in schedule.base_classes
                   if registry.index_of(n) in files.present[k])
        rows.append(f"{name}\t{images}/img_{k:05d}.ppm\n")
    manifest = tmp_path / "memory.tsv"
    manifest.write_text("".join(rows))
    episodic_cfg = dataclasses.replace(cfg, memory=MemoryConfig(mode="episodic"))
    external_cfg = dataclasses.replace(
        cfg, memory=MemoryConfig(mode="external", manifest=str(manifest)))
    reads, checked = [], []
    real_fit = engine._fit

    def recording(read):
        def spy(path):
            array = read(path)
            reads.append(weakref.ref(array))
            return array
        return spy

    def fit_after_collect(*args):
        gc.collect()
        alive = [ref for ref in reads if ref() is not None]
        assert not alive, f"{len(alive)} of the {len(reads)} arrays read are alive"
        checked.append(len(reads))
        reads.clear()
        return real_fit(*args)

    monkeypatch.setattr(netpbm, "read_ppm", recording(netpbm.read_ppm))
    monkeypatch.setattr(netpbm, "read_pgm", recording(netpbm.read_pgm))
    monkeypatch.setattr(engine, "_fit", fit_after_collect)
    parent, _, n_base = engine.run_step(episodic_cfg, files, None, 0)
    _, _, n_step1 = engine.run_step(episodic_cfg, files, parent, 1)
    assert engine.run_step(external_cfg, files, parent, 1)[2] == n_step1
    # an image and a mask per row, and per memory row in episodic step 1;
    # external memory reads an image per manifest row, and nothing more
    assert checked[0] == 2 * n_base and checked[1] > 2 * n_step1
    assert checked[2] == 2 * n_step1 + len(external)


# ---------------------------------------------------------------------------
# Two-shard batches
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def whole_batch():
    """The engine runs each batch whole: one shard of one group, on this thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "shard_slices", lambda b: [slice(0, b)])
        patch.setattr(engine, "group_slices", lambda rows: [rows])
        yield


def assert_close_dicts(got, want, tol=1e-10):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=tol, atol=tol,
                                   err_msg=name)


def record_optimizer_steps(monkeypatch):
    """A list that receives a copy of the gradients of every optimizer step
    the engine takes from now on, in order."""
    steps = []

    class Recording(layers.SGDMomentum):
        def step(self, params, grads):
            steps.append({k: v.copy() for k, v in grads.items()})
            super().step(params, grads)

    monkeypatch.setattr(engine, "SGDMomentum", Recording)
    return steps


def test_every_parameter_gets_a_gradient(world, monkeypatch):
    """float64: one base batch reaches every encoder and head parameter,
    and one step-1 batch with seg on every parameter of the model, each
    with max |g| > 1e-8.  A bias on a conv that feeds a ChannelNorm would
    get zero, since the norm cancels it; no such parameter exists."""
    tax, sched, data, sim = world
    cfg = small_cfg(epochs_base=1)
    steps = record_optimizer_steps(monkeypatch)
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed, dtype=np.float64)
    model, _ = base_train(model, step_samples(data, sched, 0)[:cfg.batch_size],
                          tax.registry, cfg)
    assert len(steps) == 1
    assert steps[0].keys() == {**model.encoder.params(), **model.head.params()}.keys()
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=0))
    _, [grads] = one_batch(state, prepare(world, state, samples[:8]), range(8))
    dead = {name for g in (steps[0], grads) for name, v in g.items()
            if not np.max(np.abs(v)) > 1e-8}
    assert sorted(dead) == []


def test_shard_slices_are_fixed_halves():
    assert shard_slices(0) == [slice(0, 0)]
    assert shard_slices(1) == [slice(0, 1)]
    assert shard_slices(2) == [slice(0, 1), slice(1, 2)]
    assert shard_slices(3) == [slice(0, 2), slice(2, 3)]
    assert shard_slices(8) == [slice(0, 4), slice(4, 8)]


def test_base_train_shards_match_full_batch(world, monkeypatch):
    """float64: every step's gradient equals the whole-batch one at 1e-10."""
    cfg = small_cfg(epochs_base=1, batch_size=10)
    tax, sched, data, _ = world
    # batches of 10, 10 and 3: shards of 5 run as groups of 3 and 2
    base = step_samples(data, sched, 0)[:23]

    runs = []
    steps = record_optimizer_steps(monkeypatch)
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
def test_incremental_step_shards_match_full_batch(world, n_items, seg_on):
    """float64: shard gradients and losses equal the whole-batch ones at 1e-10."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False, dtype=np.float64)
    state, samples, _ = step_inputs(world, model, cfg, loss_cfg=LossConfig(
        seg_warmup_epochs=0 if seg_on else 1))
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 4, seed=3)
    pool = prepare(world, state, samples[:n_items], bank)
    rows = list(range(n_items))
    if n_items > 1:   # a memory row in the last slot, as mix_batch puts it
        rows[-1] = pool.n_current
    comps, [grads] = one_batch(state, pool, rows)
    with whole_batch():
        ref_comps, [ref] = one_batch(state, pool, rows)
    assert_close_dicts(grads, ref)
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("enc."))

    # the old model's batched two-shard forward equals the whole-batch one
    with whole_batch():
        ref_pool = prepare(world, state, samples[:n_items], bank)
    for name in ("y_old", "feat_old", "rasp_table"):
        np.testing.assert_allclose(getattr(pool, name), getattr(ref_pool, name),
                                   rtol=1e-10, atol=1e-10, err_msg=name)
    assert np.array_equal(pool.winner, ref_pool.winner)


@pytest.fixture(scope="module")
def float64_pool(world):
    """A float64 step-1 state and its pool of 9 current and 9 memory rows."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False, dtype=np.float64)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 9, seed=3)
    return state, prepare(world, state, samples[:9], bank)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shard_local_losses_match_whole_batch(float64_pool, data):
    """float64: comps and gradients equal a whole-batch run at 1e-10."""
    state, pool = float64_pool
    n = data.draw(st.integers(1, 9), label="batch size")
    is_memory = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                          label="memory slots")
    order = data.draw(st.permutations(range(9)), label="item order")
    rows = [pool.n_current + k if mem else k for k, mem in zip(order, is_memory)]
    state.loss_cfg = dataclasses.replace(
        state.loss_cfg,
        seg_warmup_epochs=0 if data.draw(st.booleans(), label="seg on") else 1,
        lambda_rasp=data.draw(st.sampled_from([0.0, 1.0]), label="rasp"))

    comps, [grads] = one_batch(state, pool, rows)
    # each group's per-item losses, run here on the groups the two shards
    # run, in item order, are added one by one
    idx = np.asarray(rows)
    group_losses = [engine._incremental_group(state, pool, 0, idx, group,
                                              zero_grads(state.model.params()))
                    for shard in shard_slices(n) for group in group_slices(shard)]
    total = 0.0
    for terms in group_losses:
        for value in terms["cls"][0]:
            total += value
    assert comps["cls"] == total / n
    with whole_batch():
        ref_comps, [ref] = one_batch(state, pool, rows)
    assert_close_dicts(grads, ref)
    assert comps.keys() == ref_comps.keys()
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    if all(is_memory):
        assert all(comps[k] == 0.0 for k in ("kdl", "kde", "rasp", "seg"))
    if state.loss_cfg.lambda_rasp == 0.0:      # RaSP runs iff lambda_rasp != 0
        assert comps["rasp"] == 0.0
        assert not any(len(terms["rasp"][0]) for terms in group_losses)


@pytest.mark.parametrize("rasp", [0.0, 1.0])
@pytest.mark.parametrize("seg_on", [False, True])
def test_grouped_benchmark_batch_matches_one_forward(world, rasp, seg_on):
    """float64: a 24-item batch shaped like a step-1 benchmark batch (18
    current items, then 6 memory items) runs as groups of 4 on each shard,
    and its gradients and loss components equal one forward over all 24
    items at 1e-10."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False, dtype=np.float64)
    state, samples, _ = step_inputs(world, model, cfg, loss_cfg=LossConfig(
        seg_warmup_epochs=0 if seg_on else 1, lambda_rasp=rasp))
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 6, seed=3)
    pool = prepare(world, state, samples[:18], bank)
    assert len(pool.images) == 24 and pool.n_current == 18

    log = ProcessLog()
    forward = state.model.encoder.forward

    def spy_forward(x):
        log.append(len(x))
        return forward(x)

    state.model.encoder.forward = spy_forward
    comps, [grads] = one_batch(state, pool, range(24))
    sizes = log.drain()
    assert [n for _, n in sizes] == [4] * 6
    here = [pid for pid, _ in sizes if pid == os.getpid()]
    assert len(here) == 3 and len({pid for pid, _ in sizes}) == 2
    with whole_batch():
        ref_comps, [ref] = one_batch(state, pool, range(24))
    assert log.drain() == [(os.getpid(), 24)]
    assert_close_dicts(grads, ref)
    assert comps.keys() == ref_comps.keys()
    for key in ref_comps:
        assert abs(comps[key] - ref_comps[key]) < 1e-10, key
    assert (comps["rasp"] != 0.0) == (rasp != 0.0)
    assert (comps["seg"] != 0.0) == seg_on


@pytest.fixture(scope="module")
def float32_group(world):
    """A float32 step-1 state with the seg branch on and lambda_rasp 1, its
    pool of 6 current and 2 memory rows, and a batch of all 8, whose two
    groups of 4 each end in a memory row."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg, loss_cfg=LossConfig(
        seg_warmup_epochs=0, lambda_rasp=1.0))
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 2, seed=3)
    pool = prepare(world, state, samples[:6], bank)
    # the encoder moved away from the old model's, as training moves it, so
    # that kde's difference is not zero
    rng = np.random.default_rng(0)
    for p in state.model.encoder.params().values():
        p += (0.05 * np.abs(p).max() * rng.standard_normal(p.shape)).astype(p.dtype)
    idx = np.array([0, 1, 2, 6, 3, 4, 5, 7], dtype=np.int64)
    return state, pool, idx


def _chain_forward(chain, x):
    """The chain's forward with the parent's LeakyReLU, which caches x."""
    caches = []
    for layer in chain.layers:
        if isinstance(layer, layers.LeakyReLU):
            x, cache = np.maximum(x, layer.slope * x), x
        else:
            x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def _chain_backward(chain, dy, caches, g):
    """The chain's backward with the parent's LeakyReLU gain,
    max(sign(x), slope) * dy, and ChannelNorm's out-of-place formula."""
    for layer, cache in zip(chain.layers[:0:-1], caches[:0:-1]):
        if isinstance(layer, layers.LeakyReLU):
            gain = np.sign(cache)
            np.maximum(gain, layer.slope, out=gain)
            dy = dy * gain
        elif isinstance(layer, layers.ChannelNorm):
            dy = norm_backward_reference(layer, dy, cache, g)
        else:
            dy = layer.backward(dy, cache, g)
    return chain.layers[0].backward(dy, caches[0], g, chain.input_grad)


def parent_group(state, pool, table, idx, group, g):
    """One group step by the parent's formulas: the LeakyReLU and
    ChannelNorm above, every BCE term on fresh arrays (``bce_reference``),
    kde as 2.0 * (f - f_old) / n on fresh arrays added into a zeroed
    feature gradient, the seg gradient scattered into zeros, and the RaSP
    targets table[argmax(y_old)] per pixel."""
    model, n_old = state.model, state.n_old
    rows = idx[group]
    n_all, n_cur = len(idx), int(np.count_nonzero(idx < pool.n_current))
    rasp = table[np.argmax(pool.y_old, axis=3)]
    feat, enc_cache = _chain_forward(
        model.encoder, engine.image_to_input(pool.images[rows], model.dtype))
    z, loc_cache = _chain_forward(model.localizer, feat)
    p_hat, head_cache = model.head.forward(feat)
    cur = np.flatnonzero(rows < pool.n_current)
    losses = {key: [] for key in objectives.LOSS_COMPONENTS}
    scores, m, scores_vjp = objectives.image_scores_vjp(z)
    upstream = np.zeros_like(scores)
    for i, row in enumerate(rows):
        first = n_old if row < pool.n_current else 1
        scores_i = scores[i:i + 1, first:].astype(np.float64)
        loss, upstream[i:i + 1, first:] = bce_reference(
            scores_i, pool.labels[row:row + 1, first - 1:], scores_i.size)
        losses["cls"].extend(loss)
    dz = scores_vjp(upstream) / n_all
    dp = np.zeros_like(p_hat)
    dfeat = np.zeros_like(feat)
    n_pix = z.shape[1] * z.shape[2]
    y_old, feat_old = pool.y_old[rows[cur]], pool.feat_old[rows[cur]]
    losses["kdl"], grad = bce_reference(
        z[cur, :, :, :n_old], y_old, n_pix * n_old * n_cur)
    dz[cur, :, :, :n_old] += grad
    diff = feat[cur] - feat_old
    dist = (diff * diff).sum(axis=-1)
    losses["kde"] = dist.reshape(len(diff), -1).sum(axis=1).astype(np.float64) / n_pix
    dfeat[cur] += 2.0 * diff / (n_pix * n_cur)
    for i in cur:
        shown = np.flatnonzero(pool.labels[rows[i], n_old - 1:])
        zi = z[i:i + 1][..., n_old + shown]
        loss, grad = bce_reference(zi, rasp[rows[i:i + 1]][..., shown], zi.size)
        losses["rasp"].extend(loss)
        dz[i:i + 1][..., n_old + shown] += (state.loss_cfg.lambda_rasp / n_cur) * grad
    q_tilde = objectives.pseudo_supervision(m[cur], y_old)
    losses["seg"], grad = bce_reference(
        p_hat[cur], q_tilde, n_pix * p_hat.shape[3] * n_cur)
    dp[cur] += grad
    dfeat += _chain_backward(model.localizer, dz, loc_cache, g)
    dfeat += model.head.backward(dp, head_cache, g)
    _chain_backward(model.encoder, dfeat, enc_cache, g)
    return losses


def test_group_step_is_bitwise_the_parent_formulas(world, float32_group):
    """float32, seg on, lambda_rasp 1, in the fixture's batch, whose groups
    hold memory rows, and in a batch of the current rows alone: each
    group's gradients and per-item losses equal the parent's formulas bit
    for bit (the mask LeakyReLU, ChannelNorm's backward in dy's buffer,
    the BCE loss in softplus's buffer, kde in one buffer, the seg gradient
    scattered only beside memory rows, RaSP targets gathered from the
    table at the old argmax)."""
    tax, sched, data, sim = world
    state, pool, mixed = float32_group
    table = simprior.rasp_target_table(sim, tax.registry, state.old_model.class_names,
                                       state.model.class_names[state.n_old:],
                                       state.loss_cfg.tau, state.model.dtype)
    assert state.model.dtype == np.float32
    assert np.array_equal(pool.rasp_table, table)
    batches = [mixed, np.arange(pool.n_current)]
    for idx, group in ((idx, group) for idx in batches
                       for group in group_slices(slice(0, len(idx)))):
        g, want_g = (zero_grads(state.model.params()) for _ in range(2))
        got = engine._incremental_group(state, pool, 0, idx, group, g)
        want = parent_group(state, pool, table, idx, group, want_g)
        assert set(got) == set(want)
        for key, (values, _) in got.items():
            assert np.array_equal(values, want[key]), key
        assert len(got["rasp"][0]) == len(got["kde"][0]) == 3
        assert np.all(got["kde"][0] > 0)
        for name in want_g:
            assert want_g[name].dtype == np.float32
            assert np.array_equal(g[name], want_g[name]), name


def test_group_step_peak_memory(float32_group):
    """One group step's traced peak stays below its forward caches plus 3.5
    feature arrays of the group.  It reads 2.9 over the caches, so one more
    feature-sized array alive at the peak, such as a zeroed feature
    gradient beside kde's buffer, crosses the bound."""
    state, pool, idx = float32_group
    model = state.model
    group = slice(0, 4)
    rows = idx[group]
    feat, enc_cache = model.encoder.forward(
        engine.image_to_input(pool.images[rows], model.dtype))
    _, loc_cache = model.localizer.forward(feat)
    _, head_cache = model.head.forward(feat)
    caches = unique_nbytes([enc_cache, loc_cache, head_cache])
    bound = caches + 3.5 * feat.nbytes
    del feat, enc_cache, loc_cache, head_cache
    g = zero_grads(model.params())
    tracemalloc.start()
    try:
        engine._incremental_group(state, pool, 0, idx, group, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak - caches) / (bound - caches) * 3.5


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
    bank = episodic_bank(step_samples(data, sched, 0), sched.base_classes,
                         tax.registry, 6, seed=3)
    pool = prepare(world, state, samples[:20], bank)
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
    one_batch(state, pool, range(26))
    events = log.drain()
    [worker] = {pid for pid, _ in events} - {os.getpid()}
    assert len(pool.images) == 26  # two shards of 13: groups of 4, 3, 3, 3
    for pid, shard in ((os.getpid(), slice(0, 13)), (worker, slice(13, 26))):
        mine = [e for p, e in events if p == pid]
        groups = group_slices(shard)
        assert [e[0] for e in mine] == ["fwd", "bwd", "bwd_end"] * len(groups)
        for k, group in enumerate(groups):
            fwd, bwd, bwd_end = mine[3 * k:3 * k + 3]
            want_x = engine.image_to_input(pool.images[group], state.model.dtype)
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
    real_losses = engine._batch_losses

    class SpyShards(layers.Shards):
        def __call__(self, n, *args):
            out = super().__call__(n, *args)
            # a training batch's call passes its epoch and items
            events.append(("batch" if len(args) == 2 else "other", id(self),
                           self._proc.pid))
            return out

    def spy_losses(*args):
        log.append("losses")
        return real_losses(*args)

    monkeypatch.setattr(engine, "Shards", SpyShards)
    monkeypatch.setattr(engine, "_batch_losses", spy_losses)
    base = step_samples(data, sched, 0)[:20]
    model = SegModel.init(sched.channel_names(0), seed=cfg.seed)
    model, _ = base_train(model, base, tax.registry, cfg)
    assert [kind for kind, _, _ in events] == ["batch"] * (2 * 3)   # 8, 8, 4 per epoch
    assert len({(loop, worker) for _, loop, worker in events}) == 1
    assert events[0][2] != os.getpid()

    events.clear()
    bank = episodic_bank(base, sched.base_classes, tax.registry, 8, seed=3)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    incremental_step(state, prepare(world, state, samples[:12], bank))
    # _prepare_pool's chunks of 8 and 4, then 2 epochs of batches 8 and 4
    assert [kind for kind, _, _ in events] == ["other"] * 2 + ["batch"] * (2 * 2)
    assert len({(loop, worker) for _, loop, worker in events[2:]}) == 1
    assert events[2][2] not in (os.getpid(), events[0][2])
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


def warmup_grads_with_head(state, pool, rows):
    """Warm-up gradients as computed before the head was skipped.

    Shard by shard on this thread, the head runs forward and then backward
    on an all-zero gradient, whose input gradient is added to the
    encoder's.  Each shard's loss terms see its own rows and the whole
    batch's row counts.
    """
    model = state.model
    rows = np.asarray(rows)
    x = engine.image_to_input(pool.images[rows], state.model.dtype)
    n_cur = int(np.count_nonzero(rows < pool.n_current))
    shards = shard_slices(len(rows))
    dicts = [zero_grads(model.params()) for _ in shards]
    for r, g in zip(shards, dicts):
        feat, enc_cache = model.encoder.forward(x[r])
        z, loc_cache = model.localizer.forward(feat)
        p_hat, head_cache = model.head.forward(feat)
        _, dz, dp, dkde = engine._batch_losses(
            state, pool, rows[r], feat, z, None, len(rows), n_cur)
        assert dp is None
        dfeat = model.localizer.backward(dz, loc_cache, g)
        if dkde is not None:
            dfeat[rows[r] < pool.n_current] += dkde
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
                                    loss_cfg=LossConfig(seg_warmup_epochs=1))
    pool = prepare(world, state, samples[:7])
    want = warmup_grads_with_head(state, pool, range(7))
    state.model.head = _NoHead(state.model.head)
    _, [grads] = one_batch(state, pool, range(7))
    assert grads.keys() == want.keys()
    for name in want:
        assert np.array_equal(grads[name], want[name]), name
    assert not np.any(grads["head.W"]) and not np.any(grads["head.b"])
    state.loss_cfg = LossConfig(seg_warmup_epochs=0)
    with pytest.raises(AssertionError, match="seg head ran forward"):
        one_batch(state, pool, range(7))


def test_shards_run_on_caller_and_one_worker(world):
    """Shard 0 in this process, shard 1 always in the same worker: ten
    batches of one training loop give the same gradients, so each shard's
    forward and backward ran in one process, on its own buffers, with the
    parameters this process sent."""
    tax, sched, data, sim = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    state, samples, _ = step_inputs(world, model, cfg,
                                    loss_cfg=LossConfig(seg_warmup_epochs=0))
    pool = prepare(world, state, samples[:7])
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
    _, results = one_batch(state, pool, range(7), epochs=10)
    assert len(results) == 10
    for grads in results[1:]:
        for name in grads:
            assert np.array_equal(grads[name], results[0][name]), name
    calls = log.drain()
    assert len(calls) == 40
    assert {pid for pid, (_, n) in calls if n == 4} == {os.getpid()}
    workers = {pid for pid, (_, n) in calls if n == 3}
    assert len(workers) == 1 and workers != {os.getpid()}


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


def reference_counts(model, samples, registry):
    """Confusion counts of predict_alone's maps, image by image."""
    n = len(registry)
    counts = np.zeros((n, n), dtype=np.int64)
    for s in samples:
        pred = predict_alone(model, s, registry)
        np.add.at(counts, (s.dense_mask.ravel(), pred.ravel()), 1)
    return counts


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_predict_dataset_equals_per_image_reference(world, dtype, n):
    tax, sched, data, _ = world
    model, _ = base_model(world, small_cfg(), train=False, dtype=np.dtype(dtype).type)
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
    """A 63 px image is padded to 64 px before its space-to-depth
    rearrangement, so both sizes become 32 x 32 network inputs; the counts
    must match each image run alone."""
    tax, sched, data, _ = world
    cfg = small_cfg()
    model, _ = base_model(world, cfg, train=False)
    odd = generate_dataset(tax, 3, image_size=63, seed=7)
    samples = [data[0], odd[0], data[1], odd[1], data[2], odd[2]]
    got = predict_dataset(model, samples, tax.registry)
    assert got.sum() == 3 * (64 * 64 + 63 * 63)
    assert np.array_equal(got, reference_counts(model, samples, tax.registry))


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
        def __call__(self, n, *args):
            calls.append(len(layers.shard_slices(n)))
            return super().__call__(n, *args)

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
