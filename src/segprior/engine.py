"""The segmentation model and the per-step training loops.

The network is one fixed definition, written as the module constants
below; no setting changes it.  The encoder is four 3x3 convs of 8, 16, 16
and 32 channels, the first of stride 2 and the rest of stride 1, so its
features have half the image's height and width.  Each conv is followed by
a leaky ReLU of slope 0.01, the last one by a ChannelNorm before it.  Two
heads share the encoder: a 1x1 segmentation head extended with new output
channels at every step, and a localizer retrained from scratch per step.
The localizer is two 3x3 convs of 16 channels, each followed by a
ChannelNorm and a leaky ReLU, then a 1x1 projection to one channel per
class; its spatial scores drive the image-level classification loss and
the pseudo-labels.  Encoder and localizer are ``layers.Chain``s, and the
encoder computes no gradient for the input images.  The previous step's
model, frozen, supplies the distillation targets, and its argmax picks
each pixel's row of the RaSP target table (``segprior.simprior``).

Channel order of every head is bkg first, then base classes, then each
increment in schedule order.  Gradient routing per batch:

* localizer   <- cls + kdl + lambda * rasp
* seg head    <- seg (after the warmup epochs)
* encoder     <- everything above plus kde
* old model   <- nothing, ever

Memory items contribute only to the classification loss, extended over the
old foreground channels (their stored labels) with the new classes as
negatives.

Every loss and pooling formula lives in ``objectives``, which the
finite-difference tests check; this module holds none.  ``_batch_losses``
only routes: it picks the rows and channels each term applies to, calls
the term's batch-native function with the whole batch's normaliser, and
adds the gradient into dz (localizer logits), dp (seg logits) or the
encoder features.  ``base_train`` and ``incremental_step`` share one
training loop, ``_fit``; each supplies the per-batch work and keeps its own
trace format.

Every batch runs as two shards (``layers.Shards``): shard 0 in the calling
process and shard 1 in one worker process that ``_fit`` forks once per
training run (``_training_shards``), after the images, targets or
prepared items exist, so the worker inherits them.  Each batch sends the
worker only the batch's item indices, the epoch and the current
parameters; it sends back its per-item losses and its gradients.  Each
shard runs its items as consecutive groups of at most
``layers.GROUP_ITEMS`` items (``layers.group_slices``), each small enough
for its activations to come from cache.  Each group runs forward, its
loss terms and backward in one pass, and its backward ends before the
next group's forward begins.  Every loss term is a per-item quantity
normalised by whole-batch counts (all items, current items), so each
group computes its items' terms and output gradients with the whole
batch's normalisers; the group gradients accumulate into their shard's,
and the shard gradients, summed in shard order, are the whole batch's.
The caller adds the per-item losses in item order and checks them for
finiteness.

Evaluation (``predict_dataset``) forks one worker for the second half of
the sample sequence.  The CLI passes the split as ``synthdata.load_dataset``
returns it, a sequence that reads a sample from disk when it is indexed, so
each shard reads its own images, one at a time, in its own process.  Each
image goes through the encoder and the seg head alone, so no batch is
stacked and one image's activations stay in cache, and each shard counts
its label maps into a confusion matrix of its own; only the two matrices
are joined.  Before a step trains, the old model runs forward over the
step's images, chunk by chunk as two shards and each shard in groups, and
the outputs are joined (``_prepare_items``).  Neither keeps backward
caches (``Chain.infer``).

Memory: the worker shares the caller's pages until one of the two writes
them, so what the two processes hold together in training is the data
both read once, plus each shard's own working set.  The data is kept
small: images and masks stay uint8 as the files store them, and so do
the base targets, as channel-index maps; items and base batches convert a
group's inputs, and expand its one-hot targets, when it runs; the old
model's scores and features fill one array each; and a training group
releases each layer's cache once its backward has run.  Evaluation holds
no split at all, only the image each shard is scoring, so its memory does
not grow with the split's size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import evalkit, objectives, simprior
from .fileio import atomic_open
from .layers import (Chain, ChannelNorm, Conv2d, LeakyReLU, SGDMomentum, Shards,
                     group_slices, shard_slices, zero_grads)
from .memory import mix_batch
from .objectives import LossConfig

ENCODER_CHANNELS = (8, 16, 16, 32)
ENCODER_STRIDES = (2, 1, 1, 1)
LOCALIZER_HIDDEN = 16
LEAKY_SLOPE = 0.01


@dataclass
class EngineConfig:
    lr_base: float = 0.03
    lr_incremental: float = 0.005
    epochs_base: int = 40
    epochs_incremental: int = 40
    batch_size: int = 24
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', not {self.dtype!r}")
        for name in ("batch_size", "epochs_base", "epochs_incremental"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)!r}")
        for name in ("lr_base", "lr_incremental"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)!r}")

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _encoder(rng, dtype):
    act = LeakyReLU(LEAKY_SLOPE)
    layers, cin = [], 3
    for i, (cout, stride) in enumerate(zip(ENCODER_CHANNELS, ENCODER_STRIDES)):
        layers.append(Conv2d(f"enc.{i}", 3, cin, cout, stride, rng, dtype))
        if i == len(ENCODER_CHANNELS) - 1:
            layers.append(ChannelNorm(f"enc.n{i}", cout, dtype))
        layers.append(act)
        cin = cout
    return Chain(layers, input_grad=False)


def _localizer(n_classes, rng, dtype):
    h, act = LOCALIZER_HIDDEN, LeakyReLU(LEAKY_SLOPE)
    return Chain([
        Conv2d("loc.0", 3, ENCODER_CHANNELS[-1], h, 1, rng, dtype),
        ChannelNorm("loc.n0", h, dtype), act,
        Conv2d("loc.1", 3, h, h, 1, rng, dtype), ChannelNorm("loc.n1", h, dtype), act,
        Conv2d("loc.2", 1, h, n_classes, 1, rng, dtype),
    ])


class SegModel:
    """Encoder + incrementally extended seg head + per-step localizer."""

    def __init__(self, class_names, encoder, head, localizer, dtype):
        self.class_names = tuple(class_names)
        self.encoder = encoder
        self.head = head
        self.localizer = localizer
        self.dtype = dtype

    @classmethod
    def init(cls, class_names, seed, dtype=np.float32):
        ss = np.random.SeedSequence(seed)
        enc_rng, head_rng, loc_rng = (
            np.random.default_rng(s) for s in ss.spawn(3)
        )
        head = Conv2d("head", 1, ENCODER_CHANNELS[-1], len(class_names), 1,
                      head_rng, dtype)
        return cls(class_names, _encoder(enc_rng, dtype), head,
                   _localizer(len(class_names), loc_rng, dtype), dtype)

    def params(self):
        out = {}
        out.update(self.encoder.params())
        out.update(self.head.params())
        out.update(self.localizer.params())
        return out

    def copy(self):
        return copy.deepcopy(self)

    def n_classes(self):
        return len(self.class_names)


def extend_head(model, new_classes, seed):
    """Grow the seg head by the new classes and reinitialize the localizer.

    Existing head channels are copied bit-identically; new channels start at
    small seeded random weights with zero bias.
    """
    new_classes = list(new_classes)
    if not new_classes:
        raise ValueError("extend_head needs at least one new class")
    dupes = set(new_classes) & set(model.class_names)
    if dupes or len(set(new_classes)) != len(new_classes):
        raise ValueError(f"duplicate classes in head extension: {sorted(dupes) or new_classes}")
    ss = np.random.SeedSequence(seed)
    head_rng, loc_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    out = model.copy()
    names = tuple(model.class_names) + tuple(new_classes)
    d = model.head.W.shape[2]
    head = Conv2d("head", 1, d, len(names), 1, head_rng, model.dtype)
    head.W[:, :, :, : len(model.class_names)] = model.head.W
    head.W[:, :, :, len(model.class_names):] = (
        head_rng.standard_normal((1, 1, d, len(new_classes))) * 1e-3
    ).astype(model.dtype)
    head.b = np.zeros(len(names), dtype=model.dtype)
    head.b[: len(model.class_names)] = model.head.b
    localizer = _localizer(len(names), loc_rng, model.dtype)
    return SegModel(names, out.encoder, head, localizer, model.dtype)


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

def image_to_input(image, dtype):
    return (image.astype(dtype) / 255.0) - 0.5


def nearest_resize(src, oh, ow):
    """Nearest-neighbour resize of a 2-D integer grid to (oh, ow)."""
    h, w = src.shape
    rows = (np.arange(oh) * h) // oh
    cols = (np.arange(ow) * w) // ow
    return src[rows[:, None], cols[None, :]]


def _training_shards(step, params):
    """The Shards that run the batches of one training loop.

    Its shard function, shard(key, rows, g), runs step(key, group, g) on
    each group of the slice rows (``group_slices``) one after another, and
    returns the steps' results and g.  key identifies the batch, and must
    pickle; a step runs forward, its group's loss terms and backward in
    one pass, so a group's backward ends before the next group's forward
    begins.  Shard 1 gets no g and accumulates into a zeroed dict of its
    own.  The worker keeps params in step with this process's.
    """
    def shard(key, rows, g=None):
        if g is None:
            g = zero_grads(params)
        return [step(key, group, g) for group in group_slices(rows)], g

    return Shards(shard, sync=params)


def _train_batch(shards, key, n, grads):
    """Run the batch key of n items on the two shards of a ``_training_shards``.

    Shard 0's groups accumulate into grads, and shard 1's gradients are
    added to them afterwards.  Returns the steps' results in item order:
    shard by shard, group by group.
    """
    shard_args = [(key, rows) for rows in shard_slices(n)]
    shard_args[0] += (grads,)
    outs = shards(shard_args)
    for _, g in outs[1:]:
        for name, value in g.items():
            grads[name] += value
    return [result for results, _ in outs for result in results]


def _fit(cfg, params, lr, epochs, n_items, rng, shards, run_batch):
    """The training loop both steps share; returns per-epoch batch means.

    Each epoch draws a permutation of the n_items from rng and cuts it into
    batches of cfg.batch_size.  For each batch, run_batch(epoch, idx, grads)
    fills the zeroed gradients of params through shards (a
    ``_training_shards``) and returns a dict of floats, and one
    SGD-with-momentum step applies the gradients.  An epoch's entry holds
    the mean of each returned value over its batches, added up in batch
    order.  The shards' worker lives for the whole loop.
    """
    opt = SGDMomentum(lr)
    trace = []
    with shards:
        for epoch in range(epochs):
            order = rng.permutation(n_items)
            sums, n_batches = {}, 0
            for start in range(0, n_items, cfg.batch_size):
                grads = zero_grads(params)
                out = run_batch(epoch, order[start:start + cfg.batch_size], grads)
                opt.step(params, grads)
                for key, value in out.items():
                    sums[key] = sums.get(key, 0.0) + value
                n_batches += 1
            trace.append({key: total / n_batches for key, total in sums.items()})
    return trace


# ---------------------------------------------------------------------------
# Base training (dense supervision)
# ---------------------------------------------------------------------------

def base_train(model, samples, registry, cfg):
    """Train encoder + seg head with per-pixel BCE against one-hot masks.

    Classes outside the model's label space count as background, matching
    the convention that unseen content is annotated as background.
    """
    if not samples:
        raise ValueError("base training needs a non-empty dataset")
    for s in samples:
        if s.dense_mask is None:
            raise ValueError("base training needs dense masks")
    dtype = model.dtype
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    h, w = samples[0].image.shape[:2]
    ho, wo = (h + 1) // 2, (w + 1) // 2   # the encoder's stride-2 conv
    n_classes = model.n_classes()
    lut = np.zeros(len(registry), dtype=np.uint8)
    for ch, name in enumerate(model.class_names):
        lut[registry.index_of(name)] = ch
    # raw images and channel-index maps: a group's inputs are converted and
    # its one-hot targets expanded when it runs
    images = np.stack([s.image for s in samples])
    labels = np.stack([lut[nearest_resize(s.dense_mask, ho, wo)] for s in samples])
    eye = np.eye(n_classes, dtype=dtype)
    # the localizer plays no part here, and extend_head replaces it
    params = {**model.encoder.params(), **model.head.params()}
    per_item = ho * wo * n_classes

    def step(idx, rows, g):
        t = eye[labels[idx[rows]]]
        feat, enc_cache = model.encoder.forward(image_to_input(images[idx[rows]], dtype))
        logits, head_cache = model.head.forward(feat)
        loss_sum, dlogits = objectives.bce_sum_grad(logits, t, len(idx) * per_item)
        dfeat = model.head.backward(dlogits, head_cache, g)
        model.encoder.backward(dfeat, enc_cache, g)
        return float(loss_sum)

    shards = _training_shards(step, params)

    def run_batch(epoch, idx, grads):
        loss = sum(_train_batch(shards, idx, len(idx), grads)) / (len(idx) * per_item)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite base loss at epoch {epoch}")
        return {"loss": loss}

    trace = _fit(cfg, params, cfg.lr_base, cfg.epochs_base, len(samples),
                 shuffle_rng, shards, run_batch)
    return model, [entry["loss"] for entry in trace]


# ---------------------------------------------------------------------------
# Incremental step
# ---------------------------------------------------------------------------

@dataclass
class StepState:
    """One incremental step: the parent model, the model it trains, the settings.

    old_model is the previous step's model, frozen; ``extend_head`` built
    ``model`` from a deep copy of it, so training leaves it unchanged.
    """

    step: int
    old_model: SegModel
    model: SegModel
    loss_cfg: LossConfig
    engine_cfg: EngineConfig
    n_old: int                   # previous label-space size, bkg included
    epoch: int = 0

    def seg_active(self):
        return self.epoch >= self.loss_cfg.seg_warmup_epochs


@dataclass
class _Item:
    image: np.ndarray               # (H, W, 3) raw image; see ``_inputs``
    y_old: np.ndarray = None        # (h, w, n_old) old-model sigmoid scores
    feat_old: np.ndarray = None     # (h, w, D) old-model features
    rasp_target: np.ndarray = None  # (h, w, K) RaSP targets of the present classes
    present: np.ndarray = None      # channel indices of present new classes
    labels_new: np.ndarray = None   # binary over new channels
    labels_fg: np.ndarray = None    # binary over all foreground channels (memory)
    is_memory: bool = False


def _inputs(items, dtype):
    """The stacked network inputs of items or samples, from their raw images."""
    return image_to_input(np.stack([it.image for it in items]), dtype)


def _prepare_items(state, samples, registry, sim_matrix):
    """Per-image caches: old-model scores and features, labels, RaSP targets.

    The old model runs forward over chunks of cfg.batch_size images, each
    chunk as two shards, in this process and one forked worker, and each
    shard in groups of at most ``GROUP_ITEMS`` images with no backward
    caches kept, so one small group's activations are alive at a time.
    The scores and features land in one array each, which the items view.
    The RaSP target table is built once; an image's targets are its rows
    at the old model's argmax, at the columns of the new classes present.
    """
    cfg = state.engine_cfg
    # a copy, so that its conv work buffers go when this returns
    old = copy.deepcopy(state.old_model)
    dtype = state.model.dtype
    n_old = state.n_old
    new_names = state.model.class_names[n_old:]
    new_pos = {name: k for k, name in enumerate(new_names)}
    use_rasp = state.loss_cfg.lambda_rasp != 0
    if use_rasp:
        table = simprior.rasp_target_table(sim_matrix, registry, old.class_names,
                                           new_names, state.loss_cfg.tau, dtype)

    def old_forward(rows):
        out = []
        for group in group_slices(rows):
            feat = old.encoder.infer(_inputs(samples[group], dtype))
            logits, _ = old.head.forward(feat)
            out.append((objectives.sigmoid(logits), feat))
        return out

    items = []
    y_old = feat_old = None
    with Shards(old_forward) as shards:
        for start in range(0, len(samples), cfg.batch_size):
            chunk = samples[start:start + cfg.batch_size]
            outs = shards([(slice(start + r.start, start + r.stop),)
                           for r in shard_slices(len(chunk))])
            pos = start
            for y, feat in (group for shard in outs for group in shard):
                if y_old is None:
                    y_old = np.empty((len(samples),) + y.shape[1:], dtype)
                    feat_old = np.empty((len(samples),) + feat.shape[1:], dtype)
                y_old[pos:pos + len(y)], feat_old[pos:pos + len(y)] = y, feat
                pos += len(y)
            if not np.all(np.isfinite(y_old[start:pos])):
                raise ValueError("old-model scores contain non-finite values")
            for j, sample in enumerate(chunk, start):
                if not sample.weak_labels:
                    raise ValueError("incremental samples need non-empty weak labels")
                item = _Item(image=sample.image, y_old=y_old[j], feat_old=feat_old[j])
                labels = np.zeros(len(new_names), dtype=np.float64)
                for name in sample.weak_labels:
                    labels[new_pos[name]] = 1.0
                item.labels_new = labels
                # sorted: a set's order varies from run to run, and the rasp
                # loss sums over the columns in this order
                cols = [new_pos[name] for name in sorted(sample.weak_labels)]
                item.present = n_old + np.array(cols, dtype=np.int64)
                if use_rasp:
                    # columns first: the lookup then yields a contiguous array
                    item.rasp_target = table[:, cols][np.argmax(y_old[j], axis=2)]
                items.append(item)
    return items


def _prepare_memory(state, bank):
    """The bank's entries as memory items, in bank order; none without a bank."""
    if bank is None:
        return []
    fg_names = state.model.class_names[1:]
    pos = {name: k for k, name in enumerate(fg_names)}
    prepared = []
    for entry in bank.entries:
        labels = np.zeros(len(fg_names), dtype=np.float64)
        for name in entry.labels:
            labels[pos[name]] = 1.0
        prepared.append(_Item(image=entry.image, labels_fg=labels, is_memory=True))
    return prepared


def incremental_shards(state, pool):
    """The ``_training_shards`` of a step's batches drawn from the item list pool.

    A batch's key is (epoch, idx): state.epoch and the positions of its
    items in pool, in batch order.  Each group runs forward, its own items'
    loss terms and backward before the next group starts, and returns its
    per-item losses and the batch's count of current items.  The loss terms
    share the whole batch's normalisers, so the summed group gradients are
    the whole batch's.  The seg head runs only once the warm-up epochs are
    over.
    """
    model = state.model

    def step(key, rows, g):
        state.epoch, idx = key
        batch = [pool[i] for i in idx]
        n_cur = sum(not it.is_memory for it in batch)
        items = batch[rows]
        seg_active = state.seg_active()
        feat, enc_cache = model.encoder.forward(_inputs(items, model.dtype))
        z, loc_cache = model.localizer.forward(feat)
        p_hat, head_cache = model.head.forward(feat) if seg_active else (None, None)
        losses, dz, dp, dfeat = _batch_losses(state, items, feat, z, p_hat,
                                              len(batch), n_cur)
        dfeat += model.localizer.backward(dz, loc_cache, g)
        if seg_active:
            dfeat += model.head.backward(dp, head_cache, g)
        # the heads are done: their outputs and caches go before the
        # encoder's backward runs
        del feat, z, p_hat, dz, dp, loc_cache, head_cache
        model.encoder.backward(dfeat, enc_cache, g)
        return losses, n_cur

    return _training_shards(step, model.params())


def incremental_batch(state, idx, grads, shards):
    """Losses and parameter gradients for the batch of the items pool[idx].

    shards is ``incremental_shards(state, pool)``; the batch runs at
    state.epoch.  Exposed separately so tests can probe the gradient
    routing directly.
    """
    idx = [int(i) for i in idx]
    n_all = len(idx)
    results = _train_batch(shards, (state.epoch, idx), n_all, grads)
    n_cur = results[0][1]       # every group counts the same batch
    # per-item losses in item order (group by group, shard 0's first),
    # added one by one as a whole-batch loop would, so the trace does not
    # depend on the split; a term no item computed stays 0.0
    sums = dict.fromkeys(objectives.LOSS_COMPONENTS, 0.0)
    for losses, _ in results:
        for key, values in losses.items():
            for value in values:
                sums[key] += float(value)
    comps = {key: total / (n_all if key == "cls" else max(n_cur, 1))
             for key, total in sums.items()}
    for key, value in comps.items():
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite {key} loss at step {state.step} epoch {state.epoch}: {comps}"
            )
    return comps


def _batch_losses(state, items, feat, z, p_hat, n_all, n_cur):
    """Route one group's outputs through the objective; no formula lives here.

    items are the group's own; n_all and n_cur count the whole batch's
    items and current (non-memory) items.  Each term comes from its
    objectives function, called on the rows it applies to and normalised
    by the whole batch's count, so the groups' gradients add up to the
    whole batch's:

    * cls, every item: the pooled scores of ``image_scores_vjp``, scored
      per item by ``cls_loss_grad`` over the new channels (current items)
      or all foreground channels (memory items), back through the VJP;
    * kdl, kde and seg, current items: the old channels of z against the
      old model's scores, the features against the old features, and the
      seg logits against ``pseudo_supervision`` of the localizer softmax;
    * rasp, current items, when lambda_rasp is non-zero: ``rasp_loss_grad``
      per item on the channels of the new classes present.

    p_hat is None in the warm-up epochs, where dp is None too.  Returns
    (losses, dz, dp, dfeat_extra): losses maps each term to its per-item
    values in item order, and dfeat_extra is the kde gradient on the
    encoder features.
    """
    lcfg = state.loss_cfg
    n_old = state.n_old
    cur = [i for i, it in enumerate(items) if not it.is_memory]
    losses = {key: [] for key in objectives.LOSS_COMPONENTS}

    scores, m, scores_vjp = objectives.image_scores_vjp(z)
    upstream = np.zeros_like(scores)
    for i, item in enumerate(items):
        sel = slice(1, None) if item.is_memory else slice(n_old, None)
        labels = item.labels_fg if item.is_memory else item.labels_new
        loss, upstream[i, sel] = objectives.cls_loss_grad(scores[i, sel], labels)
        losses["cls"].append(loss)
    dz = scores_vjp(upstream) / n_all
    dp = None if p_hat is None else np.zeros_like(p_hat)
    dfeat_extra = np.zeros_like(feat)
    if not cur:
        return losses, dz, dp, dfeat_extra

    n_pix = z.shape[1] * z.shape[2]
    y_old = np.stack([items[i].y_old for i in cur])
    feat_old = np.stack([items[i].feat_old for i in cur])
    losses["kdl"], grad = objectives.kdl_loss_grad(
        z[cur, :, :, :n_old], y_old, n_pix * n_old * n_cur)
    dz[cur, :, :, :n_old] += grad
    losses["kde"], grad = objectives.kde_loss_grad(
        feat[cur], feat_old, n_pix * n_cur)
    dfeat_extra[cur] += grad
    if lcfg.lambda_rasp != 0:
        for i in cur:
            present = items[i].present
            loss, grad = objectives.rasp_loss_grad(z[i][:, :, present],
                                                   items[i].rasp_target)
            losses["rasp"].append(loss)
            dz[i][:, :, present] += (lcfg.lambda_rasp / n_cur) * grad
    if p_hat is not None:
        q_tilde = objectives.pseudo_supervision(m[cur], y_old)
        losses["seg"], grad = objectives.seg_loss_grad(
            p_hat[cur], q_tilde, n_pix * p_hat.shape[3] * n_cur)
        dp[cur] += grad
    return losses, dz, dp, dfeat_extra


def incremental_step(state, samples, bank, sim_matrix, registry):
    """Run one weakly supervised step; returns the model and per-epoch trace."""
    if state.step < 1:
        raise ValueError("incremental steps start at 1")
    if not samples:
        raise ValueError("incremental step received no samples")
    cfg = state.engine_cfg
    items = _prepare_items(state, samples, registry, sim_matrix)
    pool = items + _prepare_memory(state, bank)
    memory = range(len(items), len(pool))
    ss = np.random.SeedSequence((cfg.seed, state.step))
    shuffle_seed, memory_seed = ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    memory_rng = np.random.default_rng(memory_seed)
    shards = incremental_shards(state, pool)

    def run_batch(epoch, idx, grads):
        state.epoch = epoch
        if memory:
            idx = mix_batch(idx, memory, memory_rng)
        comps = incremental_batch(state, idx, grads, shards)
        return {**comps, "total": objectives.total_loss(comps, state.loss_cfg, epoch)}

    trace = _fit(cfg, state.model.params(), cfg.lr_incremental,
                 cfg.epochs_incremental, len(items), shuffle_rng, shards, run_batch)
    for epoch, entry in enumerate(trace):
        entry["seg_active"] = epoch >= state.loss_cfg.seg_warmup_epochs
    return state.model, trace


# ---------------------------------------------------------------------------
# Inference and checkpoints
# ---------------------------------------------------------------------------

def predict_dataset(model, samples, registry):
    """Confusion counts of the main head's label maps against the samples'
    dense masks: counts[truth, prediction] over registry indices.

    samples is any sequence whose slices are sequences: a list, or the
    ``synthdata.ManifestSamples`` of ``load_dataset``, which reads a sample
    from disk when it is indexed.  It runs as two fixed shards, in this
    process and one forked worker; each shard takes its slice's samples one
    at a time, so with a ManifestSamples it reads only its own images, each
    once.  Each image goes through the encoder and the head, then argmax,
    the registry lookup and a nearest resize to the mask's shape, so one
    image's activations stay in cache and images of any size can mix.  Each
    shard adds its maps into its own counts
    (``evalkit.confusion_accumulate``), and only the counts come back; the
    caller adds them in shard order.
    """
    lut = np.array([registry.index_of(n) for n in model.class_names],
                   dtype=np.int32)

    def shard(rows):
        counts = np.zeros((len(registry), len(registry)), dtype=np.int64)
        for sample in samples[rows]:
            x = image_to_input(sample.image, model.dtype)[None]
            logits, _ = model.head.forward(model.encoder.infer(x))
            grid = lut[np.argmax(logits[0], axis=2)]
            pred = nearest_resize(grid, *sample.dense_mask.shape)
            evalkit.confusion_accumulate(pred, sample.dense_mask, counts)
        return counts

    with Shards(shard) as shards:
        return sum(shards([(r,) for r in shard_slices(len(samples))]))


def save_checkpoint(model, path, step, config_hash, parent_config_hash=None):
    """Write the model's parameters and metadata as one .npz file.

    parent_config_hash is the config hash of the checkpoint this one was
    trained from; it is recorded, not checked, since seed and loss
    overrides change the hash from step to step.
    """
    meta = {
        "__class_names__": np.array(model.class_names),
        "__step__": np.array(step, dtype=np.int64),
        "__config_hash__": np.array(config_hash),
        "__dtype__": np.array("float32" if model.dtype == np.float32 else "float64"),
    }
    if parent_config_hash is not None:
        meta["__parent_config_hash__"] = np.array(parent_config_hash)
    if not path.endswith(".npz"):
        path += ".npz"   # np.savez's own naming rule for a path argument
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **model.params(), **meta)


def load_checkpoint(path):
    """The model, step and config hash of a checkpoint.

    The stored parameter names must be exactly the model's; members named
    ``__*__`` are metadata, and those the model does not read are ignored.
    """
    with np.load(path, allow_pickle=False) as data:
        class_names = [str(n) for n in data["__class_names__"]]
        step = int(data["__step__"])
        config_hash = str(data["__config_hash__"])
        dtype = np.float32 if str(data["__dtype__"]) == "float32" else np.float64
        model = SegModel.init(class_names, seed=0, dtype=dtype)
        params = model.params()
        stored = {n for n in data.files if not (n.startswith("__") and n.endswith("__"))}
        missing, extra = sorted(params.keys() - stored), sorted(stored - params.keys())
        if missing or extra:
            raise ValueError(f"checkpoint parameters differ from the model's: "
                             f"missing {missing}, not in the model {extra}")
        for name, p in params.items():
            stored = data[name]
            if stored.shape != p.shape:
                raise ValueError(f"checkpoint parameter {name} has shape "
                                 f"{stored.shape}, expected {p.shape}")
            p[...] = stored.astype(dtype)
    return model, step, config_hash
