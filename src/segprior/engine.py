"""The segmentation model and the per-step training loops.

The network is one fixed definition, written as the module constants
below; no setting changes it.  Its input is the image rearranged space to
depth (``image_to_input``): each 2x2 block of RGB pixels becomes one pixel
of 12 channels, so the input, and every layer after it, has half the
image's height and width.  The encoder is four stride-1 3x3 convs of 8,
16, 16 and 32 channels; the first one's 3x3 window over 2x2 blocks covers
6x6 image pixels, which contain the 3x3 window a stride-2 conv on the
image would read (Shi et al., arXiv:1609.05158; the space-to-depth stem of
TResNet, Ridnik et al., arXiv:2003.13630).  Each conv is followed by
a leaky ReLU of slope 0.01, the last one by a ChannelNorm before it.  Two
heads share the encoder: a 1x1 segmentation head extended with new output
channels at every step, and a localizer retrained from scratch per step.
The localizer is two 3x3 convs of 16 channels, each followed by a
ChannelNorm and a leaky ReLU, then a 1x1 projection to one channel per
class; its spatial scores drive the image-level classification loss and
the pseudo-labels.  A conv followed by a ChannelNorm (``enc.3``,
``loc.0`` and ``loc.1``) has no bias: the norm subtracts each sample's
per-channel mean, which cancels a per-channel bias, so that bias would
get a gradient of zero (Ioffe & Szegedy, arXiv:1502.03167, section 3.2).
The other convs (``enc.0`` to ``enc.2``, ``head`` and ``loc.2``) have
one.  Encoder and localizer are ``layers.Chain``s, and the encoder
computes no gradient for the input images.  The previous step's
model, frozen, supplies the distillation targets, and its argmax picks
each pixel's row of the RaSP target table (``segprior.simprior``).

Channel order of every head is bkg first, then base classes, then each
increment in schedule order.  Gradient routing per batch:

* localizer   <- cls + kdl + lambda * rasp
* seg head    <- seg (after the warmup epochs)
* encoder     <- everything above plus kde
* old model   <- nothing, ever

Memory items contribute only to the classification loss, extended over the
old foreground channels (the old classes they show) with the new classes
as negatives.

Every loss and pooling formula lives in ``objectives``, which the
finite-difference tests check; this module holds none.  Base training's
dense loss and the cls, kdl, seg and rasp terms all call the one binary
cross-entropy, ``objectives.bce_loss_grad``; kde calls
``objectives.kde_loss_grad``.  ``_batch_losses`` only routes: it picks
the rows and channels each term applies to, calls the term's function
with the whole batch's normaliser, and adds the gradient into dz
(localizer logits), dp (seg logits) or the encoder features.
``base_train`` and ``incremental_step`` share one training loop,
``_fit``, the one place a batch is run, reduced and checked.  Each step
supplies a group step: forward, loss terms and backward for one group of
a batch's items, returning each term's per-item losses and the count the
batch's term is averaged over.  An incremental step with memory also
supplies a batch transform, which mixes memory rows into the batch
(``memory.mix_batch``).

``run_step`` is the one place a step is built from an experiment config.
It chooses the step's train rows, their few-shot cut and the memory bank,
builds the class similarity matrix, extends the parent's head and runs
``base_train`` or ``incremental_step``; the CLI only loads its inputs and
writes its outputs.  An incremental step's rows are labelled in one place,
``_prepare_pool``, from their present classes.

Every batch runs as two shards (``layers.Shards``): a call names the
batch's item count and ``Shards`` cuts it, runs shard 0 in the calling
process and shard 1 in one worker process that ``_fit`` forks once per
training run, after the images and targets, or the step's pool, exist,
so the worker inherits them.  Each batch sends the worker only its rows,
the epoch, the batch's item indices and the current parameters; it sends
back its per-item losses and its gradients.  Each shard runs its items as
consecutive groups of at most ``layers.GROUP_ITEMS`` items
(``layers.group_slices``), each small enough for its activations to come
from cache.  Each group runs forward, its loss terms and backward in one
pass, and its backward ends before the next group's forward begins.
Every loss term is a per-item quantity normalised by whole-batch counts
(all items, current items), so each group computes its items' terms and
output gradients with the whole batch's normalisers; the group gradients
accumulate into their shard's own zeroed dict, and the two shard dicts,
added in shard order, are the whole batch's.  ``_fit`` adds each term's
per-item losses in item order, divides by the term's count and checks
every term for finiteness before the optimizer step, so a batch that
yields a non-finite term changes no parameter.

Evaluation (``predict_dataset``) passes ``Shards`` the sample count, and
one forked worker takes the second half of the sample sequence.  The CLI
passes the split as ``synthdata.load_dataset`` returns it, a sequence that
reads a sample from disk when it is indexed, so each shard reads its own
images, one at a time, in its own process.  Each image goes through the
encoder and the seg head alone, so no batch is stacked and one image's
activations stay in cache, and each shard counts its label maps into a
confusion matrix of its own; only the two matrices are joined.  Before a
step trains, the old model runs forward over the step's images, chunk by
chunk as two shards and each shard in groups, and each group writes its
scores and features straight into the step's pool (``_prepare_pool``),
whose two arrays for them are shared mappings made before the worker is
forked (``layers.shared_array``): nothing but the call's rows crosses the
pipe.  Neither keeps backward caches (``Chain.infer``).

A checkpoint loads into a skeleton whose weights start at zero
(``SegModel.init`` with seed None), built without a generator, so
evaluation never imports numpy.random; only training draws random numbers.

Memory: the worker shares the caller's pages until one of the two writes
them, so what the two processes hold together in training is the data
both read once, plus each shard's own working set.  Each training array
is held once: base training reads its rows one at a time into one image
array and one target array, and an incremental step's pool holds each
per-row input (images, labels, the old model's scores and features and,
with RaSP, its argmax channel) in one array; no sample or memory row is
kept beside them while the step trains.  The data is kept small: images
and masks stay uint8 as the files store them, and so do the base
targets, as channel-index maps, and the old model's argmax, which indexes
the step's old x new RaSP table; a training group converts its inputs,
a base group expands its one-hot targets and an incremental group
gathers its RaSP targets when it runs.  A group's working set is kept
small too: a LeakyReLU caches the 1-byte mask x > 0, not its input; a
ChannelNorm's backward writes its input gradient into the dy it is
given (``layers``); the binary cross-entropy computes its loss in one
buffer (``objectives.bce_loss_grad``); kde gathers the old features,
subtracts the current ones and turns the difference into its gradient in
that one buffer, which is added into the features' gradient after the
localizer's backward; the seg gradient is the seg term's own gradient
array, scattered into a zeroed one only when the group holds memory
rows; and a training group releases each layer's cache once its
backward has run.  No training command maps OpenSSL's libcrypto
(``segprior.cli``), which numpy.random would otherwise pull in.
Evaluation holds no split at all, only the image each shard is scoring,
so its memory does not grow with the split's size.  Each batch frees its
activations, and ``segprior.cli`` sets glibc's trim and mmap thresholds
on import so that the freed pages stay in the heap for the next batch
instead of being faulted in again; code that imports this module without
the CLI keeps glibc's defaults.
"""

from __future__ import annotations

import copy
import functools
import itertools
import zipfile
from dataclasses import dataclass

import numpy as np

from . import evalkit, memory, objectives, protocol, simprior
from .class_semantics import load_embeddings, similarity_matrix
from .fileio import atomic_open
from .layers import (Chain, ChannelNorm, Conv2d, LeakyReLU, SGDMomentum, Shards,
                     group_slices, shared_array, zero_grads)
from .memory import mix_batch
from .objectives import LossConfig

ENCODER_CHANNELS = (8, 16, 16, 32)
INPUT_CHANNELS = 12     # image_to_input's 2x2 blocks of RGB pixels
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

    def __post_init__(self):
        for name in ("batch_size", "epochs_base", "epochs_incremental"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)!r}")
        for name in ("lr_base", "lr_incremental"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"not {getattr(self, name)!r}")


def _conv_norm(prefix, i, cin, cout, rng, dtype):
    """The 3x3 conv {prefix}.{i} and the ChannelNorm {prefix}.n{i} after it.
    The conv has no bias: the norm's mean subtraction would cancel it."""
    return [Conv2d(f"{prefix}.{i}", 3, cin, cout, rng, dtype, bias=False),
            ChannelNorm(f"{prefix}.n{i}", cout, dtype)]


def _encoder(rng, dtype):
    act = LeakyReLU(LEAKY_SLOPE)
    layers, cin = [], INPUT_CHANNELS
    for i, cout in enumerate(ENCODER_CHANNELS):
        if i == len(ENCODER_CHANNELS) - 1:
            layers += _conv_norm("enc", i, cin, cout, rng, dtype)
        else:
            layers.append(Conv2d(f"enc.{i}", 3, cin, cout, rng, dtype))
        layers.append(act)
        cin = cout
    return Chain(layers, input_grad=False)


def _localizer(n_classes, rng, dtype):
    h, act = LOCALIZER_HIDDEN, LeakyReLU(LEAKY_SLOPE)
    return Chain([
        *_conv_norm("loc", 0, ENCODER_CHANNELS[-1], h, rng, dtype), act,
        *_conv_norm("loc", 1, h, h, rng, dtype), act,
        Conv2d("loc.2", 1, h, n_classes, rng, dtype),
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
        """A model whose weights start seeded at random, or at zero when
        seed is None: the skeleton ``load_checkpoint`` fills, built
        without numpy.random."""
        enc_rng = head_rng = loc_rng = None
        if seed is not None:
            ss = np.random.SeedSequence(seed)
            enc_rng, head_rng, loc_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        head = Conv2d("head", 1, ENCODER_CHANNELS[-1], len(class_names), head_rng, dtype)
        return cls(class_names, _encoder(enc_rng, dtype), head,
                   _localizer(len(class_names), loc_rng, dtype), dtype)

    def params(self):
        out = {}
        out.update(self.encoder.params())
        out.update(self.head.params())
        out.update(self.localizer.params())
        return out

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
    names = tuple(model.class_names) + tuple(new_classes)
    d = model.head.W.shape[2]
    head = Conv2d("head", 1, d, len(names), head_rng, model.dtype)
    head.W[:, :, :, : len(model.class_names)] = model.head.W
    head.W[:, :, :, len(model.class_names):] = (
        head_rng.standard_normal((1, 1, d, len(new_classes))) * 1e-3
    ).astype(model.dtype)
    head.b = np.zeros(len(names), dtype=model.dtype)
    head.b[: len(model.class_names)] = model.head.b
    localizer = _localizer(len(names), loc_rng, model.dtype)
    return SegModel(names, copy.deepcopy(model.encoder), head, localizer, model.dtype)


# ---------------------------------------------------------------------------
# Data plumbing
# ---------------------------------------------------------------------------

def image_to_input(image, dtype):
    """The network input of uint8 images (..., H, W, 3): centred pixel
    values, rearranged space to depth into (..., ceil(H/2), ceil(W/2), 12).

    An odd H or W is padded with one zero row or column at the bottom or
    right first.  Channel (2*di + dj)*3 + c of input pixel (i, j) is
    channel c of image pixel (2i + di, 2j + dj).
    """
    x = (image.astype(dtype) / 255.0) - 0.5
    *lead, h, w, c = x.shape
    if h % 2 or w % 2:
        x = np.pad(x, [(0, 0)] * len(lead) + [(0, h % 2), (0, w % 2), (0, 0)])
    ho, wo = (h + 1) // 2, (w + 1) // 2
    x = x.reshape(*lead, ho, 2, wo, 2, c).swapaxes(-4, -3)
    return x.reshape(*lead, ho, wo, 4 * c)


def nearest_resize(src, oh, ow):
    """Nearest-neighbour resize of a 2-D integer grid to (oh, ow)."""
    h, w = src.shape
    rows = (np.arange(oh) * h) // oh
    cols = (np.arange(ow) * w) // ow
    return src[rows[:, None], cols[None, :]]


def _put_image(images, row, image, what):
    """images[row] = image, for an image of the shape of row 0's; what
    names the row in the ValueError raised otherwise."""
    if image.shape != images.shape[1:]:
        raise ValueError(f"{what} has an image of shape {image.shape}, but the "
                         f"step's first image has {images.shape[1:]}; a step's "
                         "images must share one size")
    images[row] = image


def _fit(cfg, params, lr, epochs, n_items, rng, group_step, transform=None):
    """The one training loop of both steps; returns per-epoch batch means.

    Each epoch draws a permutation of the n_items from rng and cuts it into
    batches of cfg.batch_size; transform, if given, maps each batch's int
    array of items to the one that trains.  A batch runs as one call of the
    loop's ``Shards``, whose worker, forked on the first call, serves the
    whole loop and keeps params in step with this process's.  Each shard
    runs group_step(epoch, idx, group, g) on each group of its slice of the
    batch idx (``group_slices``), one after another, with g the shard's own
    zeroed gradient dict; a group step runs its forward, loss terms and
    backward in one pass, accumulating into g, and returns, for each loss
    term, its items' losses and the count the batch's term is averaged
    over.  The two shard dicts are added in shard order; each term's losses
    are added one by one in item order (shard by shard, group by group) and
    divided by its count, so the batch's terms do not depend on the split.
    A term that is not finite raises RuntimeError naming it and the epoch
    before the SGD-with-momentum step applies the gradients.  An epoch's
    entry holds the mean of each term over its batches, added up in batch
    order.
    """
    def shard(rows, epoch, idx):
        g = zero_grads(params)
        return [group_step(epoch, idx, group, g) for group in group_slices(rows)], g

    opt = SGDMomentum(lr)
    trace = []
    with Shards(shard, sync=params) as shards:
        for epoch in range(epochs):
            order = rng.permutation(n_items)
            sums, n_batches = {}, 0
            for start in range(0, n_items, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                if transform is not None:
                    idx = transform(idx)
                grads = zero_grads(params)
                totals, counts = {}, {}
                for results, g in shards(len(idx), epoch, idx):
                    for name, value in g.items():
                        grads[name] += value
                    for terms in results:
                        for key, (losses, count) in terms.items():
                            counts[key], total = count, totals.get(key, 0.0)
                            for value in losses:
                                total += float(value)
                            totals[key] = total
                batch = {key: total / counts[key] for key, total in totals.items()}
                for key, value in batch.items():
                    if not np.isfinite(value):
                        raise RuntimeError(
                            f"non-finite {key} loss at epoch {epoch}: {batch}")
                opt.step(params, grads)
                for key, value in batch.items():
                    sums[key] = sums.get(key, 0.0) + value
                n_batches += 1
            trace.append({key: total / n_batches for key, total in sums.items()})
    return trace


# ---------------------------------------------------------------------------
# Base training (dense supervision)
# ---------------------------------------------------------------------------

def _base_arrays(samples, lut, dtype):
    """Base training's raw images (N, H, W, 3) and channel-index targets
    (N, h, w) at the network input's size, both uint8, read from samples
    one row at a time.  No sample outlives its row."""
    images = labels = None
    for row, s in enumerate(samples):
        if s.dense_mask is None:
            raise ValueError(f"base training row {row} has no dense mask")
        if images is None:
            images = np.empty((len(samples),) + s.image.shape, s.image.dtype)
            # every layer keeps the size of the network input
            ho, wo = image_to_input(s.image, dtype).shape[:2]
            labels = np.empty((len(samples), ho, wo), lut.dtype)
        _put_image(images, row, s.image, f"base training row {row}")
        labels[row] = lut[nearest_resize(s.dense_mask, ho, wo)]
    return images, labels


def base_train(model, samples, registry, cfg):
    """Train encoder + seg head with per-pixel BCE against one-hot masks.

    Classes outside the model's label space count as background, matching
    the convention that unseen content is annotated as background.
    samples is any sequence of samples with dense masks of one image size:
    a list, or the ``synthdata.ManifestSamples`` of the step's rows, whose
    rows are read here one at a time, each once, into the two arrays that
    training reads (``_base_arrays``).  A sample without a dense mask, or
    an image of another size than the first's, raises ValueError naming
    its row.
    """
    if not samples:
        raise ValueError("base training needs a non-empty dataset")
    dtype = model.dtype
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng = np.random.default_rng(ss.spawn(1)[0])
    n_classes = model.n_classes()
    lut = np.zeros(len(registry), dtype=np.uint8)
    for ch, name in enumerate(model.class_names):
        lut[registry.index_of(name)] = ch
    # raw images and channel-index maps: a group's inputs are converted and
    # its one-hot targets expanded when it runs
    images, labels = _base_arrays(samples, lut, dtype)
    eye = np.eye(n_classes, dtype=dtype)
    # the localizer plays no part here, and extend_head replaces it
    params = {**model.encoder.params(), **model.head.params()}
    trace = _fit(cfg, params, cfg.lr_base, cfg.epochs_base, len(images), shuffle_rng,
                 functools.partial(_base_group, model, images, labels, eye))
    return model, [entry["base"] for entry in trace]


def _base_group(model, images, labels, eye, epoch, idx, group, g):
    """The group step (``_fit``) of base training: forward, the dense BCE
    of the group's rows against their one-hot targets, eye[labels], with
    the whole batch's element count, and backward.  Every epoch is alike."""
    rows = idx[group]
    t = eye[labels[rows]]
    feat, enc_cache = model.encoder.forward(image_to_input(images[rows], model.dtype))
    logits, head_cache = model.head.forward(feat)
    losses, dlogits = objectives.bce_loss_grad(logits, t, len(idx) * t[0].size)
    dfeat = model.head.backward(dlogits, head_cache, g)
    model.encoder.backward(dfeat, enc_cache, g)
    return {"base": (losses, len(idx))}


# ---------------------------------------------------------------------------
# Incremental step
# ---------------------------------------------------------------------------

@dataclass
class StepState:
    """One incremental step: the parent model, the model it trains, the settings.

    old_model is the previous step's model, frozen; ``extend_head`` built
    ``model`` from a deep copy of its encoder, so training leaves it
    unchanged.
    """

    step: int
    old_model: SegModel
    model: SegModel
    loss_cfg: LossConfig
    engine_cfg: EngineConfig

    @property
    def n_old(self):
        """The previous label-space size, bkg included."""
        return len(self.old_model.class_names)


@dataclass
class _Pool:
    """The rows one incremental step draws its batches from: the step's
    images first, then the memory bank's, in bank order.  A batch is an int
    array of pool rows; a row below n_current is a current image, any other
    a memory image."""

    images: np.ndarray          # (N, H, W, 3) uint8 raw images
    labels: np.ndarray          # (N, n_fg) float64 image labels over the foreground
    # the old model's outputs live in shared mappings (layers.shared_array)
    y_old: np.ndarray           # (n_current, h, w, n_old) old-model sigmoid scores
    feat_old: np.ndarray        # (n_current, h, w, D) old-model features
    # RaSP, or both None when lambda_rasp is 0: a pixel's targets are
    # rasp_table[winner[row, i, j]], gathered when a group runs
    rasp_table: np.ndarray | None   # (n_old, n_new) T[o, k] (simprior)
    winner: np.ndarray | None       # (n_current, h, w) old-model argmax channel,
                                    # uint8 up to 256 old channels
    n_current: int


def _prepare_pool(state, samples, bank, registry, sim_matrix):
    """The step's ``_Pool``: images, labels, old-model outputs, RaSP table.

    samples are the step's rows and bank its memory, empty without memory,
    both sequences of ``protocol.Sample``: lists, or the
    ``synthdata.ManifestSamples`` of the chosen rows or of an external
    memory manifest, which read a row when it is indexed.  Each row is read
    once, the step's in order and then the bank's, into the pool, so the
    caller holds none of them.  This is the one place a row is labelled,
    from its ``present`` set: a step row on the new classes it shows, a
    memory row on the old foreground classes it shows; and the one place
    its size is checked.  A step row that shows no new class, or a step
    image or a memory image of another size than the first step image's,
    raises ValueError naming its row.  The old model runs forward over the
    current images in chunks of cfg.batch_size, each chunk as two shards,
    in this process and one forked worker, and each shard in groups of at
    most ``GROUP_ITEMS`` images with no backward caches kept, so one small
    group's activations are alive at a time.  Each group writes its scores
    and features into y_old and feat_old, allocated by
    ``layers.shared_array`` before the worker is forked, so shard 1's rows
    reach this process without a copy.  With RaSP on, each group also
    writes the old model's argmax channel into winner, a third shared
    mapping (uint8 up to 256 old channels), and the RaSP target table is
    built once.  The pool keeps the table and winner, not the per-pixel
    targets table[winner] of n_new values a pixel: a training group
    gathers its rows' targets when it runs.  There are neither when
    lambda_rasp is 0.
    """
    if not samples:
        raise ValueError("incremental step received no samples")
    cfg = state.engine_cfg
    old = state.old_model
    dtype = state.model.dtype
    n_cur, n_old = len(samples), state.n_old
    fg = [registry.index_of(name) for name in state.model.class_names[1:]]
    images, labels = None, np.zeros((n_cur + len(bank), len(fg)), dtype=np.float64)
    for row, s in enumerate(itertools.chain(samples, bank)):
        if images is None:
            images = np.empty((len(labels),) + s.image.shape, s.image.dtype)
        current = row < n_cur
        _put_image(images, row, s.image,
                   f"step row {row}" if current else f"memory entry {row - n_cur}")
        shown = slice(n_old - 1, None) if current else slice(0, n_old - 1)
        labels[row, shown] = [k in s.present for k in fg[shown]]
        if current and not labels[row].any():
            raise ValueError(f"step row {row} shows none of the step's classes")
    # every layer keeps the size of the network input
    ho, wo = image_to_input(images[0], dtype).shape[:2]
    y_old = shared_array((n_cur, ho, wo, state.n_old), dtype)
    feat_old = shared_array((n_cur, ho, wo, ENCODER_CHANNELS[-1]), dtype)
    rasp_on = state.loss_cfg.lambda_rasp != 0
    winner = (shared_array((n_cur, ho, wo), np.min_scalar_type(n_old - 1))
              if rasp_on else None)

    def old_forward(rows, start):
        for group in group_slices(slice(start + rows.start, start + rows.stop)):
            feat = old.encoder.infer(image_to_input(images[group], dtype))
            logits, _ = old.head.forward(feat)
            y_old[group], feat_old[group] = objectives.sigmoid(logits), feat
            if rasp_on:
                winner[group] = np.argmax(y_old[group], axis=3)

    with Shards(old_forward) as shards:
        for start in range(0, n_cur, cfg.batch_size):
            shards(min(cfg.batch_size, n_cur - start), start)
    if not np.all(np.isfinite(y_old)):
        raise ValueError("old-model scores contain non-finite values")
    table = None
    if rasp_on:
        table = simprior.rasp_target_table(sim_matrix, registry, old.class_names,
                                           state.model.class_names[state.n_old:],
                                           state.loss_cfg.tau, dtype)
    return _Pool(images, labels, y_old, feat_old, table, winner, n_cur)


def _incremental_group(state, pool, epoch, idx, group, g):
    """The group step (``_fit``) of an incremental step on the ``_Pool``
    pool: forward, the group's own rows' loss terms and backward, one after
    another.

    idx is the batch's pool rows, in batch order.  The loss terms share the
    whole batch's normalisers, so the summed group gradients are the whole
    batch's; cls is averaged over the batch's rows, every other term over
    its current rows (at least one).  The seg head runs only once the
    warm-up epochs are over.
    """
    model = state.model
    rows = idx[group]
    n_cur = int(np.count_nonzero(idx < pool.n_current))
    seg_active = state.loss_cfg.seg_active(epoch)
    feat, enc_cache = model.encoder.forward(image_to_input(pool.images[rows], model.dtype))
    z, loc_cache = model.localizer.forward(feat)
    p_hat, head_cache = model.head.forward(feat) if seg_active else (None, None)
    losses, dz, dp, dkde = _batch_losses(state, pool, rows, feat, z, p_hat,
                                         len(idx), n_cur)
    del feat, z
    dfeat = model.localizer.backward(dz, loc_cache, g)
    if dkde is not None:
        dfeat[rows < pool.n_current] += dkde
    if seg_active:
        dfeat += model.head.backward(dp, head_cache, g)
    # the heads are done: their outputs and caches go before the encoder's
    # backward runs
    del p_hat, dz, dp, dkde, loc_cache, head_cache
    model.encoder.backward(dfeat, enc_cache, g)
    return {key: (values, len(idx) if key == "cls" else max(n_cur, 1))
            for key, values in losses.items()}


def _batch_losses(state, pool, rows, feat, z, p_hat, n_all, n_cur):
    """Route one group's outputs through the objective; no formula lives here.

    rows are the group's own pool rows; n_all and n_cur count the whole
    batch's rows and current (non-memory) rows.  Each term comes from its
    objectives function, called on the rows it applies to and normalised
    by the whole batch's count, so the groups' gradients add up to the
    whole batch's:

    * cls, every row: the pooled scores of ``image_scores_vjp``, in
      float64, against the row's labels by ``bce_loss_grad``, one row at
      a time, over the new channels (current rows) or all foreground
      channels (memory rows), back through the VJP;
    * kdl and seg, current rows, by ``bce_loss_grad``: the old channels of
      z against the old model's scores, and the seg logits against
      ``pseudo_supervision`` of the localizer softmax;
    * kde, current rows, by ``kde_loss_grad``: the features against the
      old features, in one buffer: the old features are gathered into it,
      the features subtracted into it, and ``kde_loss_grad`` turns the
      difference into its gradient in place;
    * rasp, current rows, when lambda_rasp is non-zero: ``bce_loss_grad``
      one row at a time, on the channels of the new classes its labels
      show, in channel order, against the row's RaSP targets, gathered
      from the pool's table at the old model's argmax.

    p_hat is None in the warm-up epochs, where dp is None too; otherwise
    dp is the seg term's gradient itself when every row is current, and
    that gradient scattered into zeros at the current rows when the group
    holds memory rows.  Returns
    (losses, dz, dp, dkde): losses maps each term to its per-item values in
    item order, and dkde, kde's buffer, is the kde gradient on the
    features of the group's current rows, in row order, or None if it has
    none.
    """
    lcfg = state.loss_cfg
    n_old = state.n_old
    cur = np.flatnonzero(rows < pool.n_current)
    losses = {key: [] for key in objectives.LOSS_COMPONENTS}

    scores, m, scores_vjp = objectives.image_scores_vjp(z)
    upstream = np.zeros_like(scores)
    for i, row in enumerate(rows):
        # the foreground channels a row is scored on: the new ones for a
        # current row, all of them for a memory row
        first = n_old if row < pool.n_current else 1
        scores_i = scores[i:i + 1, first:].astype(np.float64)
        loss, upstream[i:i + 1, first:] = objectives.bce_loss_grad(
            scores_i, pool.labels[row:row + 1, first - 1:], scores_i.size)
        losses["cls"].extend(loss)
    dz = scores_vjp(upstream) / n_all
    if not len(cur):
        return losses, dz, None if p_hat is None else np.zeros_like(p_hat), None

    n_pix = z.shape[1] * z.shape[2]
    y_old, dkde = pool.y_old[rows[cur]], pool.feat_old[rows[cur]]
    losses["kdl"], grad = objectives.bce_loss_grad(
        z[cur, :, :, :n_old], y_old, n_pix * n_old * n_cur)
    dz[cur, :, :, :n_old] += grad
    np.subtract(feat[cur], dkde, out=dkde)
    losses["kde"], dkde = objectives.kde_loss_grad(dkde, n_pix * n_cur)
    if lcfg.lambda_rasp != 0:
        for i in cur:
            shown = np.flatnonzero(pool.labels[rows[i], n_old - 1:])
            zi = z[i:i + 1][..., n_old + shown]
            target = pool.rasp_table[:, shown][pool.winner[rows[i:i + 1]]]
            loss, grad = objectives.bce_loss_grad(zi, target, zi.size)
            losses["rasp"].extend(loss)
            dz[i:i + 1][..., n_old + shown] += (lcfg.lambda_rasp / n_cur) * grad
    dp = None
    if p_hat is not None:
        q_tilde = objectives.pseudo_supervision(m[cur], y_old)
        losses["seg"], dp = objectives.bce_loss_grad(
            p_hat[cur], q_tilde, n_pix * p_hat.shape[3] * n_cur)
        if len(cur) < len(rows):
            # the memory rows' seg logits get no gradient
            dp, grad = np.zeros_like(p_hat), dp
            dp[cur] = grad
    return losses, dz, dp, dkde


def incremental_step(state, pool):
    """Run one weakly supervised step on the ``_Pool`` pool, which
    ``_prepare_pool`` built and which holds every array the step reads;
    returns the model and per-epoch trace."""
    if state.step < 1:
        raise ValueError("incremental steps start at 1")
    cfg = state.engine_cfg
    memory_rows = range(pool.n_current, len(pool.images))
    ss = np.random.SeedSequence((cfg.seed, state.step))
    shuffle_seed, memory_seed = ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    memory_rng = np.random.default_rng(memory_seed)
    # memory rows take the tail of every batch
    transform = None
    if memory_rows:
        def transform(idx):
            return np.asarray(mix_batch(idx, memory_rows, memory_rng), dtype=np.int64)

    trace = _fit(cfg, state.model.params(), cfg.lr_incremental, cfg.epochs_incremental,
                 pool.n_current, shuffle_rng,
                 functools.partial(_incremental_group, state, pool), transform)
    for epoch, entry in enumerate(trace):
        entry["total"] = objectives.total_loss(entry, state.loss_cfg, epoch)
        entry["seg_active"] = state.loss_cfg.seg_active(epoch)
    return state.model, trace


# ---------------------------------------------------------------------------
# One step of an experiment
# ---------------------------------------------------------------------------

def _step_rows(present, schedule, step, seed):
    """Positions of the train samples a step trains on, given each row's
    present classes: the step's filtered rows, cut to schedule.shots images
    per class in few-shot incremental steps."""
    rows = protocol.step_rows(present, schedule, step)
    if step >= 1 and schedule.shots is not None:
        picks = protocol.few_shot_rows([present[k] for k in rows], schedule, step,
                                       schedule.shots, seed)
        rows = [rows[p] for p in picks]
    return rows


def run_step(cfg, files, parent, step):
    """Train step of the experiment cfg (a ``config.ExperimentConfig``).

    Returns the trained model, its per-epoch trace and the number of train
    samples it trained on.  Step 0 takes no parent and runs ``base_train``
    on a fresh float32 model; a step s >= 1 takes the step s - 1 model as
    parent and runs ``incremental_step`` on its ``extend_head`` extension.
    files is the train split as ``synthdata.load_dataset`` returns it: the
    manifest's present lists choose the step's rows, its few-shot cut and
    the episodic memory's draws (``memory.populate_episodic``, which reads
    nothing), and only the step's images and then the memory's draws are
    read.  The episodic memory draws from the past steps' rows, each row
    once however many past steps it was shown in; external memory reads
    only its manifest (``memory.ingest_external``).  Each image is held
    once while the step trains: step 0 hands ``base_train`` the unread
    rows, which it reads into its two arrays, and a step s >= 1 hands
    ``_prepare_pool`` the unread rows and memory bank, which it reads,
    checks and labels into the step's ``_Pool``, and ``incremental_step``
    trains on the pool alone.
    A step outside the schedule, a parent whose class list is not the
    schedule's at s - 1, or a step with no samples raises ValueError.
    """
    registry = cfg.class_registry()
    schedule = cfg.task_schedule()
    seed = cfg.engine.seed
    if not 0 <= step < schedule.n_steps:
        raise ValueError(f"step {step} is not in [0, {schedule.n_steps - 1}]")
    if (parent is None) != (step == 0):
        raise ValueError(f"step {step}: step 0 trains from no parent, "
                         "and step s >= 1 from the step s - 1 model")
    if step and parent.class_names != schedule.channel_names(step - 1):
        raise ValueError(f"the parent's class list {list(parent.class_names)} does not "
                         f"match the schedule's at step {step - 1}")
    rows = _step_rows(files.present, schedule, step, seed)
    if not rows:
        raise ValueError(f"no train samples remain for step {step}")
    if step == 0:
        model = SegModel.init(schedule.channel_names(0), seed=seed)
        model, trace = base_train(model, files[rows], registry, cfg.engine)
        return model, trace, len(rows)
    samples = files[rows]
    old_classes = schedule.old_classes(step)
    if cfg.memory.mode == "external":
        bank = memory.ingest_external(cfg.resolve(cfg.memory.manifest), old_classes,
                                      registry)
    elif cfg.memory.mode == "episodic":
        past = list(dict.fromkeys(k for past_step in range(step)
                                  for k in _step_rows(files.present, schedule,
                                                      past_step, seed)))
        draws = memory.populate_episodic([files.present[k] for k in past], old_classes,
                                         registry, memory.CAPACITY, seed)
        bank = files[[past[k] for k in draws]]
    else:
        bank = []
    sim = similarity_matrix(registry, load_embeddings(cfg.resolve(cfg.embeddings_path)))
    model = extend_head(parent, schedule.classes_at_step(step),
                        seed=np.random.SeedSequence((seed, step, 7)).generate_state(1)[0])
    state = StepState(step=step, old_model=parent, model=model, loss_cfg=cfg.loss,
                      engine_cfg=cfg.engine)
    pool = _prepare_pool(state, samples, bank, registry, sim)
    model, trace = incremental_step(state, pool)
    return model, trace, pool.n_current


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
        return sum(shards(len(samples)))


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

    The model is the zero skeleton of ``SegModel.init(..., seed=None)``,
    built without numpy.random, with every parameter then filled from the
    file.  The stored parameter names must be exactly the model's and each
    must have its parameter's shape, so no zero weight is left; members
    named ``__*__`` are metadata, and those the model does not read are
    ignored.  A file that is not an archive ``np.load`` can read (a
    truncated archive, text, an empty file, a single .npy array), a
    missing metadata member, a ``__class_names__`` that is not a 1-d array
    of strings, a ``__step__`` that is not one integer, a ``__dtype__``
    other than float32 or float64, a member ``np.load`` cannot read (such
    as an object array, which needs pickle) or parameters that are not the
    model's by name or shape raise ValueError naming the file, and the
    member that cannot be read.  So a checkpoint with a bias on a conv
    that feeds a ChannelNorm (``enc.3.b``, ``loc.0.b``, ``loc.1.b``) is
    rejected: the model has none.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint {path} cannot be read: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):      # a single .npy array
        raise ValueError(f"checkpoint {path} is not an .npz archive")

    def member(name):
        try:
            return data[name]
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"checkpoint {path}: member {name} cannot be read: "
                             f"{exc}") from None

    with data:
        for key in ("__class_names__", "__step__", "__config_hash__", "__dtype__"):
            if key not in data.files:
                raise ValueError(f"checkpoint {path} has no {key} member")
        names, step = member("__class_names__"), member("__step__")
        if names.ndim != 1 or names.dtype.kind != "U":
            raise ValueError(f"checkpoint {path}: __class_names__ must be a 1-d array "
                             f"of strings, not {names.dtype} of shape {names.shape}")
        if step.ndim != 0 or step.dtype.kind not in "iu":
            raise ValueError(f"checkpoint {path}: __step__ must be one integer, "
                             f"not {step.dtype} of shape {step.shape}")
        class_names, step = [str(n) for n in names], int(step)
        config_hash = str(member("__config_hash__"))
        dtype_name = str(member("__dtype__"))
        if dtype_name not in ("float32", "float64"):
            raise ValueError(f"checkpoint {path} has __dtype__ {dtype_name!r}, "
                             "not float32 or float64")
        dtype = np.dtype(dtype_name).type
        model = SegModel.init(class_names, seed=None, dtype=dtype)
        params = model.params()
        stored = {n for n in data.files if not (n.startswith("__") and n.endswith("__"))}
        missing, extra = sorted(params.keys() - stored), sorted(stored - params.keys())
        if missing or extra:
            raise ValueError(f"checkpoint {path}: its parameters differ from the model's: "
                             f"missing {missing}, not in the model {extra}")
        for name, p in params.items():
            stored = member(name)
            if stored.shape != p.shape:
                raise ValueError(f"checkpoint {path}: parameter {name} has shape "
                                 f"{stored.shape}, expected {p.shape}")
            p[...] = stored.astype(dtype)
    return model, step, config_hash
