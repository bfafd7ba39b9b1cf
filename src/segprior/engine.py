"""The segmentation model and the per-step training loops.

The model is a small convolutional encoder shared by two heads: a 1x1
segmentation head extended with new output channels at every step, and a
localizer retrained from scratch per step whose spatial scores drive the
image-level classification loss and the pseudo-labels.  A frozen snapshot
of the previous step's encoder+head supplies distillation targets and the
label maps behind the similarity priors.

Channel order of every head is bkg first, then base classes, then each
increment in schedule order.  Gradient routing per batch:

* localizer   <- cls + kdl + lambda * rasp
* seg head    <- seg (after the warmup epochs)
* encoder     <- everything above plus kde (seg contribution optional via
  ``seg_updates_encoder``)
* snapshot    <- nothing, ever

Memory items contribute only to the classification loss, extended over the
old foreground channels (their stored labels) with the new classes as
negatives.

Every training batch is one ``layers.on_shards`` call over its two shards.
Each shard runs forward, its own items' loss terms and backward in one pass
on its own thread.  Every loss term is a per-item quantity normalised by
whole-batch counts (all items, current items), so each shard computes its
items' terms and output gradients with the whole batch's normalisers and
the shard gradients, summed in shard order, are the whole batch's.  The
caller adds the per-item losses in item order and checks them for
finiteness.  Inference shards the forward pass only and joins the outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import objectives, simprior
from .fileio import atomic_open
from .layers import (ChannelNorm, Conv2d, LeakyReLU, SGDMomentum, on_shards,
                     shard_slices, zero_grads)
from .memory import MemoryEntry, mix_batch
from .objectives import LossConfig


@dataclass
class Arch:
    encoder_channels: tuple = (8, 16, 16, 32)
    encoder_strides: tuple = (2, 1, 1, 1)
    encoder_norm: str = "final"   # "none" | "all" | "final"
    localizer_hidden: int = 16
    leaky_slope: float = 0.01

    def __post_init__(self):
        if len(self.encoder_channels) != len(self.encoder_strides):
            raise ValueError("encoder channels and strides must pair up")
        if any(s not in (1, 2) for s in self.encoder_strides):
            raise ValueError("encoder strides must be 1 or 2")
        if self.encoder_norm not in ("none", "all", "final"):
            raise ValueError("encoder_norm must be 'none', 'all' or 'final'")
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ValueError("leaky_slope must lie in [0, 1)")

    def to_dict(self):
        d = asdict(self)
        d["encoder_channels"] = list(self.encoder_channels)
        d["encoder_strides"] = list(self.encoder_strides)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["encoder_channels"] = tuple(d["encoder_channels"])
        d["encoder_strides"] = tuple(d["encoder_strides"])
        return cls(**d)


@dataclass
class EngineConfig:
    arch: Arch = field(default_factory=Arch)
    lr_base: float = 0.03
    lr_incremental: float = 0.005
    momentum: float = 0.9
    epochs_base: int = 40
    epochs_incremental: int = 40
    batch_size: int = 24
    seed: int = 0
    dtype: str = "float32"
    seg_updates_encoder: bool = True

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', not {self.dtype!r}")

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self):
        d = asdict(self)
        d["arch"] = self.arch.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["arch"] = Arch.from_dict(d.get("arch", Arch().to_dict()))
        return cls(**d)


class Encoder:
    def __init__(self, arch, in_channels, rng, dtype):
        self.convs = []
        self.norms = []
        cin = in_channels
        last = len(arch.encoder_channels) - 1
        for i, (cout, stride) in enumerate(
            zip(arch.encoder_channels, arch.encoder_strides)
        ):
            self.convs.append(Conv2d(f"enc.{i}", 3, cin, cout, stride, rng, dtype))
            use_norm = arch.encoder_norm == "all" or (
                arch.encoder_norm == "final" and i == last
            )
            self.norms.append(ChannelNorm(f"enc.n{i}", cout, dtype) if use_norm else None)
            cin = cout
        self.act = LeakyReLU(arch.leaky_slope)
        self.out_channels = cin

    def params(self):
        out = {}
        for conv, norm in zip(self.convs, self.norms):
            out.update(conv.params())
            if norm is not None:
                out.update(norm.params())
        return out

    def forward(self, x):
        caches = []
        for conv, norm in zip(self.convs, self.norms):
            x, c = conv.forward(x)
            nc = None
            if norm is not None:
                x, nc = norm.forward(x)
            x, gain = self.act.forward(x)
            caches.append((c, nc, gain))
        return x, caches

    def backward(self, dy, caches, grads):
        """Accumulate parameter gradients; the input images get no gradient."""
        for i in reversed(range(len(self.convs))):
            c, nc, gain = caches[i]
            dy = self.act.backward(dy, gain)
            if self.norms[i] is not None:
                dy = self.norms[i].backward(dy, nc, grads)
            dy = self.convs[i].backward(dy, c, grads, input_grad=i > 0)


class Localizer:
    """Three conv layers interleaved with normalization and leaky ReLU."""

    def __init__(self, arch, in_channels, n_classes, rng, dtype):
        h = arch.localizer_hidden
        self.conv0 = Conv2d("loc.0", 3, in_channels, h, 1, rng, dtype)
        self.norm0 = ChannelNorm("loc.n0", h, dtype)
        self.conv1 = Conv2d("loc.1", 3, h, h, 1, rng, dtype)
        self.norm1 = ChannelNorm("loc.n1", h, dtype)
        self.proj = Conv2d("loc.2", 1, h, n_classes, 1, rng, dtype)
        self.act = LeakyReLU(arch.leaky_slope)
        self.n_classes = n_classes

    def params(self):
        out = {}
        for part in (self.conv0, self.norm0, self.conv1, self.norm1, self.proj):
            out.update(part.params())
        return out

    def forward(self, feat):
        x, c0 = self.conv0.forward(feat)
        x, n0 = self.norm0.forward(x)
        x, p0 = self.act.forward(x)
        x, c1 = self.conv1.forward(x)
        x, n1 = self.norm1.forward(x)
        x, p1 = self.act.forward(x)
        z, cp = self.proj.forward(x)
        return z, (c0, n0, p0, c1, n1, p1, cp)

    def backward(self, dz, cache, grads):
        c0, n0, p0, c1, n1, p1, cp = cache
        dx = self.proj.backward(dz, cp, grads)
        dx = self.act.backward(dx, p1)
        dx = self.norm1.backward(dx, n1, grads)
        dx = self.conv1.backward(dx, c1, grads)
        dx = self.act.backward(dx, p0)
        dx = self.norm0.backward(dx, n0, grads)
        dx = self.conv0.backward(dx, c0, grads)
        return dx


class SegModel:
    """Encoder + incrementally extended seg head + per-step localizer."""

    def __init__(self, arch, class_names, encoder, head, localizer, dtype):
        if head.W.shape[3] != len(class_names):
            raise ValueError("seg head channel count must match the class list")
        if localizer.n_classes != len(class_names):
            raise ValueError("localizer channel count must match the class list")
        self.arch = arch
        self.class_names = tuple(class_names)
        self.encoder = encoder
        self.head = head
        self.localizer = localizer
        self.dtype = dtype

    @classmethod
    def init(cls, arch, class_names, seed, dtype=np.float32, in_channels=3):
        ss = np.random.SeedSequence(seed)
        enc_rng, head_rng, loc_rng = (
            np.random.default_rng(s) for s in ss.spawn(3)
        )
        encoder = Encoder(arch, in_channels, enc_rng, dtype)
        head = Conv2d("head", 1, encoder.out_channels, len(class_names), 1,
                      head_rng, dtype)
        localizer = Localizer(arch, encoder.out_channels, len(class_names),
                              loc_rng, dtype)
        return cls(arch, class_names, encoder, head, localizer, dtype)

    def params(self):
        out = {}
        out.update(self.encoder.params())
        out.update(self.head.params())
        out.update(self.localizer.params())
        return out

    def copy(self):
        import copy as _copy

        return _copy.deepcopy(self)

    def n_classes(self):
        return len(self.class_names)


class Snapshot:
    """Frozen copy of a step's encoder + seg head, inference only."""

    def __init__(self, model):
        import copy as _copy

        self.arch = model.arch
        self.class_names = model.class_names
        self.encoder = _copy.deepcopy(model.encoder)
        self.head = _copy.deepcopy(model.head)
        self.dtype = model.dtype

    def predict(self, x):
        """Sigmoid scores and encoder features for a batch, no caches kept."""
        def shard(xs):
            feat, _ = self.encoder.forward(xs)
            logits, _ = self.head.forward(feat)
            return objectives.sigmoid(logits), feat

        _, outs = _forward_shards(shard, x)
        return _join(outs, 0), _join(outs, 1)

    def params(self):
        out = {}
        out.update(self.encoder.params())
        out.update(self.head.params())
        return out


def snapshot(model):
    """Deep, immutable copy of the current encoder and segmentation head."""
    return Snapshot(model)


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
    localizer = Localizer(model.arch, model.encoder.out_channels, len(names),
                          loc_rng, model.dtype)
    return SegModel(model.arch, names, out.encoder, head, localizer, model.dtype)


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


def feature_hw(arch, h, w):
    for s in arch.encoder_strides:
        if s == 2:
            h = (h + 2 - 3) // 2 + 1
            w = (w + 2 - 3) // 2 + 1
    return h, w


def _batches(n, batch_size, order):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _forward_shards(forward, x):
    """The shards' row slices of batch x, and forward(x[rows]) of each."""
    rows = shard_slices(len(x))
    return rows, on_shards(forward, [(x[r],) for r in rows])


def _join(shard_outs, i):
    """Output i of every shard, joined along the batch axis."""
    if len(shard_outs) == 1:
        return shard_outs[0][i]
    return np.concatenate([out[i] for out in shard_outs])


def _train_shards(step, n, grads):
    """Run step(rows, g) on each shard of a batch of n; results in shard order.

    A step runs forward, its shard's loss terms and backward in one pass.
    Shard 0 accumulates into grads and shard 1 into a zeroed dict of its
    own, which is added to grads afterwards.
    """
    rows = shard_slices(n)
    dicts = [grads] + [zero_grads(grads) for _ in rows[1:]]
    outs = on_shards(step, list(zip(rows, dicts)))
    for g in dicts[1:]:
        for name, value in g.items():
            grads[name] += value
    return outs


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
    ho, wo = feature_hw(model.arch, h, w)
    n_classes = model.n_classes()
    lut = np.zeros(len(registry), dtype=np.int64)
    for ch, name in enumerate(model.class_names):
        lut[registry.index_of(name)] = ch
    xs = np.stack([image_to_input(s.image, dtype) for s in samples])
    targets = np.zeros((len(samples), ho, wo, n_classes), dtype=dtype)
    eye = np.eye(n_classes, dtype=dtype)
    for i, s in enumerate(samples):
        small = nearest_resize(s.dense_mask, ho, wo)
        targets[i] = eye[lut[small]]
    opt = SGDMomentum(cfg.lr_base, cfg.momentum)
    # the localizer plays no part here, and extend_head replaces it
    params = {**model.encoder.params(), **model.head.params()}

    trace = []
    for _epoch in range(cfg.epochs_base):
        order = shuffle_rng.permutation(len(samples))
        total, n_batches = 0.0, 0
        for idx in _batches(len(samples), cfg.batch_size, order):
            x = xs[idx]
            t = targets[idx]
            size = t.size

            def step(rows, g):
                feat, enc_cache = model.encoder.forward(x[rows])
                logits, head_cache = model.head.forward(feat)
                loss_sum, dlogits = objectives.bce_sum_grad(logits, t[rows], size)
                dfeat = model.head.backward(dlogits, head_cache, g)
                model.encoder.backward(dfeat, enc_cache, g)
                return float(loss_sum)

            grads = zero_grads(params)
            loss = sum(_train_shards(step, len(idx), grads)) / size
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite base loss at epoch {_epoch}")
            opt.step(params, grads)
            total += loss
            n_batches += 1
        trace.append(total / n_batches)
    return model, trace


# ---------------------------------------------------------------------------
# Incremental step
# ---------------------------------------------------------------------------

@dataclass
class StepState:
    step: int
    snapshot: Snapshot
    model: SegModel
    loss_cfg: LossConfig
    engine_cfg: EngineConfig
    n_old: int                   # previous label-space size, bkg included
    rasp_mode: str = "auto"      # "auto" | "on" | "off"
    memory_ratio: float = 0.25
    epoch: int = 0

    def seg_active(self):
        return self.epoch >= self.loss_cfg.seg_warmup_epochs

    def rasp_active(self):
        if self.rasp_mode == "on":
            return True
        if self.rasp_mode == "off":
            return False
        return self.loss_cfg.lambda_rasp != 0.0


@dataclass
class _Item:
    x: np.ndarray
    y_old: np.ndarray = None        # (h, w, n_old) old-model sigmoid scores
    feat_old: np.ndarray = None     # (h, w, D) old-model features
    sig_smap: np.ndarray = None     # (h, w, K) sigmoid similarity targets
    present: np.ndarray = None      # channel indices of present new classes
    labels_new: np.ndarray = None   # binary over new channels
    labels_fg: np.ndarray = None    # binary over all foreground channels (memory)
    is_memory: bool = False


def _prepare_items(state, samples, registry, sim_matrix):
    """Per-image caches: old-model outputs, label maps, similarity targets."""
    cfg = state.engine_cfg
    dtype = state.model.dtype
    n_old = state.n_old
    old_names = state.snapshot.class_names
    new_names = state.model.class_names[n_old:]
    new_pos = {name: k for k, name in enumerate(new_names)}
    items = []
    rasp_on = state.rasp_active()
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start:start + cfg.batch_size]
        x = np.stack([image_to_input(s.image, dtype) for s in chunk])
        y_old, feat_old = state.snapshot.predict(x)
        for j, sample in enumerate(chunk):
            if not sample.weak_labels:
                raise ValueError("incremental samples need non-empty weak labels")
            item = _Item(x=x[j], y_old=y_old[j], feat_old=feat_old[j])
            labels = np.zeros(len(new_names), dtype=np.float64)
            for name in sample.weak_labels:
                labels[new_pos[name]] = 1.0
            item.labels_new = labels
            # alphabetical, matching the class order of the similarity stack
            item.present = np.array(
                [n_old + new_pos[name] for name in sorted(sample.weak_labels)],
                dtype=np.int64,
            )
            if rasp_on:
                lmap = simprior.argmax_label_map(y_old[j], old_names, registry)
                stack = simprior.similarity_maps(
                    lmap, sample.weak_labels, sim_matrix, state.loss_cfg.tau
                )
                item.sig_smap = objectives.sigmoid(stack.values).astype(dtype)
            items.append(item)
    return items


def _prepare_memory(state, bank):
    if bank is None or len(bank) == 0:
        return {}
    dtype = state.model.dtype
    fg_names = state.model.class_names[1:]
    pos = {name: k for k, name in enumerate(fg_names)}
    prepared = {}
    for entry in bank.entries:
        labels = np.zeros(len(fg_names), dtype=np.float64)
        for name in entry.labels:
            labels[pos[name]] = 1.0
        prepared[id(entry)] = _Item(
            x=image_to_input(entry.image, dtype), labels_fg=labels, is_memory=True
        )
    return prepared


def incremental_batch(state, batch_items, grads):
    """Losses and parameter gradients for one mixed batch.

    Each shard runs forward, its own items' loss terms and backward on its
    thread; the loss terms share the whole batch's normalisers, so the
    summed shard gradients are the whole batch's.  The seg head runs only
    once the warm-up epochs are over.  Exposed separately so tests can
    probe the gradient routing directly.
    """
    model = state.model
    seg_active = state.seg_active()
    rasp_on = state.rasp_active()
    n_all = len(batch_items)
    n_cur = sum(not it.is_memory for it in batch_items)

    def step(rows, g):
        items = batch_items[rows]
        feat, enc_cache = model.encoder.forward(np.stack([it.x for it in items]))
        z, loc_cache = model.localizer.forward(feat)
        p_hat, head_cache = model.head.forward(feat) if seg_active else (None, None)
        losses, dz, dp, dfeat = _batch_losses(state, items, feat, z, p_hat,
                                              n_all, n_cur)
        dfeat += model.localizer.backward(dz, loc_cache, g)
        if seg_active:
            dfeat_head = model.head.backward(dp, head_cache, g)
            if state.engine_cfg.seg_updates_encoder:
                dfeat += dfeat_head
        model.encoder.backward(dfeat, enc_cache, g)
        return losses

    # per-item losses in item order (shard 0's items come first), added
    # one by one as a whole-batch loop would, so the trace does not depend
    # on the split
    sums = dict.fromkeys(objectives.LOSS_COMPONENTS, 0.0)
    for losses in _train_shards(step, n_all, grads):
        for key, values in losses.items():
            for value in values:
                sums[key] += value
    comps = {
        "cls": sums["cls"] / n_all,
        "kdl": sums["kdl"] / n_cur if n_cur else 0.0,
        "kde": sums["kde"] / n_cur if n_cur else 0.0,
        "rasp": sums["rasp"] / n_cur if (n_cur and rasp_on) else 0.0,
        "seg": sums["seg"] / n_cur if (n_cur and seg_active) else 0.0,
    }
    for key, value in comps.items():
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite {key} loss at step {state.step} epoch {state.epoch}: {comps}"
            )
    return comps


def _batch_losses(state, items, feat, z, p_hat, n_all, n_cur):
    """Per-item loss terms and output gradients of one shard's outputs.

    items are the shard's own; n_all and n_cur count the whole batch's
    items and current (non-memory) items, which normalise every gradient,
    so the shards' gradients add up to the whole batch's.  p_hat is None
    in the warm-up epochs, where dp is None too.  Elementwise work is
    vectorized across the shard; each per-item loss comes from a per-item
    reduction, so recomputing any item through the objectives module
    reproduces it exactly.  Returns (losses, dz, dp, dfeat_extra): losses
    maps each term to its per-item values in item order (every item for
    cls, current items for the rest), and dfeat_extra is the kde gradient
    on the encoder features.
    """
    lcfg = state.loss_cfg
    dtype = state.model.dtype
    n_old = state.n_old
    n_total = state.model.n_classes()
    seg_active = p_hat is not None
    n_items = len(items)
    cur_rows = [i for i, it in enumerate(items) if not it.is_memory]
    n_pix = z.shape[1] * z.shape[2]

    dz = np.zeros_like(z)
    dp = np.zeros_like(p_hat) if seg_active else None
    dfeat_extra = np.zeros_like(feat)
    losses = {key: [] for key in objectives.LOSS_COMPONENTS}

    # classification through pooled scores, every item
    m_all = objectives._softmax_lastaxis(z)
    msum = m_all.reshape(n_items, n_pix, n_total).sum(axis=1)
    mass = msum / n_pix
    pooled = (m_all * z).reshape(n_items, n_pix, n_total).sum(axis=1) \
        / (lcfg.epsilon_ngwp + msum)
    if lcfg.gamma_focal == 0:
        foc = np.log(lcfg.lambda_focal + mass)
        dfoc = 1.0 / (lcfg.lambda_focal + mass)
    else:
        foc = (1.0 - mass) ** lcfg.gamma_focal * np.log(lcfg.lambda_focal + mass)
        dfoc = -lcfg.gamma_focal * (1.0 - mass) ** (lcfg.gamma_focal - 1.0) \
            * np.log(lcfg.lambda_focal + mass) \
            + (1.0 - mass) ** lcfg.gamma_focal / (lcfg.lambda_focal + mass)
    scores = pooled + foc
    upstream = np.zeros((n_items, n_total), dtype)
    for bi, item in enumerate(items):
        if item.is_memory:
            sel = slice(1, n_total)
            labels = item.labels_fg
        else:
            sel = slice(n_old, n_total)
            labels = item.labels_new
        closs, dsel = objectives.cls_loss_grad(scores[bi, sel], labels)
        upstream[bi, sel] = dsel
        losses["cls"].append(closs)
    u = upstream / (lcfg.epsilon_ngwp + msum)
    v = upstream * dfoc / n_pix
    a = u[:, None, None, :] * (z - pooled[:, None, None, :]) + v[:, None, None, :]
    dz += (m_all * (a - (a * m_all).sum(axis=-1, keepdims=True))
           + u[:, None, None, :] * m_all) / n_all

    if cur_rows:
        # distillation and pseudo-supervision, current items only
        n_here = len(cur_rows)
        y_old = np.stack([items[i].y_old for i in cur_rows])
        feat_old = np.stack([items[i].feat_old for i in cur_rows])
        zc = np.ascontiguousarray(z[cur_rows][:, :, :, :n_old])
        bce = objectives.softplus(zc) - y_old * zc
        losses["kdl"] = [float(li) for li in bce.reshape(n_here, -1).mean(axis=1)]
        g_kdl = (objectives.sigmoid(zc) - y_old) / (n_pix * n_old * n_cur)
        dz[cur_rows, :, :, :n_old] += g_kdl

        diff = feat[cur_rows] - feat_old
        if lcfg.kde_squared:
            sq = (diff * diff).sum(axis=-1)
            losses["kde"] = [float(li) / n_pix
                             for li in sq.reshape(n_here, -1).sum(axis=1)]
            dfeat_extra[cur_rows] += 2.0 * diff / (n_pix * n_cur)
        else:
            norm = np.sqrt((diff * diff).sum(axis=-1))
            losses["kde"] = [float(li) / n_pix
                             for li in norm.reshape(n_here, -1).sum(axis=1)]
            safe = np.where(norm > 0, norm, 1.0)
            g = np.where(norm[..., None] > 0, diff / safe[..., None], 0.0)
            dfeat_extra[cur_rows] += g / (n_pix * n_cur)

        if state.rasp_active():
            for i in cur_rows:
                item = items[i]
                rl, dz_rasp = objectives.rasp_loss_grad(
                    z[i][:, :, item.present], item.sig_smap
                )
                losses["rasp"].append(rl)
                if lcfg.lambda_rasp != 0.0:
                    dz[i][:, :, item.present] += (
                        lcfg.lambda_rasp / n_cur
                    ) * dz_rasp.astype(dtype)

        if seg_active:
            m_cur = m_all[cur_rows]
            winners = np.argmax(m_cur, axis=-1)
            q = (1.0 - lcfg.alpha) * m_cur
            b_ix, r_ix, c_ix = np.indices(winners.shape, sparse=True)
            q[b_ix, r_ix, c_ix, winners] += lcfg.alpha
            q_tilde = np.empty_like(q)
            q_tilde[..., 0] = np.minimum(y_old[..., 0], q[..., 0])
            q_tilde[..., 1:n_old] = y_old[..., 1:]
            q_tilde[..., n_old:] = q[..., n_old:]
            pc = p_hat[cur_rows]
            bce = objectives.softplus(pc) - q_tilde * pc
            losses["seg"] = [float(li) for li in bce.reshape(n_here, -1).mean(axis=1)]
            dp[cur_rows] += (objectives.sigmoid(pc) - q_tilde) \
                / (n_pix * n_total * n_cur)

    return losses, dz, dp, dfeat_extra


def incremental_step(state, samples, bank, sim_matrix, registry):
    """Run one weakly supervised step; returns the model and per-epoch trace."""
    if state.step < 1:
        raise ValueError("incremental steps start at 1")
    if not samples:
        raise ValueError("incremental step received no samples")
    cfg = state.engine_cfg
    items = _prepare_items(state, samples, registry, sim_matrix)
    mem_items = _prepare_memory(state, bank)
    ss = np.random.SeedSequence((cfg.seed, state.step))
    shuffle_seed, memory_seed = ss.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    memory_rng = np.random.default_rng(memory_seed)
    use_memory = bank is not None and len(bank) > 0 and state.memory_ratio > 0
    opt = SGDMomentum(cfg.lr_incremental, cfg.momentum)
    params = state.model.params()
    trace = []
    for epoch in range(cfg.epochs_incremental):
        state.epoch = epoch
        order = shuffle_rng.permutation(len(items))
        acc = {k: 0.0 for k in objectives.LOSS_COMPONENTS}
        total_acc, n_batches = 0.0, 0
        for idx in _batches(len(items), cfg.batch_size, order):
            batch = [items[i] for i in idx]
            if use_memory:
                entries = mix_batch(batch, bank, state.memory_ratio, memory_rng)
                batch = [
                    mem_items[id(e)] if isinstance(e, MemoryEntry) else e
                    for e in entries
                ]
            grads = zero_grads(params)
            comps = incremental_batch(state, batch, grads)
            opt.step(params, grads)
            for k in acc:
                acc[k] += comps[k]
            total_acc += objectives.total_loss(comps, state.loss_cfg, epoch)
            n_batches += 1
        entry = {k: acc[k] / n_batches for k in acc}
        entry["total"] = total_acc / n_batches
        entry["seg_active"] = state.seg_active()
        trace.append(entry)
    return state.model, trace


# ---------------------------------------------------------------------------
# Inference and checkpoints
# ---------------------------------------------------------------------------

def predict_dataset(model, samples, registry, batch_size=24):
    """Argmax maps of the main head, upsampled to each mask's resolution."""
    lut = np.array([registry.index_of(n) for n in model.class_names],
                   dtype=np.int32)

    def shard(xs):
        feat, _ = model.encoder.forward(xs)
        logits, _ = model.head.forward(feat)
        return (np.argmax(logits, axis=3),)

    preds = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        x = np.stack([image_to_input(s.image, model.dtype) for s in chunk])
        winners = _join(_forward_shards(shard, x)[1], 0)
        for j, sample in enumerate(chunk):
            h, w = sample.dense_mask.shape
            grid = lut[winners[j]]
            preds.append(nearest_resize(grid, h, w))
    return preds


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
        "__arch__": np.array(json.dumps(model.arch.to_dict())),
        "__dtype__": np.array("float32" if model.dtype == np.float32 else "float64"),
    }
    if parent_config_hash is not None:
        meta["__parent_config_hash__"] = np.array(parent_config_hash)
    if not path.endswith(".npz"):
        path += ".npz"   # np.savez's own naming rule for a path argument
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **model.params(), **meta)


def load_checkpoint(path):
    with np.load(path, allow_pickle=False) as data:
        class_names = [str(n) for n in data["__class_names__"]]
        step = int(data["__step__"])
        config_hash = str(data["__config_hash__"])
        arch = Arch.from_dict(json.loads(str(data["__arch__"])))
        dtype = np.float32 if str(data["__dtype__"]) == "float32" else np.float64
        model = SegModel.init(arch, class_names, seed=0, dtype=dtype)
        params = model.params()
        for name, p in params.items():
            stored = data[name]
            if stored.shape != p.shape:
                raise ValueError(f"checkpoint parameter {name} has shape "
                                 f"{stored.shape}, expected {p.shape}")
            p[...] = stored.astype(dtype)
    return model, step, config_hash
