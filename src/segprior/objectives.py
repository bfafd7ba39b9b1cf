"""Every loss and pooling formula of the training objective.

All tensors are channel-last numpy arrays.  Each differentiable operation
has a ``*_grad`` companion returning ``(value, gradient)`` with the gradient
taken analytically; the test suite checks every one of them against central
finite differences.

The combined objective is

    total = cls + kdl + kde + [epoch >= warmup] * seg + lambda_rasp * rasp

where the semantic-prior term ``rasp`` is a binary cross-entropy between
sigmoid-squashed similarity maps and the localizer logits of the new classes
present in the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np


@dataclass
class LossConfig:
    lambda_rasp: float = 1.0
    tau: float = 5.0
    alpha: float = 0.5
    epsilon_ngwp: float = 1e-5
    gamma_focal: float = 3.0
    lambda_focal: float = 0.01
    seg_warmup_epochs: int = 5
    kde_squared: bool = True

    def __post_init__(self):
        if self.lambda_rasp < 0:
            raise ValueError("lambda_rasp must be non-negative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.epsilon_ngwp <= 0:
            raise ValueError("epsilon_ngwp must be positive")
        if self.gamma_focal < 0:
            raise ValueError("gamma_focal must be non-negative")
        if self.lambda_focal <= 0:
            raise ValueError("lambda_focal must be positive")
        if self.seg_warmup_epochs < 0:
            raise ValueError("seg_warmup_epochs must be non-negative")

    def to_dict(self):
        return asdict(self)


def sigmoid(x):
    """Logistic function as 0.5 + 0.5 * tanh(x / 2), in place on one buffer.

    tanh saturates instead of overflowing, so no input needs a branch.
    """
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softplus(x):
    x = np.asarray(x)
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def bce_sum_grad(logits, targets, n):
    """Summed binary cross-entropy from logits, and (sigmoid - target) / n.

    n is the element count the loss is averaged over, which for a shard of
    a batch is the whole batch's.  The sum is a scalar of the logits' dtype.
    """
    total = (softplus(logits) - targets * logits).sum()
    return total, (sigmoid(logits) - targets) / n


def _bce_mean(logits, targets):
    """Mean binary cross-entropy from logits; grad is (sigmoid - target)/size."""
    total, grad = bce_sum_grad(logits, targets, logits.size)
    return float(total / logits.size), grad


# ---------------------------------------------------------------------------
# Semantic-prior loss
# ---------------------------------------------------------------------------

def rasp_loss_grad(z, s):
    """BCE between sigmoid(similarity) targets and localizer logits.

    z and s are (H, W, K) over the new classes present in the image only;
    normalization is (K * H * W), the masked analog of averaging over the
    full class set.
    """
    z = np.asarray(z)
    s = np.asarray(s)
    if z.shape != s.shape:
        raise ValueError(f"shape mismatch between logits {z.shape} and maps {s.shape}")
    if z.ndim != 3 or z.shape[2] == 0:
        raise ValueError("rasp loss needs a non-empty (H, W, K) class axis")
    return _bce_mean(z, sigmoid(s))


def rasp_loss(z, s):
    return rasp_loss_grad(z, s)[0]


# ---------------------------------------------------------------------------
# Image-level score pooling
# ---------------------------------------------------------------------------

def _softmax_lastaxis(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _check_pooling_input(z):
    z = np.asarray(z)
    if z.ndim != 3:
        raise ValueError("pooling expects an (H, W, C) tensor")
    if z.shape[2] < 2:
        raise ValueError("pooling needs at least two classes for the softmax")
    return z


def ngwp_aggregate(z, epsilon):
    """Softmax-weighted spatial pooling of logits into per-class scores."""
    z = _check_pooling_input(z)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = _softmax_lastaxis(z)
    return (m * z).sum(axis=(0, 1)) / (epsilon + m.sum(axis=(0, 1)))


def focal_penalty(z, gamma, lambda_focal):
    """Penalty discouraging near-empty masks: (1 - mass)^gamma * log(lam + mass)."""
    z = _check_pooling_input(z)
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if lambda_focal <= 0:
        raise ValueError("lambda_focal must be positive")
    m = _softmax_lastaxis(z)
    mass = m.sum(axis=(0, 1)) / (z.shape[0] * z.shape[1])
    return (1.0 - mass) ** gamma * np.log(lambda_focal + mass)


def image_scores(z, cfg):
    """Pooled per-class image scores: weighted pooling plus the focal term."""
    return ngwp_aggregate(z, cfg.epsilon_ngwp) + \
        focal_penalty(z, cfg.gamma_focal, cfg.lambda_focal)


def image_scores_vjp(z, cfg, upstream):
    """Scores plus d(upstream . scores)/dz, propagated through the softmax."""
    z = _check_pooling_input(z)
    upstream = np.asarray(upstream, dtype=z.dtype)
    eps, gamma, lam = cfg.epsilon_ngwp, cfg.gamma_focal, cfg.lambda_focal
    n_pix = z.shape[0] * z.shape[1]
    m = _softmax_lastaxis(z)
    msum = m.sum(axis=(0, 1))
    mass = msum / n_pix
    y_pool = (m * z).sum(axis=(0, 1)) / (eps + msum)
    foc = (1.0 - mass) ** gamma * np.log(lam + mass)
    if gamma == 0:
        dfoc = 1.0 / (lam + mass)
    else:
        dfoc = -gamma * (1.0 - mass) ** (gamma - 1.0) * np.log(lam + mass) \
            + (1.0 - mass) ** gamma / (lam + mass)
    u = upstream / (eps + msum)
    v = upstream * dfoc / n_pix
    a = u * (z - y_pool) + v                       # softmax-jacobian coefficients
    dz = m * (a - (a * m).sum(axis=-1, keepdims=True)) + u * m
    return y_pool + foc, dz


# ---------------------------------------------------------------------------
# Classification, distillation and segmentation losses
# ---------------------------------------------------------------------------

def cls_loss_grad(y_hat, labels):
    """Multi-label soft-margin loss over pooled scores (mean over classes)."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if y_hat.shape != labels.shape or y_hat.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be binary")
    return _bce_mean(y_hat, labels)


def cls_loss(y_hat, labels):
    return cls_loss_grad(y_hat, labels)[0]


def kde_loss_grad(feat_now, feat_old, squared=True):
    """Feature distillation: mean over pixels of the (squared) feature distance.

    The squared form is the default; the plain-norm variant sits behind the
    flag for comparison.
    """
    feat_now = np.asarray(feat_now)
    feat_old = np.asarray(feat_old)
    if feat_now.shape != feat_old.shape:
        raise ValueError("feature tensors must share a shape")
    diff = feat_now - feat_old
    n_pix = int(np.prod(diff.shape[:-1])) if diff.ndim > 1 else 1
    sq = (diff * diff).sum(axis=-1)
    if squared:
        return float(sq.sum() / n_pix), 2.0 * diff / n_pix
    norm = np.sqrt(sq)
    safe = np.where(norm > 0, norm, 1.0)
    grad = diff / (safe[..., None] * n_pix)
    grad = np.where(norm[..., None] > 0, grad, 0.0)
    return float(norm.sum() / n_pix), grad


def kde_loss(feat_now, feat_old, squared=True):
    return kde_loss_grad(feat_now, feat_old, squared)[0]


def kdl_loss_grad(z, y_old):
    """Output distillation: BCE between old-model scores and localizer logits."""
    z = np.asarray(z)
    y_old = np.asarray(y_old)
    if z.shape != y_old.shape:
        raise ValueError("logits and targets must share a shape")
    if np.any(y_old < 0) or np.any(y_old > 1):
        raise ValueError("distillation targets must lie in [0, 1]")
    return _bce_mean(z, y_old)


def kdl_loss(z, y_old):
    return kdl_loss_grad(z, y_old)[0]


def seg_loss_grad(p_hat, q_tilde):
    """Dense BCE between fused pseudo-supervision and main-head logits."""
    p_hat = np.asarray(p_hat)
    q_tilde = np.asarray(q_tilde)
    if p_hat.shape != q_tilde.shape:
        raise ValueError("logits and supervision must share a shape")
    if np.any(q_tilde < 0) or np.any(q_tilde > 1):
        raise ValueError("pseudo-supervision must lie in [0, 1]")
    return _bce_mean(p_hat, q_tilde)


def seg_loss(p_hat, q_tilde):
    return seg_loss_grad(p_hat, q_tilde)[0]


# ---------------------------------------------------------------------------
# Pseudo-supervision assembly
# ---------------------------------------------------------------------------

def smooth_pseudo_labels(m, alpha):
    """Blend the one-hot argmax of softmax scores with the scores themselves."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = np.asarray(m)
    if m.ndim != 3:
        raise ValueError("expected an (H, W, C) softmax tensor")
    sums = m.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("softmax rows must sum to 1")
    winners = np.argmax(m, axis=-1)
    one_hot = np.zeros_like(m)
    rows, cols = np.indices(winners.shape)
    one_hot[rows, cols, winners] = 1.0
    return alpha * one_hot + (1.0 - alpha) * m


@dataclass(frozen=True)
class ChannelPartition:
    """Background / old / new channel split of the current label space."""

    n_old: int          # channels of the previous label space, bkg included
    n_total: int        # channels of the current label space

    def __post_init__(self):
        if not 1 <= self.n_old <= self.n_total:
            raise ValueError("partition needs 1 <= n_old <= n_total")


def fuse_supervision(q, y_old, partition):
    """Per-channel supervision: min for bkg, localizer for new, old model else."""
    q = np.asarray(q)
    y_old = np.asarray(y_old)
    if q.ndim != 3 or y_old.ndim != 3 or q.shape[:2] != y_old.shape[:2]:
        raise ValueError("q and y_old must be (H, W, C) with equal spatial shape")
    if q.shape[2] != partition.n_total:
        raise ValueError(
            f"q has {q.shape[2]} channels, partition expects {partition.n_total}"
        )
    if y_old.shape[2] != partition.n_old:
        raise ValueError(
            f"y_old has {y_old.shape[2]} channels, partition expects {partition.n_old}"
        )
    fused = np.empty_like(q)
    fused[:, :, 0] = np.minimum(y_old[:, :, 0], q[:, :, 0])
    fused[:, :, 1:partition.n_old] = y_old[:, :, 1:]
    fused[:, :, partition.n_old:] = q[:, :, partition.n_old:]
    return fused


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------

LOSS_COMPONENTS = ("cls", "kdl", "kde", "seg", "rasp")


def total_loss(components, cfg, epoch):
    """cls + kdl + kde + seg (after warmup) + lambda * rasp."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    vals = {}
    for key in LOSS_COMPONENTS:
        v = float(components.get(key, 0.0))
        if not np.isfinite(v):
            raise ValueError(f"loss component {key!r} is not finite: {v}")
        vals[key] = v
    total = vals["cls"] + vals["kdl"] + vals["kde"] + cfg.lambda_rasp * vals["rasp"]
    if epoch >= cfg.seg_warmup_epochs:
        total += vals["seg"]
    return total
