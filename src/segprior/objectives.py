"""Every loss and pooling formula of the training objective.

All tensors are channel-last numpy arrays.  Each differentiable operation
returns its value together with an analytic gradient; the test suite checks
every one of them against central finite differences, and the training
step calls the same functions.

Every loss function takes a leading item axis B and reduces per item: its
losses come back as a float64 vector of B per-item values, each one the
mean the objective defines for a single image.  Its gradient is divided by
an explicit normaliser n, the count the whole batch's term is averaged
over (elements, or pixels for ``kde``).  A shard of a batch passes the
whole batch's count, so the shards' gradients add up to the batch's.

The combined objective is

    total = cls + kdl + kde + [epoch >= warmup] * seg + lambda_rasp * rasp

Four of its five terms are one binary cross-entropy from logits,
``bce_loss_grad``, on different pairs: ``cls`` on one image's pooled
scores (``image_scores_vjp``) against its image labels, ``kdl`` on the
old channels of the localizer logits against the old model's scores,
``seg`` on the seg logits against ``pseudo_supervision``, and ``rasp`` on
the localizer logits of the new classes present in one image against the
RaSP targets of ``segprior.simprior``.  Base training's dense loss is the
same function against one-hot masks.  ``kde`` is the squared feature
distance of ``kde_loss_grad``, which takes the feature difference and
turns it into its gradient in place.

The pooling and pseudo-label constants are fixed: ``NGWP_EPSILON``,
``FOCAL_GAMMA`` and ``FOCAL_LAMBDA`` are the nGWP + focal constants of
Araslanov & Roth (CVPR 2020, arXiv:2005.08104), and ``PSEUDO_ALPHA`` is the
weight of the one-hot argmax in the smoothed pseudo-labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NGWP_EPSILON = 1e-5
FOCAL_GAMMA = 3.0
FOCAL_LAMBDA = 0.01
PSEUDO_ALPHA = 0.5


@dataclass
class LossConfig:
    """The objective's settings: the rasp weight, the RaSP target sharpness
    tau and the seg warm-up length.  The pooling and pseudo-label constants
    are fixed (``NGWP_EPSILON``, ``FOCAL_GAMMA``, ``FOCAL_LAMBDA``,
    ``PSEUDO_ALPHA``), and the kde term has none: it is always the squared
    feature distance of ``kde_loss_grad``."""

    lambda_rasp: float = 1.0
    tau: float = 5.0
    seg_warmup_epochs: int = 5

    def __post_init__(self):
        # NaN fails every comparison, so each check is written to pass
        # only a finite value in range
        if not 0 <= self.lambda_rasp < np.inf:
            raise ValueError(f"lambda_rasp must be finite and non-negative, "
                             f"not {self.lambda_rasp!r}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and positive, not {self.tau!r}")
        if self.seg_warmup_epochs < 0:
            raise ValueError("seg_warmup_epochs must be non-negative")

    def seg_active(self, epoch):
        """Whether the seg term trains at epoch: the warm-up epochs are over."""
        return epoch >= self.seg_warmup_epochs


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
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which never
    overflows; all but max(x, 0) runs in one buffer, of x's float dtype or
    float64."""
    out = np.abs(x)
    if out.dtype.kind != "f":
        out = out.astype(np.float64)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0)
    return out


# ---------------------------------------------------------------------------
# Binary cross-entropy
# ---------------------------------------------------------------------------

def _check_pair(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"{what} must share a shape, not {a.shape} and {b.shape}")
    if a.ndim < 2:
        raise ValueError(f"{what} need a leading item axis")
    return a, b


def bce_loss_grad(logits, targets, n):
    """Binary cross-entropy from logits: per-item means, and the gradient.

    logits and targets share a non-empty shape with a leading item axis,
    and the targets lie in [0, 1] (a NaN fails this check too).  Returns the
    float64 vector of each item's mean over its elements and
    (sigmoid(logits) - targets) / n.

    The loss, softplus(logits) - targets * logits, runs in place on
    softplus's buffer, with the operations and the result dtype of the
    formula as written, so its values are the formula's bit for bit;
    wider targets widen the buffer first, as they widen the formula's
    result.
    """
    logits, targets = _check_pair(logits, targets, "logits and targets")
    # a NaN propagates through min and max and fails both comparisons
    if not (targets.size and targets.min() >= 0 and targets.max() <= 1):
        raise ValueError("BCE targets must be non-empty and lie in [0, 1]")
    bce = softplus(logits)
    bce = bce.astype(np.result_type(bce, targets), copy=False)
    bce -= targets * logits
    losses = bce.reshape(len(logits), -1).mean(axis=1).astype(np.float64)
    del bce
    # the gradient stays as written: computed in place on sigmoid's
    # buffer too, it lowered neither training workload's peak RSS
    return losses, (sigmoid(logits) - targets) / n


# ---------------------------------------------------------------------------
# Image-level score pooling
# ---------------------------------------------------------------------------

def image_scores_vjp(z):
    """Pooled per-class image scores of (B, H, W, C) logits, and their VJP.

    With m the softmax over the class axis and P the pixel count, item b
    scores class c as softmax-weighted pooling (nGWP) plus a focal penalty
    on near-empty masks:

        sum(m * z) / (epsilon + sum(m))  +  (1 - mass)^gamma * log(lambda + mass)

    where the sums run over the item's pixels, mass = sum(m) / P, and
    epsilon, gamma and lambda are NGWP_EPSILON, FOCAL_GAMMA and FOCAL_LAMBDA.
    Returns (scores, m, vjp): scores is (B, C), m is the softmax, which the
    pseudo-labels reuse, and vjp(upstream) maps a (B, C) upstream gradient
    to d(sum(upstream * scores)) / dz.
    """
    z = np.asarray(z)
    if z.ndim != 4:
        raise ValueError("pooling expects a (B, H, W, C) tensor")
    if z.shape[3] < 2:
        raise ValueError("pooling needs at least two classes for the softmax")
    eps, gamma, lam = NGWP_EPSILON, FOCAL_GAMMA, FOCAL_LAMBDA
    n_items, n_pix, n_cls = len(z), z.shape[1] * z.shape[2], z.shape[3]
    m = np.exp(z - z.max(axis=-1, keepdims=True))
    m /= m.sum(axis=-1, keepdims=True)
    msum = m.reshape(n_items, n_pix, n_cls).sum(axis=1)
    mass = msum / n_pix
    pooled = (m * z).reshape(n_items, n_pix, n_cls).sum(axis=1) / (eps + msum)
    log_mass = np.log(lam + mass)
    dfoc = (1.0 - mass) ** gamma / (lam + mass)      # d(focal) / d(mass)
    dfoc -= gamma * (1.0 - mass) ** (gamma - 1.0) * log_mass
    scores = pooled + (1.0 - mass) ** gamma * log_mass

    def vjp(upstream):
        u = (upstream / (eps + msum))[:, None, None, :]
        v = (upstream * dfoc / n_pix)[:, None, None, :]
        a = u * (z - pooled[:, None, None, :]) + v     # softmax-jacobian coefficients
        return m * (a - (a * m).sum(axis=-1, keepdims=True)) + u * m

    return scores, m, vjp


# ---------------------------------------------------------------------------
# Feature distillation
# ---------------------------------------------------------------------------

def kde_loss_grad(diff, n):
    """Feature distillation: per item, the mean over pixels of the squared
    Euclidean distance between the feature vectors, from their difference.

    diff is f - f_old, (B, H, W, D), and n counts pixels.  The gradient
    with respect to f, 2 * diff / n, is computed in diff's own buffer:
    diff is overwritten with it and returned as the gradient, so a caller
    passes a difference it no longer needs.
    """
    diff = np.asarray(diff)
    if diff.ndim < 2:
        raise ValueError("feature differences need a leading item axis")
    n_pix = int(np.prod(diff.shape[1:-1]))
    dist = (diff * diff).sum(axis=-1)
    losses = dist.reshape(len(diff), -1).sum(axis=1).astype(np.float64) / n_pix
    diff *= 2.0
    diff /= n
    return losses, diff


# ---------------------------------------------------------------------------
# Pseudo-supervision
# ---------------------------------------------------------------------------

def pseudo_supervision(m, y_old):
    """Fused seg-head targets from the localizer softmax and the old model.

    m is (B, H, W, C) and y_old (B, H, W, n_old), bkg first.  The localizer
    labels are smoothed, alpha * one-hot(argmax m) + (1 - alpha) * m with
    alpha = PSEUDO_ALPHA; then
    bkg takes the minimum of smoothed and old score, the old foreground
    channels take the old model's scores and the new channels the smoothed
    labels.
    """
    m = np.asarray(m)
    y_old = np.asarray(y_old)
    n_old = y_old.shape[-1]
    if m.ndim != 4 or y_old.shape[:3] != m.shape[:3] or not 1 <= n_old <= m.shape[3]:
        raise ValueError(f"softmax {m.shape} and old scores {y_old.shape} do not pair up")
    winners = np.argmax(m, axis=-1)
    q = (1.0 - PSEUDO_ALPHA) * m
    b_ix, r_ix, c_ix = np.indices(winners.shape, sparse=True)
    q[b_ix, r_ix, c_ix, winners] += PSEUDO_ALPHA
    q_tilde = np.empty_like(q)
    q_tilde[..., 0] = np.minimum(y_old[..., 0], q[..., 0])
    q_tilde[..., 1:n_old] = y_old[..., 1:]
    q_tilde[..., n_old:] = q[..., n_old:]
    return q_tilde


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------

LOSS_COMPONENTS = ("cls", "kdl", "kde", "seg", "rasp")


def total_loss(components, cfg, epoch):
    """cls + kdl + kde + seg (after warmup) + lambda * rasp, of the terms'
    values in components."""
    c = components
    total = c["cls"] + c["kdl"] + c["kde"] + cfg.lambda_rasp * c["rasp"]
    if cfg.seg_active(epoch):
        total += c["seg"]
    return total
