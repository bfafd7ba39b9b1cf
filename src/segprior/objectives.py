"""Every loss and pooling formula of the training objective.

All tensors are channel-last numpy arrays.  Each differentiable operation
returns its value together with an analytic gradient; the test suite checks
every one of them against central finite differences, and the training
step calls the same functions.

The batch-native functions take a leading item axis B and reduce per item:
their losses come back as a float64 vector of B per-item values, each one
the mean the objective defines for a single image.  Their gradients are
divided by an explicit normaliser n, the count the whole batch's term is
averaged over (elements, or pixels for ``kde``).  A shard of a batch passes
the whole batch's count, so the shards' gradients add up to the batch's.
``cls_loss_grad`` and ``rasp_loss_grad`` work on one image at a time,
because each image has its own label set.

The combined objective is

    total = cls + kdl + kde + [epoch >= warmup] * seg + lambda_rasp * rasp

where the semantic-prior term ``rasp`` is a binary cross-entropy between
the RaSP targets of ``segprior.simprior`` and the localizer logits of the
new classes present in the image.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

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


def _bce_items(logits, targets, n):
    """Per-item mean binary cross-entropy (float64), and (sigmoid - target) / n."""
    bce = softplus(logits) - targets * logits
    losses = bce.reshape(len(logits), -1).mean(axis=1).astype(np.float64)
    return losses, (sigmoid(logits) - targets) / n


def _check_pair(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"{what} must share a shape, not {a.shape} and {b.shape}")
    if a.ndim < 2:
        raise ValueError(f"{what} need a leading item axis")
    return a, b


def _check_unit_range(t, what):
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError(f"{what} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Semantic-prior loss
# ---------------------------------------------------------------------------

def rasp_loss_grad(z, t):
    """BCE between RaSP targets and localizer logits, one image.

    z and t are (H, W, K) over the new classes present in the image only;
    t lies in [0, 1] (``segprior.simprior.rasp_target_table`` builds it).
    Normalization is (K * H * W), the masked analog of averaging over the
    full class set.  Returns the mean loss and its gradient.
    """
    z = np.asarray(z)
    t = np.asarray(t)
    if z.shape != t.shape:
        raise ValueError(f"shape mismatch between logits {z.shape} and targets {t.shape}")
    if z.ndim != 3 or z.shape[2] == 0:
        raise ValueError("rasp loss needs a non-empty (H, W, K) class axis")
    _check_unit_range(t, "rasp targets")
    total, grad = bce_sum_grad(z, t, z.size)
    return float(total / z.size), grad


# ---------------------------------------------------------------------------
# Image-level score pooling
# ---------------------------------------------------------------------------

def image_scores_vjp(z, cfg):
    """Pooled per-class image scores of (B, H, W, C) logits, and their VJP.

    With m the softmax over the class axis and P the pixel count, item b
    scores class c as softmax-weighted pooling (nGWP) plus a focal penalty
    on near-empty masks:

        sum(m * z) / (epsilon + sum(m))  +  (1 - mass)^gamma * log(lambda + mass)

    where the sums run over the item's pixels and mass = sum(m) / P.
    Returns (scores, m, vjp): scores is (B, C), m is the softmax, which the
    pseudo-labels reuse, and vjp(upstream) maps a (B, C) upstream gradient
    to d(sum(upstream * scores)) / dz.
    """
    z = np.asarray(z)
    if z.ndim != 4:
        raise ValueError("pooling expects a (B, H, W, C) tensor")
    if z.shape[3] < 2:
        raise ValueError("pooling needs at least two classes for the softmax")
    eps, gamma, lam = cfg.epsilon_ngwp, cfg.gamma_focal, cfg.lambda_focal
    n_items, n_pix, n_cls = len(z), z.shape[1] * z.shape[2], z.shape[3]
    m = np.exp(z - z.max(axis=-1, keepdims=True))
    m /= m.sum(axis=-1, keepdims=True)
    msum = m.reshape(n_items, n_pix, n_cls).sum(axis=1)
    mass = msum / n_pix
    pooled = (m * z).reshape(n_items, n_pix, n_cls).sum(axis=1) / (eps + msum)
    log_mass = np.log(lam + mass)
    dfoc = (1.0 - mass) ** gamma / (lam + mass)      # d(focal) / d(mass)
    if gamma != 0:
        dfoc -= gamma * (1.0 - mass) ** (gamma - 1.0) * log_mass
    scores = pooled + (1.0 - mass) ** gamma * log_mass

    def vjp(upstream):
        u = (upstream / (eps + msum))[:, None, None, :]
        v = (upstream * dfoc / n_pix)[:, None, None, :]
        a = u * (z - pooled[:, None, None, :]) + v     # softmax-jacobian coefficients
        return m * (a - (a * m).sum(axis=-1, keepdims=True)) + u * m

    return scores, m, vjp


# ---------------------------------------------------------------------------
# Classification, distillation and segmentation losses
# ---------------------------------------------------------------------------

def cls_loss_grad(y_hat, labels):
    """Multi-label soft-margin loss over one image's pooled scores.

    Returns the mean over classes and its gradient; the caller divides the
    gradient by its batch's item count.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if y_hat.shape != labels.shape or y_hat.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be binary")
    total, grad = bce_sum_grad(y_hat, labels, y_hat.size)
    return float(total / y_hat.size), grad


def kde_loss_grad(f, f_old, n, squared=True):
    """Feature distillation: per item, the mean over pixels of the feature distance.

    f and f_old are (B, H, W, D); the distance is squared by default, the
    plain norm sits behind the flag for comparison.  n counts pixels.
    """
    f, f_old = _check_pair(f, f_old, "feature tensors")
    diff = f - f_old
    n_pix = int(np.prod(diff.shape[1:-1]))
    dist = (diff * diff).sum(axis=-1)
    if squared:
        grad = 2.0 * diff / n
    else:
        dist = np.sqrt(dist)
        safe = np.where(dist > 0, dist, 1.0)
        grad = np.where(dist[..., None] > 0, diff / safe[..., None], 0.0) / n
    losses = dist.reshape(len(diff), -1).sum(axis=1).astype(np.float64) / n_pix
    return losses, grad


def kdl_loss_grad(z, y_old, n):
    """Output distillation: BCE between old-model scores and localizer logits.

    z and y_old are (B, H, W, C_old).
    """
    z, y_old = _check_pair(z, y_old, "logits and targets")
    _check_unit_range(y_old, "distillation targets")
    return _bce_items(z, y_old, n)


def seg_loss_grad(p, q, n):
    """Dense BCE between fused pseudo-supervision q and main-head logits p."""
    p, q = _check_pair(p, q, "logits and supervision")
    _check_unit_range(q, "pseudo-supervision")
    return _bce_items(p, q, n)


# ---------------------------------------------------------------------------
# Pseudo-supervision
# ---------------------------------------------------------------------------

def pseudo_supervision(m, y_old, alpha):
    """Fused seg-head targets from the localizer softmax and the old model.

    m is (B, H, W, C) and y_old (B, H, W, n_old), bkg first.  The localizer
    labels are smoothed, alpha * one-hot(argmax m) + (1 - alpha) * m; then
    bkg takes the minimum of smoothed and old score, the old foreground
    channels take the old model's scores and the new channels the smoothed
    labels.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = np.asarray(m)
    y_old = np.asarray(y_old)
    n_old = y_old.shape[-1]
    if m.ndim != 4 or y_old.shape[:3] != m.shape[:3] or not 1 <= n_old <= m.shape[3]:
        raise ValueError(f"softmax {m.shape} and old scores {y_old.shape} do not pair up")
    winners = np.argmax(m, axis=-1)
    q = (1.0 - alpha) * m
    b_ix, r_ix, c_ix = np.indices(winners.shape, sparse=True)
    q[b_ix, r_ix, c_ix, winners] += alpha
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
