"""Shared numeric helpers for the test suite."""

import multiprocessing
import os

import numpy as np

from segprior import engine
from segprior.memory import populate_episodic
from segprior.objectives import LossConfig, sigmoid
from segprior.protocol import step_rows


def numeric_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function at x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn(x)
        flat[i] = keep - step
        lo = fn(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def bce_reference(logits, targets, n):
    """``objectives.bce_loss_grad`` as its formulas read, on fresh arrays:
    per-item means of max(z, 0) + log1p(exp(-|z|)) - t * z, and
    (sigmoid(z) - t) / n."""
    bce = np.maximum(logits, 0) + np.log1p(np.exp(-np.abs(logits))) - targets * logits
    losses = bce.reshape(len(logits), -1).mean(axis=1).astype(np.float64)
    return losses, (sigmoid(logits) - targets) / n


def norm_backward_reference(norm, dy, cache, grads):
    """ChannelNorm's backward as the out-of-place formula, on fresh arrays:
    dx = dy * scale - (xhat * scale * sum(dy * xhat) / n + scale * sum(dy) / n)
    per sample and channel, with scale = gamma * inv_std."""
    xhat, inv_std = cache
    b, h, w, c = xhat.shape
    n = h * w
    ones = np.ones(n, dy.dtype)
    sum_dy = ones @ dy.reshape(b, n, c)
    sum_dyx = ones @ (dy * xhat).reshape(b, n, c)
    grads[f"{norm.name}.gamma"] += sum_dyx.sum(axis=0)
    grads[f"{norm.name}.beta"] += sum_dy.sum(axis=0)
    scale = norm.gamma * inv_std
    shift = xhat * (scale * sum_dyx / n)[:, None, None, :]
    shift += (scale * sum_dy / n)[:, None, None, :]
    dx = dy * scale[:, None, None, :]
    dx -= shift
    return dx


def unique_nbytes(arrays):
    """Bytes of the distinct buffers behind a nest of lists and tuples of
    arrays; a view counts as its base."""
    seen, total = set(), 0
    stack = [arrays]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
    return total


def max_rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def semantic_similarity(a, b, table):
    """Scalar oracle of the class similarity, -(1 - cos), clipped to [-2, 0].

    ``class_semantics.similarity_matrix`` computes every pair at once; the
    tests compare it and the synthetic taxonomy against this one pair at a
    time.
    """
    va = table.vector(a)
    vb = table.vector(b)
    cos = float(va @ vb) / (float(np.linalg.norm(va)) * float(np.linalg.norm(vb)))
    return float(np.clip(-(1.0 - cos), -2.0, 0.0))


def step_samples(dataset, schedule, step):
    """The samples of dataset that protocol.step_rows admits to a step."""
    return [dataset[k] for k in step_rows([s.present for s in dataset], schedule, step)]


def episodic_bank(samples, old_classes, registry, capacity, seed):
    """The samples memory.populate_episodic draws from a list of samples."""
    rows = populate_episodic([s.present for s in samples], old_classes, registry,
                             capacity, seed)
    return [samples[k] for k in rows]


def pool_labels(schedule, step, samples, bank=()):
    """The class names engine._prepare_pool labels each row with, the step's
    rows first, then the bank's, for untrained models of the schedule at
    the step; a step without a previous one raises ValueError."""
    old = engine.SegModel.init(schedule.channel_names(step - 1), seed=0)
    model = engine.extend_head(old, schedule.classes_at_step(step), seed=1)
    state = engine.StepState(step, old, model, LossConfig(lambda_rasp=0.0),
                             engine.EngineConfig())
    pool = engine._prepare_pool(state, samples, bank, schedule.registry, None)
    fg = model.class_names[1:]
    return [frozenset(fg[k] for k in np.flatnonzero(row)) for row in pool.labels]


def no_child_process():
    """Whether this process has no child left, running or exited and not
    yet reaped.  An exited child found here is reaped by the check."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class ProcessLog:
    """Records from this process and from any process forked after the
    log was made, such as shard 1's worker, in the order they were written.

    Each record is stored with the pid of the process that wrote it.  Keep
    records small: a write blocks while the pipe holds 64 KiB unread.
    """

    def __init__(self):
        self._queue = multiprocessing.get_context("fork").SimpleQueue()

    def append(self, record):
        self._queue.put((os.getpid(), record))

    def drain(self):
        """The (pid, record) pairs written since the last drain."""
        out = []
        while not self._queue.empty():
            out.append(self._queue.get())
        return out
