"""Shared numeric helpers for the test suite."""

import multiprocessing
import os

import numpy as np


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
