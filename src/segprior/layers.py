"""Convolutional building blocks with explicit backward passes.

Everything runs channel-last on numpy arrays: activations are
(B, H, W, C).  Backward methods return the input gradient and accumulate
parameter gradients into a caller-supplied dict keyed by parameter name.

Stride-1 3x3 convolutions are shifted GEMMs (the kn2row/accumulate family
of Anderson et al., arXiv:1709.03395).  The zero-padded input
(B, H+2, W+2, C) is flattened to rows of C channels, one row per padded
pixel.  Output pixel (n, i, j) is computed at row r = (n*(H+2) + i)*(W+2) + j
of the same padded grid, and its tap (ki, kj) reads input row
r + ki*(W+2) + kj.  Each tap is therefore one GEMM over a contiguous range
of rows, accumulated into an output on the padded grid that is cropped to
(B, H, W) at the end; the backward pass runs the same nine row ranges for
the weight and input gradients.  Stride-2 3x3 convolutions gather their
patches instead; 1x1 convolutions are one matrix product per image.

Every batch is split along axis 0 into two fixed shards of ceil(B/2) and
floor(B/2) items (``shard_slices``).  ``on_shards`` runs shard 0 on the
calling thread and shard 1 on one persistent worker thread, each with its
own caches and gradient dicts.  In training a shard's function runs its
forward, its loss terms (with whole-batch normalisers) and its backward,
and the caller sums the shard gradients in shard order; inference joins
the shard outputs.  A batch of one runs inline.  The split never depends
on the host's core count, so results are the same on every machine.

Cache contract: layers reuse their work buffers across calls, one set per
thread, so the cache a forward returns is valid until the next forward of
the same layer on the same thread.  A shard's backward must therefore run
on the thread that ran its forward, which ``on_shards`` guarantees.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_TAPS = tuple((ki, kj) for ki in range(3) for kj in range(3))


# one worker thread, started on first use, so shard 1 always runs on it
_SHARD1 = ThreadPoolExecutor(max_workers=1, thread_name_prefix="segprior-shard1")


def shard_slices(b):
    """The fixed shards of a batch of b items: one slice if b == 1, else two."""
    half = (b + 1) // 2
    return [slice(0, b)] if b == 1 else [slice(0, half), slice(half, b)]


def on_shards(fn, shard_args):
    """Results of fn(*args) for each shard's args, in shard order.

    Shard 0 runs on the calling thread and shard 1 on the worker thread.
    """
    if len(shard_args) == 1:
        return [fn(*shard_args[0])]
    second = _SHARD1.submit(fn, *shard_args[1])
    try:
        first = fn(*shard_args[0])
    except BaseException:
        wait([second])
        raise
    return [first, second.result()]


def _im2col(xp, stride, ho, wo, cols):
    """Gather 3x3 patches of xp (B, H+2, W+2, C) into cols (B, ho, wo, 3, 3, C)."""
    for ki in range(3):
        for kj in range(3):
            cols[:, :, :, ki, kj, :] = xp[:, ki:ki + stride * ho:stride,
                                          kj:kj + stride * wo:stride, :]


def _col2im(dcols, stride, dxp):
    """Scatter-add patch gradients (B, ho, wo, 3, 3, C) into dxp (B, H+2, W+2, C)."""
    ho, wo = dcols.shape[1], dcols.shape[2]
    dxp[:] = 0
    for ki in range(3):
        for kj in range(3):
            dxp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride, :] += \
                dcols[:, :, :, ki, kj, :]


class Conv2d:
    """k x k convolution (k in {1, 3}), stride 1 or 2, zero padding for k=3.

    Work buffers are leased per layer and thread and reused across
    batches; a forward's cache is only valid until the next forward of the
    same layer on the same thread.
    """

    def __init__(self, name, k, cin, cout, stride, rng, dtype):
        if k not in (1, 3):
            raise ValueError("only 1x1 and 3x3 convolutions are supported")
        if k == 1 and stride != 1:
            raise ValueError("1x1 convolutions are stride-1 only")
        std = np.sqrt(2.0 / (k * k * cin))
        self.name = name
        self.k = k
        self.stride = stride
        self.W = (rng.standard_normal((k, k, cin, cout)) * std).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype)
        self._buf = {}

    def __deepcopy__(self, memo):
        clone = object.__new__(Conv2d)
        clone.name = self.name
        clone.k = self.k
        clone.stride = self.stride
        clone.W = self.W.copy()
        clone.b = self.b.copy()
        clone._buf = {}
        memo[id(self)] = clone
        return clone

    def _lease(self, key, shape, dtype, fill=None):
        key = (threading.get_ident(), key)
        arr = self._buf.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype) if fill is None else np.full(shape, fill, dtype)
            self._buf[key] = arr
        return arr

    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def forward(self, x):
        b, h, w, cin = x.shape
        cout = self.W.shape[3]
        if self.k == 1:
            # one GEMM per image: OpenBLAS picks its kernel by matrix size,
            # so one GEMM over the whole batch would round an image's
            # output differently depending on the batch it came in
            y = np.matmul(x.reshape(b, h * w, cin), self.W[0, 0])
            y += self.b
            return y.reshape(b, h, w, cout), x
        if self.stride == 1:
            return self._forward_shifted(x)
        ho = (h + 2 - 3) // self.stride + 1
        wo = (w + 2 - 3) // self.stride + 1
        # zeroed on creation; only the interior is rewritten afterwards,
        # so the padding border stays zero across reuses
        xp = self._lease("xp", (b, h + 2, w + 2, cin), x.dtype, fill=0)
        xp[:, 1:h + 1, 1:w + 1, :] = x
        cols = self._lease("cols", (b, ho, wo, 3, 3, cin), x.dtype)
        _im2col(xp, self.stride, ho, wo, cols)
        flat = cols.reshape(b * ho * wo, 9 * cin)
        y = flat @ self.W.reshape(9 * cin, cout) + self.b
        return y.reshape(b, ho, wo, cout), (cols, (b, h, w, cin, ho, wo))

    def _forward_shifted(self, x):
        b, h, w, cin = x.shape
        cout = self.W.shape[3]
        wp = w + 2
        n = b * (h + 2) * wp
        span = n - 2 * wp - 2         # rows up to the last output pixel
        xp = self._lease("xp", (b, h + 2, wp, cin), x.dtype, fill=0)
        xp[:, 1:h + 1, 1:w + 1, :] = x
        rows = xp.reshape(n, cin)
        out = np.empty((n, cout), x.dtype)
        np.matmul(rows[:span], self.W[0, 0], out=out[:span])
        for ki, kj in _TAPS[1:]:
            shift = ki * wp + kj
            out[:span] += rows[shift:shift + span] @ self.W[ki, kj]
        y = out.reshape(b, h + 2, wp, cout)[:, :h, :w] + self.b
        return y, (xp, (b, h, w, cin))

    def backward(self, dy, cache, grads, input_grad=True):
        """Accumulate parameter gradients; return dx, or None if not input_grad."""
        cout = self.W.shape[3]
        if self.k == 1:
            x = cache
            b, h, w, cin = x.shape
            dflat = dy.reshape(-1, cout)
            xflat = x.reshape(-1, cin)
            grads[f"{self.name}.W"][0, 0] += xflat.T @ dflat
            grads[f"{self.name}.b"] += dflat.sum(axis=0)
            return (dflat @ self.W[0, 0].T).reshape(x.shape) if input_grad else None
        if self.stride == 1:
            return self._backward_shifted(dy, cache, grads, input_grad)
        cols, (b, h, w, cin, ho, wo) = cache
        flat = cols.reshape(b * ho * wo, 9 * cin)
        dflat = np.ascontiguousarray(dy).reshape(b * ho * wo, cout)
        grads[f"{self.name}.W"] += (flat.T @ dflat).reshape(self.W.shape)
        # column sums as a GEMV; axis-0 reduction in numpy is far slower
        ones = self._lease("ones", (dflat.shape[0],), dflat.dtype, fill=1)
        grads[f"{self.name}.b"] += ones @ dflat
        if not input_grad:
            return None
        # cols is no longer needed; overwrite it in place with dcols
        np.matmul(dflat, self.W.reshape(9 * cin, cout).T, out=flat)
        dxp = self._lease("dxp", (b, h + 2, w + 2, cin), flat.dtype)
        _col2im(cols, self.stride, dxp)
        return dxp[:, 1:h + 1, 1:w + 1, :]

    def _backward_shifted(self, dy, cache, grads, input_grad):
        xp, (b, h, w, cin) = cache
        cout = self.W.shape[3]
        wp = w + 2
        n = b * (h + 2) * wp
        span = n - 2 * wp - 2
        # dy on the padded output grid; the rows outside the image are
        # zeroed on creation and never written, so they add nothing below
        dgrid = self._lease("dgrid", (n, cout), xp.dtype, fill=0)
        dgrid.reshape(b, h + 2, wp, cout)[:, :h, :w] = dy
        d = dgrid[:span]
        rows = xp.reshape(n, cin)
        dW = grads[f"{self.name}.W"]
        for ki, kj in _TAPS:
            shift = ki * wp + kj
            dW[ki, kj] += rows[shift:shift + span].T @ d
        ones = self._lease("ones", (span,), d.dtype, fill=1)
        grads[f"{self.name}.b"] += ones @ d
        if not input_grad:
            return None
        dxp = np.empty((n, cin), d.dtype)
        np.matmul(d, self.W[0, 0].T, out=dxp[:span])
        dxp[span:] = 0
        for ki, kj in _TAPS[1:]:
            shift = ki * wp + kj
            dxp[shift:shift + span] += d @ self.W[ki, kj].T
        return dxp.reshape(b, h + 2, wp, cin)[:, 1:h + 1, 1:w + 1]


class ChannelNorm:
    """Per-sample, per-channel normalization over space with scale and shift.

    Statistics never cross the batch axis, so inference is independent of
    batch composition and bitwise deterministic per image.
    """

    EPS = 1e-5

    def __init__(self, name, c, dtype):
        self.name = name
        self.gamma = np.ones(c, dtype=dtype)
        self.beta = np.zeros(c, dtype=dtype)

    def params(self):
        return {f"{self.name}.gamma": self.gamma, f"{self.name}.beta": self.beta}

    def forward(self, x):
        b, h, w, c = x.shape
        n = h * w
        # spatial sums as batched GEMVs, like the conv bias gradient
        ones = np.ones(n, x.dtype)
        mean = (ones @ x.reshape(b, n, c)) / n
        xhat = x - mean[:, None, None, :]
        var = (ones @ (xhat * xhat).reshape(b, n, c)) / n
        inv_std = (1.0 / np.sqrt(var + self.EPS)).astype(x.dtype)
        xhat *= inv_std[:, None, None, :]
        y = xhat * self.gamma
        y += self.beta
        return y, (xhat, inv_std)

    def backward(self, dy, cache, grads):
        xhat, inv_std = cache
        b, h, w, c = xhat.shape
        n = h * w
        ones = np.ones(n, dy.dtype)
        # per-sample sums of dy and dy * xhat: their batch totals are the
        # parameter gradients, and times gamma they are the sums of dxhat
        # and dxhat * xhat in the input gradient
        #   dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        sum_dy = ones @ dy.reshape(b, n, c)
        sum_dyx = ones @ (dy * xhat).reshape(b, n, c)
        grads[f"{self.name}.gamma"] += sum_dyx.sum(axis=0)
        grads[f"{self.name}.beta"] += sum_dy.sum(axis=0)
        scale = self.gamma * inv_std
        shift = xhat * (scale * sum_dyx / n)[:, None, None, :]
        shift += (scale * sum_dy / n)[:, None, None, :]
        dx = dy * scale[:, None, None, :]
        dx -= shift
        return dx


class LeakyReLU:
    """x for x > 0, slope * x otherwise, for a slope in [0, 1).

    The forward caches the gain g = max(sign(x), slope), which is 1 where
    x > 0 and slope elsewhere, so both directions are one multiply by g.
    """

    def __init__(self, slope):
        self.slope = slope

    def forward(self, x):
        g = np.sign(x)
        np.maximum(g, self.slope, out=g)
        return x * g, g

    def backward(self, dy, g):
        return dy * g


class SGDMomentum:
    """Classic momentum: v <- mu v + g; p <- p - lr v."""

    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
                self.velocity[name] = v
            v *= self.momentum
            v += g
            p -= self.lr * v


def zero_grads(params):
    return {name: np.zeros_like(p) for name, p in params.items()}
