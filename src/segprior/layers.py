"""Convolutional building blocks with explicit backward passes.

Everything runs channel-last on numpy arrays: activations are
(B, H, W, C).  Backward methods return the input gradient and accumulate
parameter gradients into a caller-supplied dict keyed by parameter name.

Every convolution is stride 1 and runs as k*k shifted GEMMs over its
padded input (the kn2row/accumulate family of Anderson et al.,
arXiv:1709.03395).  The input of a k x k conv is zero-padded once by
p = k // 2 pixels and flattened to rows of C channels, one row per padded
pixel, wp = W + 2p pixels to an image row.  Output pixel (n, i, j) is
computed at row r = (n*hp + i)*wp + j of an output grid of the padded
shape, and its tap (ki, kj) reads input row r + ki*wp + kj.  Each tap is
therefore one GEMM over a contiguous range of rows, accumulated into the
output grid, which is cropped to the output size at the end; the backward
pass runs the same k*k row ranges for the weight gradient and scatters the
input gradient into a padded grid, cropped the same way.  A 1x1 conv is
the one-tap case: its input needs no padding, so the input itself is the
rows and the cache, and the conv is a single GEMM over the whole group's
pixels.  No layer downsamples: the model's one factor of 2 is the
space-to-depth rearrangement of its input image (``engine.image_to_input``).

``Shards`` owns the split: a call names a count n, and ``Shards`` cuts
range(n) into two fixed shards of ceil(n/2) and floor(n/2) rows
(``shard_slices``), runs shard 0 in the calling process and shard 1 in one
worker process forked from it.  The worker inherits the caller's data, so
a call sends shard 1 only its rows, the call's small arguments and the
current values of the arrays it keeps in step; each shard has its own
caches and gradient dicts, and the two processes never share a GIL.  In
training a shard runs its items as consecutive groups of at most
``GROUP_ITEMS`` items whose sizes differ by at most one
(``group_slices``), which keeps the activations and caches a group's
backward reads back small enough to come from cache (cache blocking in the
sense of Goto & van de Geijn, ACM TOMS 2008).  Each group runs its
forward, its loss terms (with whole-batch normalisers) and its backward,
accumulating into the shard's gradients, and its backward ends before the
next group's forward begins.  The caller sums the shard gradients in shard
order.  Evaluation splits the whole sample list the same way and each
shard runs its images one at a time.  A count of one or none runs inline
and forks nothing.  The split and the groups never depend on the host's
core count or cache size, so results are the same on every machine.

Layers keep no work buffers: every forward allocates its own arrays, so
the cache it returns belongs to its caller and stays valid for as long as
the caller keeps it.  A backward may overwrite the dy it is given, and
may return that buffer as dx (``ChannelNorm`` does); a caller passes a dy
it no longer needs, and so does ``Chain.backward``.  ``Chain.backward``
empties the cache list it is given, freeing each layer's cache once that
layer's backward has run, and ``Chain.infer`` keeps no cache at all.  A
cache holds only what the backward reads: a LeakyReLU's is the 1-byte
mask x > 0, not its float input, and ``Chain.infer`` does not compute it;
a NaN input then gets the gain slope in the backward, not a NaN
(``LeakyReLU``).  The worker inherits its parent's malloc settings:
under ``segprior.cli``, which fixes glibc's trim and mmap thresholds,
freed arrays stay in both processes' heaps for the next call; code that
imports this module without the CLI keeps glibc's defaults, and each call
faults its arrays' pages in again.
"""

from __future__ import annotations

import mmap
import multiprocessing
import traceback

import numpy as np

# fork, not spawn: shard 1's worker must inherit the caller's data and
# model instead of receiving them.  The processes that fork it run one
# Python thread, and OpenBLAS re-creates its own threads in the child.
_FORK = multiprocessing.get_context("fork")


def shard_slices(b):
    """The fixed shards of a batch of b items: one slice if b <= 1, else two."""
    half = (b + 1) // 2
    return [slice(0, b)] if b <= 1 else [slice(0, half), slice(half, b)]


# training items per group within a shard.  A 12-item shard of 64 px
# images holds about 10 MB of activations and caches, far beyond a 2 MB
# per-core L2 cache; on 2 vCPUs groups of 3 or 4 trained a step fastest,
# groups of 2, 6 and 12 slower.  A constant, not a setting, so results are
# the same on every host.
GROUP_ITEMS = 4


def group_slices(rows):
    """Consecutive groups covering the slice rows: at most GROUP_ITEMS
    items each, sizes differing by at most one, the larger groups first."""
    n = rows.stop - rows.start
    k = max(1, -(-n // GROUP_ITEMS))
    size, extra = divmod(n, k)
    starts = [rows.start + g * size + min(g, extra) for g in range(k + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


class Shards:
    """fn run on the two shards of range(n): shard 0 in this process and
    shard 1 in a worker process forked from it.

    Calling it as shards(n, *args) cuts range(n) with ``shard_slices`` and
    returns fn(rows, *args) for each shard's slice rows, in shard order;
    with n <= 1 there is one shard, and fn runs here alone.  The worker
    is forked on the first call with two shards and inherits everything
    fn reads as it is at that moment.  Each call sends it only shard 1's
    rows and args, which must pickle, and the current values of the arrays
    in sync (name -> array), which it copies into its own arrays of those
    names before it runs fn.  Its result, or the exception it raised, comes
    back pickled.  A shard may instead write its output into an array
    allocated by ``shared_array`` before the fork and return nothing: the
    worker's writes land in this process's array, and nothing large crosses
    the pipe.  If shard 0 raises, the call waits for shard 1 and raises
    shard 0's error.

    Use it as a context manager: leaving it closes the pipe, on which the
    worker exits, and joins the worker.  The worker also exits when this
    process dies.  A worker that dies without replying, or whose reply
    cannot be pickled, raises RuntimeError here with its exit code.
    """

    def __init__(self, fn, sync=None):
        self.fn = fn
        self.sync = {} if sync is None else sync
        self._conn = self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._proc is not None:
            self._conn.close()
            self._proc.join()
            self._conn = self._proc = None

    def __call__(self, n, *args):
        rows = shard_slices(n)
        if len(rows) == 1:
            return [self.fn(rows[0], *args)]
        if self._proc is None:
            self._conn, child = _FORK.Pipe()
            self._proc = _FORK.Process(target=_serve, name="segprior-shard1",
                                       args=(child, self._conn, self.fn, self.sync),
                                       daemon=True)
            self._proc.start()
            child.close()
        try:
            self._conn.send(((rows[1],) + args, self.sync))
        except OSError:
            self._lost()
        try:
            first = self.fn(rows[0], *args)
        except BaseException:
            try:
                self._reply()
            except Exception:
                pass    # shard 0's error is the one raised
            raise
        return [first, self._reply()]

    def _reply(self):
        try:
            error, value = self._conn.recv()
        except EOFError:
            self._lost()
        if error is None:
            return value
        exc, trace = error
        raise exc from RuntimeError(f"in shard 1's worker process:\n{trace}")

    def _lost(self):
        self._conn.close()
        self._proc.join()
        code = self._proc.exitcode
        self._conn = self._proc = None
        raise RuntimeError(f"shard 1's worker process exited with code {code} "
                           "without replying")


def shared_array(shape, dtype):
    """A zeroed array in an anonymous shared mapping.

    Allocated before ``Shards`` forks its worker, it is the same memory in
    both processes, so rows the worker writes are the caller's rows, with
    no copy and no pickling.
    """
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, size * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype, count=size).reshape(shape)


def _serve(conn, parent_end, fn, sync):
    """Shard 1's worker: run fn for each message until the pipe closes."""
    # the fork copied the parent's end too; with it open here, the worker
    # would never see the pipe close
    parent_end.close()
    while True:
        try:
            args, values = conn.recv()
        except EOFError:
            return
        try:
            for name, value in values.items():
                sync[name][...] = value
            reply = (None, fn(*args))
        except Exception as exc:
            reply = ((exc, traceback.format_exc()), None)
        conn.send(reply)


class Conv2d:
    """k x k convolution (k in {1, 3}) at stride 1, with k // 2 pixels of
    zero padding, so the output has the input's height and width.

    The weights start He-normal from rng, or at zero when rng is None.  A
    conv built with bias=False has no bias b (it is None): no ``.b``
    parameter, no bias add and no bias gradient.  That is the conv to put
    before a ChannelNorm, whose mean subtraction cancels any per-channel
    bias, so such a bias would get a gradient of zero (Ioffe & Szegedy,
    arXiv:1502.03167, section 3.2).  Any other conv has a bias, starting
    at zero.  The forward pads its input once and runs k * k shifted
    GEMMs over its rows; a 1x1 conv reads the input itself.  A forward
    keeps nothing in the layer: its cache belongs to its caller, and later
    forwards of the same layer leave it intact.
    """

    def __init__(self, name, k, cin, cout, rng, dtype, bias=True):
        if k not in (1, 3):
            raise ValueError("only 1x1 and 3x3 convolutions are supported")
        self.name = name
        self.k = k
        shape = (k, k, cin, cout)
        if rng is None:
            self.W = np.zeros(shape, dtype)
        else:
            std = np.sqrt(2.0 / (k * k * cin))
            self.W = (rng.standard_normal(shape) * std).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype) if bias else None

    def params(self):
        if self.b is None:
            return {f"{self.name}.W": self.W}
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def forward(self, x):
        b, h, w, cin = x.shape
        cout = self.W.shape[3]
        k = self.k
        p = k // 2
        hp, wp = h + 2 * p, w + 2 * p
        xp = x
        if p:
            xp = np.zeros((b, hp, wp, cin), x.dtype)
            xp[:, p:h + p, p:w + p] = x
        n = b * hp * wp
        span = n - 2 * p * (wp + 1)    # rows up to the last output pixel
        rows = xp.reshape(n, cin)
        # output pixel (n, i, j) is row r = (n*hp + i)*wp + j, and its tap
        # (ki, kj) reads input row r + ki*wp + kj
        taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]
        out = np.empty((n, cout), x.dtype)
        np.matmul(rows[:span], self.W[0, 0], out=out[:span])
        for ki, kj, shift in taps[1:]:
            out[:span] += rows[shift:shift + span] @ self.W[ki, kj]
        y = out.reshape(b, hp, wp, cout)[:, :h, :w]
        if self.b is not None:
            y = y + self.b
        return y, (xp, span)

    def backward(self, dy, cache, grads, input_grad=True):
        """Accumulate parameter gradients; return dx, or None if not input_grad."""
        cout = self.W.shape[3]
        xp, span = cache
        b, hp, wp, cin = xp.shape
        _, h, w, _ = dy.shape
        n = b * hp * wp
        k = self.k
        taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]
        # dy on the padded grid; the rest of the grid must be zero to add
        # nothing below
        dgrid = np.empty((b, hp, wp, cout), xp.dtype)
        dgrid[:, :h, :w] = dy
        dgrid[:, h:] = dgrid[:, :, w:] = 0
        d = dgrid.reshape(n, cout)[:span]
        rows = xp.reshape(n, cin)
        dW = grads[f"{self.name}.W"]
        for ki, kj, shift in taps:
            dW[ki, kj] += rows[shift:shift + span].T @ d
        if self.b is not None:
            # column sums as a GEMV; axis-0 reduction in numpy is far slower
            ones = np.ones(span, d.dtype)
            grads[f"{self.name}.b"] += ones @ d
        if not input_grad:
            return None
        # the first tap has no shift: it writes the first span rows, the
        # others add
        dxp = np.empty((n, cin), d.dtype)
        dxp[span:] = 0
        np.matmul(d, self.W[0, 0].T, out=dxp[:span])
        for ki, kj, shift in taps[1:]:
            dxp[shift:shift + span] += d @ self.W[ki, kj].T
        p = k // 2
        return dxp.reshape(b, hp, wp, cin)[:, p:h + p, p:w + p]


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
        """dx, written into dy's own buffer and returned: one temporary of
        dy's size, not three (the in-place backward of In-Place ABN, Rota
        Bulo et al., arXiv:1712.02616)."""
        xhat, inv_std = cache
        b, h, w, c = xhat.shape
        n = h * w
        ones = np.ones(n, dy.dtype)
        # per-sample sums of dy and dy * xhat: their batch totals are the
        # parameter gradients, and times gamma they are the sums of dxhat
        # and dxhat * xhat in the input gradient
        #   dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        sum_dy = ones @ dy.reshape(b, n, c)
        shift = dy * xhat
        sum_dyx = ones @ shift.reshape(b, n, c)
        grads[f"{self.name}.gamma"] += sum_dyx.sum(axis=0)
        grads[f"{self.name}.beta"] += sum_dy.sum(axis=0)
        scale = self.gamma * inv_std
        np.multiply(xhat, (scale * sum_dyx / n)[:, None, None, :], out=shift)
        shift += (scale * sum_dy / n)[:, None, None, :]
        dy *= scale[:, None, None, :]
        dy -= shift
        return dy


class LeakyReLU:
    """x for x > 0, slope * x otherwise, for a slope in [0, 1).

    The forward is max(x, slope * x); at slope 0 it maps +inf to NaN, as
    slope * inf is.  It caches only the bool mask x > 0, a quarter of a
    float32 x (the 1-byte ReLU mask of In-Place ABN, Rota Bulo et al.,
    arXiv:1712.02616, and ActNN, Chen et al., arXiv:2104.14129), or nothing
    when cache is False.  The backward multiplies dy by the gain
    g = max(mask, slope) in dy's dtype: 1 where x > 0 and slope elsewhere.
    That is max(sign(x), slope) for every x but NaN, which gets gain slope,
    not a NaN gradient; the forward's output is NaN there, so the loss is
    not finite and training stops before the step.
    """

    def __init__(self, slope):
        self.slope = slope

    def params(self):
        return {}

    def forward(self, x, cache=True):
        return np.maximum(x, self.slope * x), (x > 0 if cache else None)

    def backward(self, dy, mask, grads):
        g = mask.astype(dy.dtype)
        np.maximum(g, self.slope, out=g)
        g *= dy
        return g


class Chain:
    """Layers run in order; backward runs them in reverse.

    Every layer has params(), forward(x) -> (y, cache) and
    backward(dy, cache, grads) -> dx.  The first layer is a Conv2d, and
    input_grad says whether its backward computes the chain's input
    gradient.
    """

    def __init__(self, layers, input_grad=True):
        self.layers = layers
        self.input_grad = input_grad

    def params(self):
        return {name: p for layer in self.layers for name, p in layer.params().items()}

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def infer(self, x):
        """The forward's output alone; each layer's cache is dropped as
        soon as the next layer has run, so no backward can follow.  A
        LeakyReLU computes no mask."""
        for layer in self.layers:
            if isinstance(layer, LeakyReLU):
                x, _ = layer.forward(x, cache=False)
            else:
                x, _ = layer.forward(x)
        return x

    def backward(self, dy, caches, grads):
        """Accumulate parameter gradients; return the input gradient or None.

        caches is the list forward returned, and backward empties it: each
        layer's cache is released as soon as that layer's backward has run.
        dy may be overwritten, and so may each gradient a layer hands the
        next.
        """
        for layer in self.layers[:0:-1]:
            dy = layer.backward(dy, caches.pop(), grads)
        return self.layers[0].backward(dy, caches.pop(), grads, self.input_grad)


MOMENTUM = 0.9


class SGDMomentum:
    """Classic momentum: v <- mu v + g; p <- p - lr v, with mu = MOMENTUM."""

    def __init__(self, lr):
        self.lr = lr
        self.velocity = {}

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
                self.velocity[name] = v
            v *= MOMENTUM
            v += g
            p -= self.lr * v


def zero_grads(params):
    return {name: np.zeros_like(p) for name, p in params.items()}
