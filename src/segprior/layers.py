"""Convolutional building blocks with explicit backward passes.

Everything runs channel-last on numpy arrays: activations are
(B, H, W, C).  Backward methods return the input gradient and accumulate
parameter gradients into a caller-supplied dict keyed by parameter name.

3x3 convolutions are shifted GEMMs (the kn2row/accumulate family of
Anderson et al., arXiv:1709.03395) over phase grids.  The input is
zero-padded by one pixel, rounded up to a multiple of the stride s, and
split into its s x s phase grids: phase (pi, pj) holds the padded pixels
(s*i + pi, s*j + pj) at grid position (i, j), the polyphase split behind
sub-pixel convolution (Shi et al., arXiv:1609.05158).  Each grid is
flattened to rows of C channels, one row per grid pixel, and is wq pixels
wide.  Output pixel (n, i, j) is computed at row r = (n*hq + i)*wq + j of
a grid of the same shape, and its tap (ki, kj) reads row
r + (ki // s)*wq + kj // s of phase (ki % s, kj % s).  Each tap is
therefore one GEMM over a contiguous range of rows, accumulated into an
output grid that is cropped to the output size at the end; the backward
pass runs the same nine row ranges for the weight gradient and scatters
the input gradient into the phase grids, which interleave back into the
padded image.  At s = 1 there is one phase, the padded input itself.  1x1
convolutions are one matrix product per image.

Every batch is split along axis 0 into two fixed shards of ceil(B/2) and
floor(B/2) items (``shard_slices``).  ``Shards`` runs shard 0 in the
calling process and shard 1 in one worker process forked from it, which
inherits the caller's data, so a call sends shard 1 only its small
arguments and the current values of the arrays it keeps in step; each
shard has its own caches and gradient dicts, and the two processes never
share a GIL.  In training a shard runs its items as
consecutive groups of at most ``GROUP_ITEMS`` items whose sizes differ by
at most one (``group_slices``), which keeps the activations and caches a
group's backward reads back small enough to come from cache (cache
blocking in the sense of Goto & van de Geijn, ACM TOMS 2008).  Each group
runs its forward, its loss terms (with whole-batch normalisers) and its
backward, accumulating into the shard's gradients, and its backward ends
before the next group's forward begins.  The caller sums the shard
gradients in shard order.  Evaluation splits the whole sample list the
same way and each shard runs its images one at a time.  A batch of one
runs inline.  The split and the groups never depend on the host's core
count or cache size, so results are the same on every machine.

Cache contract: layers reuse their work buffers across calls, so the
cache a forward returns is valid until the next forward of the same layer
in the same process.  Each process runs one Python thread, and a shard's
forward and backward run in the same process.  ``Chain.backward`` empties
the cache list it is given, freeing each layer's cache once that layer's
backward has run, and ``Chain.infer`` keeps no cache at all.
"""

from __future__ import annotations

import multiprocessing
import traceback

import numpy as np

# fork, not spawn: shard 1's worker must inherit the caller's data and
# model instead of receiving them.  The processes that fork it run one
# Python thread, and OpenBLAS re-creates its own threads in the child.
_FORK = multiprocessing.get_context("fork")


def shard_slices(b):
    """The fixed shards of a batch of b items: one slice if b == 1, else two."""
    half = (b + 1) // 2
    return [slice(0, b)] if b == 1 else [slice(0, half), slice(half, b)]


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
    """fn run on the two shards of a batch: shard 0 in this process and
    shard 1 in a worker process forked from it.

    Calling it with one argument tuple per shard returns fn(*args) for
    each, in shard order; with one tuple, fn runs here alone.  The worker
    is forked on the first call with two shards and inherits everything
    fn reads as it is at that moment.  Each call sends it only shard 1's
    arguments, which must pickle, and the current values of the arrays in
    sync (name -> array), which it copies into its own arrays of those
    names before it runs fn.  Its result, or the exception it raised, comes
    back pickled.  If shard 0 raises, the call waits for shard 1 and
    raises shard 0's error.

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

    def __call__(self, shard_args):
        if len(shard_args) == 1:
            return [self.fn(*shard_args[0])]
        if self._proc is None:
            self._conn, child = _FORK.Pipe()
            self._proc = _FORK.Process(target=_serve, name="segprior-shard1",
                                       args=(child, self._conn, self.fn, self.sync),
                                       daemon=True)
            self._proc.start()
            child.close()
        try:
            self._conn.send((shard_args[1], self.sync))
        except OSError:
            self._lost()
        try:
            first = self.fn(*shard_args[0])
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


def _tap_rows(stride, wq):
    """(ki, kj, phase, row shift) of each 3x3 tap in raster order, on phase
    grids of width wq."""
    return [(ki, kj, (ki % stride) * stride + kj % stride, (ki // stride) * wq + kj // stride)
            for ki in range(3) for kj in range(3)]


class Conv2d:
    """k x k convolution (k in {1, 3}), stride 1 or 2, zero padding for k=3.

    Work buffers are leased per layer and reused across batches; a
    forward's cache is only valid until the next forward of the same
    layer.
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
        s = self.stride
        hq, wq = -(-(h + 2) // s), -(-(w + 2) // s)
        n = b * hq * wq
        span = n - (2 // s) * (wq + 1)    # rows up to the last output pixel
        # Image row r is padded row r + 1: phase (r + 1) % s, grid row
        # (r + 1) // s.  The top and left padding is zeroed on creation and
        # never written.  The bottom and right padding is zeroed on every
        # call: at s = 2, 63 and 64 px pad to grids of one size, so the
        # grids may hold the last row or column of a larger image.
        grids = self._lease("xq", (s, s, b, hq, wq, cin), x.dtype, fill=0)
        for pi in range(s):
            for pj in range(s):
                r, c = (pi - 1) % s, (pj - 1) % s    # first image row and column
                part = x[:, r::s, c::s]
                i, j = (r + 1) // s, (c + 1) // s
                g = grids[pi, pj]
                g[:, i:i + part.shape[1], j:j + part.shape[2]] = part
                g[:, i + part.shape[1]:] = g[:, :, j + part.shape[2]:] = 0
        rows = grids.reshape(s * s, n, cin)
        out = np.empty((n, cout), x.dtype)
        np.matmul(rows[0, :span], self.W[0, 0], out=out[:span])
        for ki, kj, p, shift in _tap_rows(s, wq)[1:]:
            out[:span] += rows[p, shift:shift + span] @ self.W[ki, kj]
        ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
        y = out.reshape(b, hq, wq, cout)[:, :ho, :wo] + self.b
        return y, (grids, h, w, span)

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
        grids, h, w, span = cache
        s, _, b, hq, wq, cin = grids.shape
        n = b * hq * wq
        taps = _tap_rows(s, wq)
        # dy on the output grid; the rest of the grid must be zero to add
        # nothing below.  A new array, not a leased one, so that only the
        # running layer's grid is alive during a backward.
        dgrid = np.empty((b, hq, wq, cout), grids.dtype)
        dgrid[:, :dy.shape[1], :dy.shape[2]] = dy
        dgrid[:, dy.shape[1]:] = dgrid[:, :, dy.shape[2]:] = 0
        d = dgrid.reshape(n, cout)[:span]
        rows = grids.reshape(s * s, n, cin)
        dW = grads[f"{self.name}.W"]
        for ki, kj, p, shift in taps:
            dW[ki, kj] += rows[p, shift:shift + span].T @ d
        # column sums as a GEMV; axis-0 reduction in numpy is far slower
        ones = self._lease("ones", (span,), d.dtype, fill=1)
        grads[f"{self.name}.b"] += ones @ d
        if not input_grad:
            return None
        # the first tap of each phase in raster order is the one with no
        # shift; it writes the phase's first span rows, the others add
        dq = np.empty((s * s, n, cin), d.dtype)
        dq[:, span:] = 0
        for ki, kj, p, shift in taps:
            if shift:
                dq[p, shift:shift + span] += d @ self.W[ki, kj].T
            else:
                np.matmul(d, self.W[ki, kj].T, out=dq[p, :span])
        # interleave the phases back into the padded image (a view at s = 1)
        dxp = dq.reshape(s, s, b, hq, wq, cin).transpose(2, 3, 0, 4, 1, 5)
        return dxp.reshape(b, s * hq, s * wq, cin)[:, 1:h + 1, 1:w + 1]


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

    def params(self):
        return {}

    def forward(self, x):
        g = np.sign(x)
        np.maximum(g, self.slope, out=g)
        return x * g, g

    def backward(self, dy, g, grads):
        return dy * g


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
        soon as the next layer has run, so no backward can follow."""
        for layer in self.layers:
            x, _ = layer.forward(x)
        return x

    def backward(self, dy, caches, grads):
        """Accumulate parameter gradients; return the input gradient or None.

        caches is the list forward returned, and backward empties it: each
        layer's cache is released as soon as that layer's backward has run.
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
