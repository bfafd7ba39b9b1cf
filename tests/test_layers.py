import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior.layers import (MOMENTUM, ChannelNorm, Conv2d, LeakyReLU, SGDMomentum,
                             on_shards, zero_grads)

from helpers import max_rel_error, numeric_gradient


def conv_scalar(conv, x):
    y, _ = conv.forward(x)
    return float((y ** 3).sum() / 7.0)  # nonlinear readout


def conv_scalar_grad(conv, x):
    y, cache = conv.forward(x)
    dy = 3.0 * y ** 2 / 7.0
    grads = zero_grads(conv.params())
    dx = conv.backward(dy, cache, grads)
    return dx, grads


@pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 1)])
def test_conv_gradients(k, stride):
    rng = np.random.default_rng(0)
    conv = Conv2d("c", k, 3, 4, stride, rng, np.float64)
    x = rng.standard_normal((2, 6, 6, 3))
    dx, grads = conv_scalar_grad(conv, x)
    assert max_rel_error(dx, numeric_gradient(lambda t: conv_scalar(conv, t), x)) < 1e-4
    for pname, arr in ((f"c.W", conv.W), ("c.b", conv.b)):
        def against_param(vals):
            arr[...] = vals
            return conv_scalar(conv, x)
        keep = arr.copy()
        num = numeric_gradient(against_param, keep)
        arr[...] = keep
        assert max_rel_error(grads[pname], num) < 1e-4


def naive_conv(x, W, b, stride, dy):
    """Loop reference: output, input gradient and parameter gradients."""
    k = W.shape[0]
    pad = k // 2
    bsz, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    y = np.empty((bsz, ho, wo, W.shape[3]))
    dxp = np.zeros_like(xp)
    dW = np.zeros_like(W)
    for n in range(bsz):
        for i in range(ho):
            for j in range(wo):
                r, c = i * stride, j * stride
                patch = xp[n, r:r + k, c:c + k]
                y[n, i, j] = b + np.tensordot(patch, W, axes=3)
                dW += patch[..., None] * dy[n, i, j]
                dxp[n, r:r + k, c:c + k] += W @ dy[n, i, j]
    dx = dxp[:, pad:pad + h, pad:pad + w]
    return y, dx, dW, dy.sum(axis=(0, 1, 2))


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    stride = 1 if k == 1 else draw(st.sampled_from([1, 2]))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9).filter(lambda v: v != h))
    return (draw(st.integers(1, 3)), h, w, draw(st.integers(1, 5)),
            draw(st.integers(1, 5)), k, stride, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(conv_cases())
def test_conv_matches_naive_loops(case):
    bsz, h, w, cin, cout, k, stride, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d("c", k, cin, cout, stride, rng, np.float64)
    conv.b[...] = rng.standard_normal(cout)
    x = rng.standard_normal((bsz, h, w, cin))
    y, cache = conv.forward(x)
    dy = rng.standard_normal(y.shape)
    ref_y, ref_dx, ref_dW, ref_db = naive_conv(x, conv.W, conv.b, stride, dy)
    grads = zero_grads(conv.params())
    dx = conv.backward(dy, cache, grads)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(y, ref_y, **tol)
    np.testing.assert_allclose(dx, ref_dx, **tol)
    np.testing.assert_allclose(grads["c.W"], ref_dW, **tol)
    np.testing.assert_allclose(grads["c.b"], ref_db, **tol)
    # without the input gradient, the parameter gradients are unchanged
    _, cache = conv.forward(x)
    only = zero_grads(conv.params())
    assert conv.backward(dy, cache, only, input_grad=False) is None
    for name in grads:
        np.testing.assert_array_equal(only[name], grads[name])


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_reused_buffers_hold_nothing_from_other_sizes(stride):
    """One layer runs batches of different shapes in turn and matches the
    loop reference on each: 6 and 5 px pad to 8 and 7, which round up to
    the same stride-2 size, and 1 x 6 x 6 and 2 x 2 x 6 images pad to the
    same number of pixels."""
    rng = np.random.default_rng(9)
    conv = Conv2d("c", 3, 3, 4, stride, rng, np.float64)
    conv.b[...] = rng.standard_normal(4)
    for shape in ((1, 6, 6), (2, 2, 6), (1, 5, 5), (1, 6, 5), (1, 5, 6), (1, 6, 6)):
        x = rng.standard_normal((*shape, 3))
        y, cache = conv.forward(x)
        dy = rng.standard_normal(y.shape)
        grads = zero_grads(conv.params())
        dx = conv.backward(dy, cache, grads)
        ref = naive_conv(x, conv.W, conv.b, stride, dy)
        for got, want in zip((y, dx, grads["c.W"], grads["c.b"]), ref):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_channel_norm_gradients():
    rng = np.random.default_rng(1)
    norm = ChannelNorm("n", 3, np.float64)
    norm.gamma[...] = rng.uniform(0.5, 1.5, 3)
    norm.beta[...] = rng.standard_normal(3)
    x = rng.standard_normal((2, 4, 4, 3))

    def scalar(t):
        y, _ = norm.forward(t)
        return float((y ** 2).sum() / 3.0)

    y, cache = norm.forward(x)
    grads = zero_grads(norm.params())
    dx = norm.backward(2.0 * y / 3.0, cache, grads)
    # batch statistics couple every element, leaving some near-zero gradient
    # entries where central differences are all rounding noise; a coarser
    # step and floor keep the check meaningful
    num = numeric_gradient(scalar, x, step=1e-4)
    assert max_rel_error(dx, num, floor=1e-3) < 1e-4

    def against_gamma(vals):
        norm.gamma[...] = vals
        y, _ = norm.forward(x)
        return float((y ** 2).sum() / 3.0)

    keep = norm.gamma.copy()
    num = numeric_gradient(against_gamma, keep)
    norm.gamma[...] = keep
    assert max_rel_error(grads["n.gamma"], num) < 1e-4


def test_leaky_relu_backward():
    act = LeakyReLU(0.01)
    x = np.array([[-2.0, 3.0]])
    y, gain = act.forward(x)
    assert np.allclose(y, [[-0.02, 3.0]])
    dx = act.backward(np.ones_like(x), gain, {})
    assert np.allclose(dx, [[0.01, 1.0]])


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_matches_where(slope, dtype):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 5, 4, 2)).astype(dtype)
    x[0, 0, 0] = [0.0, -0.0]
    dy = rng.standard_normal(x.shape).astype(dtype)
    act = LeakyReLU(slope)
    y, gain = act.forward(x)
    dx = act.backward(dy, gain, {})
    assert y.dtype == dtype and dx.dtype == dtype
    assert np.array_equal(y, np.where(x > 0, x, slope * x))
    assert np.array_equal(dx, np.where(x > 0, dy, slope * dy))


def test_sgd_momentum_matches_reference():
    p = {"w": np.array([1.0, 2.0])}
    assert MOMENTUM == 0.9
    opt = SGDMomentum(lr=0.1)
    g1 = {"w": np.array([1.0, -1.0])}
    opt.step(p, g1)
    assert np.allclose(p["w"], [0.9, 2.1])
    opt.step(p, g1)
    # v = 0.9*1 + 1 = 1.9 -> w -= 0.19
    assert np.allclose(p["w"], [0.71, 2.29])


class ShardError(Exception):
    pass


def failing_in(*failing):
    """A shard function that raises in the given shards."""
    def fn(shard):
        if shard in failing:
            raise ShardError(f"shard {shard} failed")
        return shard

    return fn


def worker_ident():
    return on_shards(lambda: threading.get_ident(), [(), ()])[1]


def test_on_shards_raises_shard_1_error():
    with pytest.raises(ShardError, match="shard 1 failed"):
        on_shards(failing_in(1), [(0,), (1,)])


def test_on_shards_raises_shard_0_error_after_shard_1_finishes():
    started, finished = threading.Event(), threading.Event()

    def fn(shard):
        if shard == 0:
            assert started.wait(5.0)
            raise ShardError("shard 0 failed")
        started.set()
        time.sleep(0.05)
        finished.set()
        return shard

    with pytest.raises(ShardError, match="shard 0 failed"):
        on_shards(fn, [(0,), (1,)])
    assert finished.is_set()


def test_on_shards_keeps_its_worker_after_errors():
    worker = worker_ident()
    assert worker != threading.get_ident()
    for failing in ((0,), (1,), (0, 1)):
        with pytest.raises(ShardError):
            on_shards(failing_in(*failing), [(0,), (1,)])
        assert worker_ident() == worker


def cache_arrays(cache):
    return [a for a in cache if isinstance(a, np.ndarray)]


def shares_buffer(cache_a, cache_b):
    return any(np.shares_memory(a, b) for a in cache_arrays(cache_a)
               for b in cache_arrays(cache_b))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_buffers_are_leased_per_thread(stride):
    """Forwards of one shape on one thread reuse the padded-input buffer,
    which spares training a fresh zero-filled buffer per conv and group;
    the shard-1 worker leases its own."""
    rng = np.random.default_rng(5)
    conv = Conv2d("c", 3, 3, 4, stride, rng, np.float32)
    x = rng.standard_normal((2, 7, 6, 3)).astype(np.float32)
    _, first = conv.forward(x)
    _, second = conv.forward(x[::-1].copy())
    assert shares_buffer(first, second)
    (_, caller), (_, worker) = on_shards(conv.forward, [(x,), (x,)])
    assert shares_buffer(caller, first)
    assert not shares_buffer(worker, caller)
