import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import engine
from segprior.engine import image_to_input
from segprior.layers import (MOMENTUM, Chain, ChannelNorm, Conv2d, LeakyReLU,
                             SGDMomentum, Shards, shard_slices, zero_grads)

from helpers import (max_rel_error, no_child_process, norm_backward_reference,
                     numeric_gradient, unique_nbytes)


def conv_scalar(conv, x):
    y, _ = conv.forward(x)
    return float((y ** 3).sum() / 7.0)  # nonlinear readout


def conv_scalar_grad(conv, x):
    y, cache = conv.forward(x)
    dy = 3.0 * y ** 2 / 7.0
    grads = zero_grads(conv.params())
    dx = conv.backward(dy, cache, grads)
    return dx, grads


@pytest.mark.parametrize("k", [3, 1])
def test_conv_gradients(k):
    rng = np.random.default_rng(0)
    conv = Conv2d("c", k, 3, 4, rng, np.float64)
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
    """Loop reference: output, input gradient and parameter gradients.

    Conv2d is stride 1; stride 2 is the reference for the space-to-depth
    stem (``test_space_to_depth_stem_contains_the_stride_2_conv``)."""
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
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9).filter(lambda v: v != h))
    return (draw(st.integers(1, 3)), h, w, draw(st.integers(1, 5)),
            draw(st.integers(1, 5)), k, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(conv_cases())
def test_conv_matches_naive_loops(case):
    """Against the loop reference, with a random bias or, built with
    bias=False, none: then the reference's bias is zero and the conv has
    no bias parameter or gradient."""
    bsz, h, w, cin, cout, k, bias, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d("c", k, cin, cout, rng, np.float64, bias=bias)
    ref_b = rng.standard_normal(cout) if bias else np.zeros(cout)
    if bias:
        conv.b[...] = ref_b
    else:
        assert conv.b is None
    x = rng.standard_normal((bsz, h, w, cin))
    y, cache = conv.forward(x)
    # a 1x1 conv needs no padding: its cache is its input, not a copy
    assert (cache[0] is x) == (k == 1)
    dy = rng.standard_normal(y.shape)
    ref_y, ref_dx, ref_dW, ref_db = naive_conv(x, conv.W, ref_b, 1, dy)
    grads = zero_grads(conv.params())
    dx = conv.backward(dy, cache, grads)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(y, ref_y, **tol)
    np.testing.assert_allclose(dx, ref_dx, **tol)
    np.testing.assert_allclose(grads["c.W"], ref_dW, **tol)
    if bias:
        np.testing.assert_allclose(grads["c.b"], ref_db, **tol)
    else:
        assert grads.keys() == {"c.W"}
    # without the input gradient, the parameter gradients are unchanged
    _, cache = conv.forward(x)
    only = zero_grads(conv.params())
    assert conv.backward(dy, cache, only, input_grad=False) is None
    for name in grads:
        np.testing.assert_array_equal(only[name], grads[name])


def test_conv_reused_buffers_hold_nothing_from_other_sizes():
    """One layer runs batches of different shapes in turn and matches the
    loop reference on each: 1 x 6 x 6 and 2 x 2 x 6 images pad to the
    same number of pixels, and 6 and 5 px rows to 8 and 7.  The heap hands
    a freed padded input's memory to the next call as it was, so every
    call must zero all of its padding."""
    rng = np.random.default_rng(9)
    conv = Conv2d("c", 3, 3, 4, rng, np.float64)
    conv.b[...] = rng.standard_normal(4)
    for shape in ((1, 6, 6), (2, 2, 6), (1, 5, 5), (1, 6, 5), (1, 5, 6), (1, 6, 6)):
        x = rng.standard_normal((*shape, 3))
        y, cache = conv.forward(x)
        dy = rng.standard_normal(y.shape)
        grads = zero_grads(conv.params())
        dx = conv.backward(dy, cache, grads)
        ref = naive_conv(x, conv.W, conv.b, 1, dy)
        for got, want in zip((y, dx, grads["c.W"], grads["c.b"]), ref):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("k", [1, 3])
def test_conv_cache_outlives_the_next_forward(k):
    """A forward's cache belongs to its caller: a second forward of the
    same shape leaves it as it was, and a backward on it gives what the
    first input gives run alone."""
    rng = np.random.default_rng(5)
    conv = Conv2d("c", k, 3, 4, rng, np.float64)
    conv.b[...] = rng.standard_normal(4)
    a, b = rng.standard_normal((2, 2, 7, 6, 3))
    y, cache = conv.forward(a)
    dy = rng.standard_normal(y.shape)
    alone = zero_grads(conv.params())
    dx_alone = conv.backward(dy, cache, alone)
    _, cache = conv.forward(a)
    conv.forward(b)
    grads = zero_grads(conv.params())
    dx = conv.backward(dy, cache, grads)
    np.testing.assert_array_equal(dx, dx_alone)
    for name in grads:
        np.testing.assert_array_equal(grads[name], alone[name])


def test_conv_rejects_unsupported_shapes():
    """Only 1x1 and 3x3 kernels exist."""
    for k in (2, 5):
        with pytest.raises(ValueError):
            Conv2d("c", k, 3, 4, np.random.default_rng(0), np.float64)


def stem_kernel(W3):
    """The (3, 3, 12, c) kernel of a 3x3 conv on space-to-depth input that
    computes the stride-2 3x3 conv W3 (3, 3, 3, c) on the image.  Its tap
    (a, b) reads input pixel (i + a - 1, j + b - 1), whose sub-pixel
    (di, dj) is image pixel (2i + 2a + di - 2, 2j + 2b + dj - 2); the
    stride-2 tap ki reads image row 2i + ki - 1, so ki = 2a + di - 1, and
    sub-pixels with ki or kj outside [0, 2] get zero weight."""
    W = np.zeros((3, 3, 12, W3.shape[3]), W3.dtype)
    for a, di, b, dj in np.ndindex(3, 2, 3, 2):
        ki, kj = 2 * a + di - 1, 2 * b + dj - 1
        if 0 <= ki <= 2 and 0 <= kj <= 2:
            W[a, b, (2 * di + dj) * 3:(2 * di + dj + 1) * 3] = W3[ki, kj]
    return W


@pytest.mark.parametrize("h,w", [(8, 6), (7, 9)])
def test_space_to_depth_stem_contains_the_stride_2_conv(h, w):
    """enc.0 on image_to_input's space-to-depth input sees a 6 x 6 pixel
    window that contains a stride-2 3x3 conv's window: with the stride-2
    kernel placed in it (``stem_kernel``), its output equals the stride-2
    conv of the centred image, at an even and an odd size, and its weight
    gradient holds the stride-2 conv's at the placed entries."""
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, (2, h, w, 3), dtype=np.uint8)
    W3 = rng.standard_normal((3, 3, 3, 5))
    bias = rng.standard_normal(5)
    conv = Conv2d("c", 3, 12, 5, rng, np.float64)
    conv.W[...] = stem_kernel(W3)
    conv.b[...] = bias
    y, cache = conv.forward(image_to_input(images, np.float64))
    dy = rng.standard_normal(y.shape)
    ref_y, _, ref_dW, ref_db = naive_conv(images / 255.0 - 0.5, W3, bias, 2, dy)
    grads = zero_grads(conv.params())
    conv.backward(dy, cache, grads, input_grad=False)
    tol = dict(rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(y, ref_y, **tol)
    np.testing.assert_allclose(grads["c.b"], ref_db, **tol)
    # each stride-2 weight's flat index + 1, at the stem entry it is placed in
    placed = stem_kernel(np.arange(1, 3 * 3 * 3 * 5 + 1).reshape(3, 3, 3, 5))
    np.testing.assert_allclose(grads["c.W"][placed > 0], ref_dW.ravel()[placed[placed > 0] - 1],
                               **tol)


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


@pytest.mark.parametrize("view", ["contiguous", "cropped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_norm_backward_writes_dx_into_dy(dtype, view):
    """The backward returns the dy it was given, holding dx, and its dx and
    parameter gradients equal the out-of-place formula bit for bit, also
    for a dy cropped from a padded grid, as a conv's backward returns it."""
    rng = np.random.default_rng(5)
    norm = ChannelNorm("n", 6, dtype)
    norm.gamma[...] = rng.uniform(0.5, 1.5, 6)
    norm.beta[...] = rng.standard_normal(6)
    y, cache = norm.forward(rng.standard_normal((3, 7, 5, 6)).astype(dtype))
    grid = rng.standard_normal((3, 9, 7, 6)).astype(dtype)
    dy = grid[:, 1:8, 1:6] if view == "cropped" else grid[:, 1:8, 1:6].copy()
    want_grads, grads = zero_grads(norm.params()), zero_grads(norm.params())
    want = norm_backward_reference(norm, dy.copy(), cache, want_grads)
    dx = norm.backward(dy, cache, grads)
    assert dx is dy
    assert dx.dtype == want.dtype == dtype
    assert np.array_equal(dx, want)
    for name in want_grads:
        assert grads[name].dtype == dtype
        assert np.array_equal(grads[name], want_grads[name]), name


def test_base_group_peak_memory():
    """One base training group's traced peak stays below its forward
    caches plus 3.75 feature arrays of the group.  It reads 3.48; with
    ChannelNorm's backward out of place it read 4.30."""
    model = engine.SegModel.init(("bkg", "a", "b", "c", "d"), seed=0)
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (4, 64, 64, 3), dtype=np.uint8)
    labels = rng.integers(0, 5, (4, 32, 32), dtype=np.uint8)
    eye = np.eye(5, dtype=np.float32)
    idx = np.arange(4)
    feat, enc_cache = model.encoder.forward(image_to_input(images, model.dtype))
    _, head_cache = model.head.forward(feat)
    caches = unique_nbytes([enc_cache, head_cache])
    bound = caches + 3.75 * feat.nbytes
    del feat, enc_cache, head_cache
    g = zero_grads(model.params())
    tracemalloc.start()
    try:
        engine._base_group(model, images, labels, eye, 0, idx, slice(0, 4), g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak - caches) / (bound - caches) * 3.75


def test_leaky_relu_backward():
    act = LeakyReLU(0.01)
    x = np.array([[-2.0, 3.0]])
    y, cache = act.forward(x)
    assert np.allclose(y, [[-0.02, 3.0]])
    dx = act.backward(np.ones_like(x), cache, {})
    assert np.allclose(dx, [[0.01, 1.0]])


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_matches_where(slope, dtype):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 5, 4, 2)).astype(dtype)
    x[0, 0, 0] = [0.0, -0.0]
    x[0, 0, 1] = [np.inf, -np.inf]
    dy = rng.standard_normal(x.shape).astype(dtype)
    act = LeakyReLU(slope)
    with np.errstate(invalid="ignore"):
        y, cache = act.forward(x)
        scaled = slope * x
    want = np.where(x > 0, x, scaled)
    if slope == 0:
        # slope * x is NaN at +-inf, and max(x, slope * x) takes it at +inf
        want = np.where(x == np.inf, scaled, want)
    dx = act.backward(dy, cache, {})
    assert y.dtype == dtype and dx.dtype == dtype
    assert np.array_equal(y, want, equal_nan=True)
    assert np.array_equal(np.signbit(y), np.signbit(want))
    assert np.array_equal(dx, np.where(x > 0, dy, slope * dy))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_caches_a_bool_mask(dtype):
    """The forward caches the bool mask x > 0, of x's shape, and nothing
    when cache is False.  The backward keeps dy's dtype and equals
    max(sign(x), slope) * dy bit for bit for every x but NaN, where the
    gain is slope."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
    x[0, 0, 0] = [0.0, -0.0, np.inf, -np.inf]
    x[1, 2, 4, 3] = np.nan
    dy = rng.standard_normal(x.shape).astype(dtype)
    act = LeakyReLU(0.01)
    with np.errstate(invalid="ignore"):
        y, mask = act.forward(x)
        y_nocache, none = act.forward(x, cache=False)
    assert mask.dtype == np.bool_ and mask.shape == x.shape
    assert np.array_equal(mask, x > 0)
    assert none is None and np.array_equal(y_nocache, y, equal_nan=True)
    dx = act.backward(dy, mask, {})
    assert dx.dtype == dtype
    gain = np.sign(x)
    np.maximum(gain, 0.01, out=gain)
    want = dy * gain
    nan = np.isnan(x)
    assert np.array_equal(dx[~nan], want[~nan])
    assert np.isnan(want[nan]).all()
    assert np.array_equal(dx[nan], dy[nan] * dtype(0.01))


def test_chain_infer_computes_no_mask():
    """Chain.infer runs a LeakyReLU without its mask."""
    rng = np.random.default_rng(5)
    act = LeakyReLU(0.01)
    masks, real = [], act.forward

    def spy(x, **kwargs):
        y, mask = real(x, **kwargs)
        masks.append(mask)
        return y, mask

    act.forward = spy
    chain = Chain([Conv2d("a", 3, 3, 4, rng, np.float32), act])
    x = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
    y = chain.infer(x)
    assert masks == [None]
    assert np.array_equal(y, chain.forward(x)[0])
    assert masks[1].dtype == np.bool_


def test_chain_infer_and_backward_free_caches():
    """infer returns the forward's output bit for bit without keeping a
    cache, and backward empties the forward's cache list as it goes: when
    a layer's backward runs, its own cache and those of the layers after
    it are gone."""
    rng = np.random.default_rng(3)
    layers = [Conv2d("a", 3, 3, 4, rng, np.float64), ChannelNorm("n", 4, np.float64),
              LeakyReLU(0.01), Conv2d("b", 1, 4, 2, rng, np.float64)]
    chain = Chain(layers)
    x = rng.standard_normal((2, 7, 7, 3))
    inferred = chain.infer(x)
    y, caches = chain.forward(x)
    assert np.array_equal(inferred, y)
    left = []
    for layer in layers:
        def spy(*args, real=layer.backward):
            left.append(len(caches))
            return real(*args)
        layer.backward = spy
    dx = chain.backward(np.ones_like(y), caches, zero_grads(chain.params()))
    assert left == [3, 2, 1, 0] and caches == [] and dx.shape == x.shape


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


class Unpicklable(Exception):
    """An exception whose instances cannot be pickled."""

    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def whoami(rows, base=0):
    """The shard's number, base plus its first row (a two-row call cuts
    rows 0 and 1), and the process it ran in."""
    return base + rows.start, os.getpid()


def failing_in(*failing):
    """A shard function that raises in the given shards."""
    def fn(rows, base=0):
        shard = base + rows.start
        if shard in failing:
            raise ShardError(f"shard {shard} failed")
        return whoami(rows, base)

    return fn


@pytest.fixture(autouse=True)
def no_worker_left():
    """Every test here must leave no worker process behind, running or
    unreaped."""
    yield
    assert no_child_process()


def test_shards_run_here_and_in_one_worker():
    """Shard 0 in this process, shard 1 in one forked worker for every
    call, and a one-shard call runs here alone."""
    with Shards(whoami) as shards:
        seen = [shards(2) for _ in range(5)]
        assert shards(1) == [(0, os.getpid())]
    assert {first for first, _ in seen} == {(0, os.getpid())}
    workers = {second for _, second in seen}
    assert len(workers) == 1
    (shard, pid), = workers
    assert shard == 1 and pid != os.getpid()


def test_one_shard_forks_no_worker():
    """A count of one or none runs here alone, on all of range(n)."""
    with Shards(lambda rows, tag: (rows, tag)) as shards:
        assert shards(1, "a") == [(slice(0, 1), "a")]
        assert shards(0, "b") == [(slice(0, 0), "b")]
        assert no_child_process()
        assert shards._pid is None


@pytest.mark.parametrize("n", [2, 3, 8])
def test_a_call_cuts_range_n_into_its_two_fixed_shards(n):
    """shards(n, *args) runs fn(rows, *args) on each of shard_slices(n),
    shard 1 in the worker."""
    with Shards(lambda rows, tag: (rows, tag, os.getpid())) as shards:
        got = shards(n, "x")
    assert [(rows, tag) for rows, tag, _ in got] == [(r, "x") for r in shard_slices(n)]
    assert got[0][2] == os.getpid() != got[1][2]


def test_shards_keep_synced_arrays_in_step():
    """The worker inherits what fn reads and, before each call, copies in
    the current values of the synced arrays, but of nothing else."""
    w, other = np.zeros(3), np.zeros(3)
    def fn(rows):
        return rows.start, w.sum(), other.sum()

    with Shards(fn, sync={"w": w}) as shards:
        assert shards(2) == [(0, 0.0, 0.0), (1, 0.0, 0.0)]
        w[...] = 5.0
        other[...] = 1.0
        assert shards(2) == [(0, 15.0, 3.0), (1, 15.0, 0.0)]


def test_shards_raises_shard_1_error():
    with Shards(failing_in(1)) as shards:
        with pytest.raises(ShardError, match="shard 1 failed") as info:
            shards(2)
    # the worker's traceback rides along as the cause
    assert "in shard 1's worker process" in str(info.value.__cause__)
    assert "ShardError" in str(info.value.__cause__)


def test_shards_keeps_its_worker_after_errors():
    for failing in ((0,), (1,), (0, 1)):
        with Shards(failing_in(*failing)) as shards:
            (_, worker), = shards(2, 2)[1:]
            with pytest.raises(ShardError):
                shards(2)
            assert shards(2, 2)[1] == (3, worker)


def test_shards_raises_shard_0_error_after_shard_1_finishes(tmp_path):
    done = tmp_path / "shard1-done"

    def fn(rows, base=0):
        shard = base + rows.start
        if shard == 0:
            raise ShardError("shard 0 failed")
        time.sleep(0.2)
        done.write_text("done")
        return whoami(rows, base)

    with Shards(fn) as shards:
        with pytest.raises(ShardError, match="shard 0 failed"):
            shards(2)
        assert done.exists()
        # the pipe is still in step: the next call gets its own reply
        done.unlink()
        assert shards(2, 2)[1][0] == 3


@pytest.mark.parametrize("death", ["exit", "kill", "unpicklable"])
def test_dead_worker_raises_runtime_error_with_its_exit_code(death):
    """A worker that exits, is killed or cannot send its reply raises a
    RuntimeError naming shard 1 and its exit code; the next call forks a
    fresh worker."""
    def fn(rows):
        if rows.start == 1:
            if death == "exit":
                os._exit(3)
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise Unpicklable("no reply")
        return whoami(rows)

    code = {"exit": 3, "kill": -signal.SIGKILL, "unpicklable": 1}[death]
    with Shards(fn) as shards:
        with pytest.raises(RuntimeError, match=rf"shard 1's worker process exited "
                                               rf"with code {code} without replying"):
            shards(2)
        assert no_child_process()
        shards.fn = whoami      # a fresh worker forks with the current fn
        (_, here), (_, there) = shards(2)
        assert here == os.getpid() != there


def wait_for_exit(pid, timeout):
    """Wait up to timeout seconds for the child pid to exit, without reaping
    it; its exit status (os.waitid's result), or None if it still runs."""
    deadline = time.monotonic() + timeout
    while True:
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        if info is not None or time.monotonic() > deadline:
            return info
        time.sleep(0.01)


def test_worker_killed_between_calls_raises_runtime_error():
    with Shards(whoami) as shards:
        shards(2)
        os.kill(shards._pid, signal.SIGKILL)
        info = wait_for_exit(shards._pid, 5.0)
        assert info is not None, "the killed worker did not exit within 5 s"
        assert (info.si_code, info.si_status) == (os.CLD_KILLED, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"code {-signal.SIGKILL} without"):
            shards(2)


def test_no_worker_is_left_a_zombie():
    """After a shard-1 error the worker lives on until the block ends, and
    is then reaped; a worker that died is reaped before RuntimeError is
    raised.  Neither is left a zombie, which os.kill would still find."""
    with Shards(failing_in(1)) as shards:
        with pytest.raises(ShardError):
            shards(2)
        worker = shards._pid
        assert wait_for_exit(worker, 0.0) is None
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
    assert no_child_process()

    def fn(rows):
        if rows.start == 1:
            os._exit(3)

    with Shards(fn) as shards:
        shards(1)
        with pytest.raises(RuntimeError, match="code 3 without replying"):
            shards(2)
        assert shards._pid is None
        assert no_child_process()


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no procfs")
def test_shards_close_every_pipe_end_they_open():
    """A block that forked a worker, and one whose worker died, leave this
    process with the file descriptors it had before."""
    before = open_fds()
    with Shards(whoami) as shards:
        shards(2)
        assert len(open_fds()) == len(before) + 2    # one end of each pipe
    assert open_fds() == before
    with Shards(failing_in()) as shards:
        shards(2)
        os.kill(shards._pid, signal.SIGKILL)
        with pytest.raises(RuntimeError):
            shards(2)
        assert open_fds() == before
    assert open_fds() == before


_UNFLUSHED = """
from segprior.layers import Shards
print("printed before the fork")
with Shards(lambda rows: print("shard", rows.start)) as shards:
    shards(2)
"""


def test_output_buffered_before_the_fork_is_written_once():
    """A line printed, and not flushed, before the worker is forked appears
    once on stdout, and the worker's own output is not lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    res = subprocess.run([sys.executable, "-c", _UNFLUSHED], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("printed before the fork") == 1
    assert sorted(res.stdout.splitlines()) == ["printed before the fork",
                                               "shard 0", "shard 1"]


def _parent_of_a_worker(report):
    """Fork a worker through Shards, report its pid, then wait to be killed."""
    with Shards(whoami) as shards:
        report.send(shards(2)[1][1])
        time.sleep(60)


def test_worker_exits_when_its_parent_is_killed():
    """A worker whose parent dies sees its pipe close and exits.  Both
    hold the write end of a pipe that this test reads: it reaches EOF
    once the parent and the worker have both exited."""
    ctx = multiprocessing.get_context("fork")
    alive_r, alive_w = os.pipe()
    report, child_end = ctx.Pipe()
    parent = ctx.Process(target=_parent_of_a_worker, args=(child_end,))
    parent.start()
    os.close(alive_w)
    try:
        assert report.poll(30.0)
        worker = report.recv()
        assert worker not in (os.getpid(), parent.pid)
        parent.kill()
        parent.join(30.0)
        assert parent.exitcode == -signal.SIGKILL
        ready, _, _ = select.select([alive_r], [], [], 30.0)
        assert ready and os.read(alive_r, 1) == b""
    finally:
        os.close(alive_r)
        if parent.is_alive():
            parent.kill()
            parent.join()
