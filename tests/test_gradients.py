"""Central finite-difference checks for every differentiable loss.

These are the functions the training step calls.  The dense BCE (base
training, kdl and seg) and kde run at B = 1 and B = 3 items with a
normaliser n above the items' own count, as a shard of a larger batch uses
them; their gradient is then that of the per-item losses summed and
rescaled to n.  The BCE also runs at the other shapes the engine passes:
one image's (1, H, W, K) RaSP slice and one row's (1, C) float64 pooled
scores, each normalised by its own size.  Random (B, 4, 4, 3) tensors,
step 1e-5, max relative error below 1e-4, over 20 independent draws per
loss; this doubles as the gradient acceptance criterion.  The dense BCE
runs in float32, as training does, and in float64; the float32 gradient is
held against the float64 loss's differences at the same point, its error
relative to the gradient's bound 1 / n, since float32 rounding leaves an
absolute error of about 1e-7 / n in every entry.  A property test repeats
the check over random shapes, scales and item counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior.engine import ENCODER_CHANNELS, INPUT_CHANNELS, SegModel
from segprior.layers import LeakyReLU, zero_grads
from segprior.objectives import bce_loss_grad, image_scores_vjp, kde_loss_grad

from helpers import max_rel_error, numeric_gradient

TOL = 1e-4
HWC = (4, 4, 3)
N_DRAWS = 20
ITEM_COUNTS = (1, 3)
EXTRA_ITEMS = 2      # items of the batch that sit in the other shard


def batch_term(fn, per_item, n):
    """The shard's share of a batch term: per-item means, summed, over n."""
    return lambda t: float(fn(t)[0].sum()) * per_item / n


def one_item(t, targets):
    """The loss of one item normalised by its own size, as cls and rasp are."""
    return float(bce_loss_grad(t, targets, t.size)[0][0])


def pooled_cls(labels, n):
    """cls through the pooled scores, one row at a time, summed over items
    and divided by n; returns (loss function of z, analytic gradient
    function of z)."""
    def loss(t):
        scores = image_scores_vjp(t)[0]
        return sum(one_item(scores[i:i + 1], labels[i:i + 1])
                   for i in range(len(scores))) / n

    def grad(t):
        scores, _, vjp = image_scores_vjp(t)
        upstream = np.concatenate([
            bce_loss_grad(scores[i:i + 1], labels[i:i + 1], labels.shape[1])[1]
            for i in range(len(scores))])
        return vjp(upstream) / n

    return loss, grad


def run_gradient_suite(n_draws=N_DRAWS, seed=123):
    """Check each loss; returns {name: worst relative error}."""
    rng = np.random.default_rng(seed)
    worst = {}

    def record(name, analytic, fn, x, floor=1e-6):
        err = max_rel_error(analytic, numeric_gradient(fn, x), floor)
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(n_draws):
        z1 = rng.standard_normal((1,) + HWC)
        s = rng.uniform(0.0, 1.0, size=z1.shape)
        record("rasp", bce_loss_grad(z1, s, z1.size)[1], lambda t: one_item(t, s), z1)

        yhat = rng.standard_normal((1, 3))
        labels = rng.integers(0, 2, (1, 3)).astype(np.float64)
        record("cls", bce_loss_grad(yhat, labels, 3)[1],
               lambda t: one_item(t, labels), yhat)

        for b in ITEM_COUNTS:
            shape = (b,) + HWC
            per_item = int(np.prod(HWC))
            n = per_item * (b + EXTRA_ITEMS)
            z = rng.standard_normal(shape)

            for dtype in (np.float64, np.float32):
                zd = z.astype(dtype)
                q = rng.uniform(0.0, 1.0, size=shape).astype(dtype)
                losses, grad = bce_loss_grad(zd, q, n)
                assert losses.dtype == np.float64 and grad.dtype == dtype
                floor = 1.0 / n if dtype == np.float32 else 1e-6
                record(f"bce-{np.dtype(dtype).name}/B{b}", grad,
                       batch_term(lambda t: bce_loss_grad(t, q, n), per_item, n), zd,
                       floor)

            n_px = 16 * (b + EXTRA_ITEMS)
            ref = rng.standard_normal(shape)
            record(f"kde/B{b}", kde_loss_grad(z - ref, n_px)[1],
                   batch_term(lambda t: kde_loss_grad(t - ref, n_px), 16, n_px), z)

            # classification through the nGWP + focal pooled scores
            item_labels = rng.integers(0, 2, (b, 3)).astype(np.float64)
            loss, grad = pooled_cls(item_labels, b + EXTRA_ITEMS)
            record(f"pooled_cls/B{b}", grad(z), loss, z)

    return worst


def test_gradient_suite():
    worst = run_gradient_suite()
    assert {"bce-float64/B1", "bce-float32/B3", "rasp", "cls", "pooled_cls/B3",
            "kde/B3"} <= set(worst)
    for name, err in sorted(worst.items()):
        assert err < TOL, f"{name}: max relative error {err:.2e} >= {TOL}"


def test_image_scores_vjp_matches_forward():
    """A batch's scores, softmax and VJP are each item's computed alone."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 5, 5, 4))
    upstream = rng.standard_normal((3, 4))
    scores, m, vjp = image_scores_vjp(z)
    dz = vjp(upstream)
    assert scores.shape == (3, 4) and m.shape == z.shape and dz.shape == z.shape
    for b in range(3):
        s1, m1, vjp1 = image_scores_vjp(z[b:b + 1])
        np.testing.assert_allclose(scores[b], s1[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(m[b], m1[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dz[b], vjp1(upstream[b:b + 1])[0], rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 4.0),
       n_cls=st.integers(1, 8),
       rasp_shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
       bce_shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       items=st.sampled_from(ITEM_COUNTS),
       item_shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4)),
       extra=st.integers(0, 50))
def test_training_gradients_match_finite_differences(seed, scale, n_cls, rasp_shape,
                                                     bce_shape, items, item_shape,
                                                     extra):
    """float64 gradients of every training loss against central differences.

    Absolute tolerance 1e-8 sits above the differencing round-off (about
    eps * |loss| / step); relative 1e-5 well below any real error.
    """
    rng = np.random.default_rng(seed)

    def check(analytic, numeric):
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    # one row's pooled scores (cls) and one image's RaSP slice (rasp)
    yhat = rng.standard_normal((1, n_cls)) * scale
    labels = rng.integers(0, 2, (1, n_cls)).astype(np.float64)
    _, g = bce_loss_grad(yhat, labels, n_cls)
    check(g, numeric_gradient(lambda t: one_item(t, labels), yhat))

    z = rng.standard_normal((1,) + rasp_shape) * scale
    s = rng.uniform(0.0, 1.0, z.shape)
    _, g = bce_loss_grad(z, s, z.size)
    check(g, numeric_gradient(lambda t: one_item(t, s), z))

    # any item shape, against a scalar oracle of each item's mean
    logits = rng.standard_normal([items] + bce_shape) * scale
    targets = rng.uniform(0.0, 1.0, logits.shape)
    per_item = logits[0].size
    n = logits.size + extra       # a shard's items, normalised by the batch's count
    losses, g = bce_loss_grad(logits, targets, n)
    assert losses.shape == (items,) and g.shape == logits.shape
    check(g, numeric_gradient(batch_term(lambda t: bce_loss_grad(t, targets, n),
                                         per_item, n), logits))
    for b in range(items):
        assert losses[b] == pytest.approx(
            float(np.mean(np.logaddexp(0.0, logits[b]) - targets[b] * logits[b])),
            rel=1e-12)

    # the batch-native terms on a shard of `items` items, normalised by a
    # batch that holds `extra` more
    shape = (items,) + item_shape
    per_item, n_px = int(np.prod(item_shape)), item_shape[0] * item_shape[1]
    n, n_pix = per_item * (items + extra), n_px * (items + extra)
    zb = rng.standard_normal(shape) * scale
    t = rng.uniform(0.0, 1.0, shape)
    losses, g = bce_loss_grad(zb, t, n)
    assert losses.shape == (items,) and g.shape == shape
    check(g, numeric_gradient(batch_term(lambda v: bce_loss_grad(v, t, n), per_item, n),
                              zb))
    ref = rng.standard_normal(shape) * scale
    _, g = kde_loss_grad(zb - ref, n_pix)
    check(g, numeric_gradient(
        batch_term(lambda v: kde_loss_grad(v - ref, n_pix), n_px, n_pix), zb))
    item_labels = rng.integers(0, 2, (items, item_shape[2])).astype(np.float64)
    loss, grad = pooled_cls(item_labels, items + extra)
    check(grad(zb), numeric_gradient(loss, zb))


def kink_distance(chain, x):
    """The smallest |input| of any of the chain's leaky ReLUs, given x."""
    dist = np.inf
    for layer in chain.layers:
        if isinstance(layer, LeakyReLU):
            dist = min(dist, float(np.abs(x).min()))
        x, _ = layer.forward(x)
    return dist


@pytest.mark.parametrize("part", ["encoder", "localizer"])
def test_network_chains_match_finite_differences(part):
    """The encoder and localizer chains, composed as they train, in float64:
    every parameter gradient and the localizer's input gradient of
    sum(r * output) on a tiny input, against central differences.  The
    input is redrawn until every leaky ReLU input is clear of the kink at
    zero, where differences do not approximate the gradient."""
    rng = np.random.default_rng(17)
    model = SegModel.init(("bkg", "a", "b"), seed=4, dtype=np.float64)
    chain = getattr(model, part)
    # the encoder's input is a 6 x 6 image rearranged space to depth
    shape = (2, 3, 3, INPUT_CHANNELS) if part == "encoder" else (2, 4, 4, ENCODER_CHANNELS[-1])
    x = rng.standard_normal(shape)
    while kink_distance(chain, x) < 1e-3:
        x = rng.standard_normal(shape)
    y, caches = chain.forward(x)
    r = rng.standard_normal(y.shape)
    grads = zero_grads(chain.params())
    dx = chain.backward(r, caches, grads)

    def loss(t):
        return float((chain.forward(t)[0] * r).sum())

    def check(analytic, numeric, name):
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8, err_msg=name)

    if part == "encoder":
        assert dx is None            # the images get no gradient
    else:
        check(dx, numeric_gradient(loss, x), "input")
    for name, p in chain.params().items():
        def of_param(v, p=p):
            p[...] = v
            return loss(x)

        keep = p.copy()
        num = numeric_gradient(of_param, keep)
        p[...] = keep
        check(grads[name], num, name)
