"""Central finite-difference checks for every differentiable loss.

These are the functions the training step calls.  The batch-native ones run
at B = 1 and B = 3 items with a normaliser n above the items' own count, as
a shard of a larger batch uses them; their gradient is then that of the
per-item losses summed and rescaled to n.  Random (B, 4, 4, 3) float64
tensors, step 1e-5, max relative error below 1e-4, over 20 independent
draws per loss; this doubles as the gradient acceptance criterion.  A
property test repeats the check over random shapes, scales and item counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior.objectives import (
    LossConfig,
    bce_sum_grad,
    cls_loss_grad,
    image_scores_vjp,
    kde_loss_grad,
    kdl_loss_grad,
    rasp_loss_grad,
    seg_loss_grad,
)

from helpers import max_rel_error, numeric_gradient

TOL = 1e-4
HWC = (4, 4, 3)
N_DRAWS = 20
ITEM_COUNTS = (1, 3)
EXTRA_ITEMS = 2      # items of the batch that sit in the other shard


def batch_term(fn, per_item, n):
    """The shard's share of a batch term: per-item means, summed, over n."""
    return lambda t: float(fn(t)[0].sum()) * per_item / n


def pooled_cls(cfg, labels, n):
    """cls through the pooled scores, summed over items and divided by n;
    returns (loss function of z, analytic gradient function of z)."""
    def loss(t):
        scores = image_scores_vjp(t, cfg)[0]
        return sum(cls_loss_grad(s, lab)[0] for s, lab in zip(scores, labels)) / n

    def grad(t):
        scores, _, vjp = image_scores_vjp(t, cfg)
        upstream = np.stack([cls_loss_grad(s, lab)[1] for s, lab in zip(scores, labels)])
        return vjp(upstream) / n

    return loss, grad


def run_gradient_suite(n_draws=N_DRAWS, seed=123):
    """Check each loss; returns {name: worst relative error}."""
    rng = np.random.default_rng(seed)
    cfg = LossConfig()
    worst = {}

    def record(name, analytic, fn, x):
        err = max_rel_error(analytic, numeric_gradient(fn, x))
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(n_draws):
        z1 = rng.standard_normal(HWC)
        s = rng.uniform(0.0, 1.0, size=HWC)
        record("rasp", rasp_loss_grad(z1, s)[1], lambda t: rasp_loss_grad(t, s)[0], z1)

        yhat = rng.standard_normal(3)
        labels = rng.integers(0, 2, 3).astype(np.float64)
        record("cls", cls_loss_grad(yhat, labels)[1],
               lambda t: cls_loss_grad(t, labels)[0], yhat)

        for b in ITEM_COUNTS:
            shape = (b,) + HWC
            per_item = int(np.prod(HWC))
            n = per_item * (b + EXTRA_ITEMS)
            z = rng.standard_normal(shape)

            q = rng.uniform(0.0, 1.0, size=shape)
            record(f"seg/B{b}", seg_loss_grad(z, q, n)[1],
                   batch_term(lambda t: seg_loss_grad(t, q, n), per_item, n), z)

            yold = rng.uniform(0.0, 1.0, size=shape)
            record(f"kdl/B{b}", kdl_loss_grad(z, yold, n)[1],
                   batch_term(lambda t: kdl_loss_grad(t, yold, n), per_item, n), z)

            n_px = 16 * (b + EXTRA_ITEMS)
            ref = rng.standard_normal(shape)
            record(f"kde/B{b}", kde_loss_grad(z, ref, n_px)[1],
                   batch_term(lambda t: kde_loss_grad(t, ref, n_px), 16, n_px), z)

            # unsquared variant, inputs bounded away from the kink at zero
            ref2 = z + rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], shape)
            record(f"kde_unsquared/B{b}", kde_loss_grad(z, ref2, n_px, squared=False)[1],
                   batch_term(lambda t: kde_loss_grad(t, ref2, n_px, squared=False),
                              16, n_px), z)

            # classification through the nGWP + focal pooled scores
            item_labels = rng.integers(0, 2, (b, 3)).astype(np.float64)
            loss, grad = pooled_cls(cfg, item_labels, b + EXTRA_ITEMS)
            record(f"pooled_cls/B{b}", grad(z), loss, z)

    return worst


def test_gradient_suite():
    worst = run_gradient_suite()
    assert {"seg/B1", "seg/B3", "pooled_cls/B3", "kde_unsquared/B3"} <= set(worst)
    for name, err in sorted(worst.items()):
        assert err < TOL, f"{name}: max relative error {err:.2e} >= {TOL}"


def test_image_scores_vjp_matches_forward():
    """A batch's scores, softmax and VJP are each item's computed alone."""
    rng = np.random.default_rng(5)
    cfg = LossConfig()
    z = rng.standard_normal((3, 5, 5, 4))
    upstream = rng.standard_normal((3, 4))
    scores, m, vjp = image_scores_vjp(z, cfg)
    dz = vjp(upstream)
    assert scores.shape == (3, 4) and m.shape == z.shape and dz.shape == z.shape
    for b in range(3):
        s1, m1, vjp1 = image_scores_vjp(z[b:b + 1], cfg)
        np.testing.assert_allclose(scores[b], s1[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(m[b], m1[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(dz[b], vjp1(upstream[b:b + 1])[0], rtol=0, atol=1e-15)


def test_pooled_gradient_gamma_zero():
    rng = np.random.default_rng(6)
    cfg = LossConfig(gamma_focal=0.0)
    for b in ITEM_COUNTS:
        z = rng.standard_normal((b,) + HWC)
        labels = rng.integers(0, 2, (b, 3)).astype(np.float64)
        loss, grad = pooled_cls(cfg, labels, b + EXTRA_ITEMS)
        assert max_rel_error(grad(z), numeric_gradient(loss, z)) < TOL


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
    cfg = LossConfig()

    def check(analytic, numeric):
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    yhat = rng.standard_normal(n_cls) * scale
    labels = rng.integers(0, 2, n_cls).astype(np.float64)
    _, g = cls_loss_grad(yhat, labels)
    check(g, numeric_gradient(lambda t: cls_loss_grad(t, labels)[0], yhat))

    z = rng.standard_normal(rasp_shape) * scale
    s = rng.uniform(0.0, 1.0, rasp_shape)
    _, g = rasp_loss_grad(z, s)
    check(g, numeric_gradient(lambda t: rasp_loss_grad(t, s)[0], z))

    logits = rng.standard_normal(bce_shape) * scale
    targets = rng.uniform(0.0, 1.0, bce_shape)
    n = logits.size + extra       # a shard's sum, normalised by the batch's count
    total, g = bce_sum_grad(logits, targets, n)
    assert g.shape == logits.shape
    check(g, numeric_gradient(lambda t: float(bce_sum_grad(t, targets, n)[0]) / n,
                              logits))
    assert float(total) / logits.size == pytest.approx(
        float(np.mean(np.logaddexp(0.0, logits) - targets * logits)), rel=1e-12)

    # the batch-native terms on a shard of `items` items, normalised by a
    # batch that holds `extra` more
    shape = (items,) + item_shape
    per_item, n_px = int(np.prod(item_shape)), item_shape[0] * item_shape[1]
    n, n_pix = per_item * (items + extra), n_px * (items + extra)
    zb = rng.standard_normal(shape) * scale
    t = rng.uniform(0.0, 1.0, shape)
    losses, g = kdl_loss_grad(zb, t, n)
    assert losses.shape == (items,) and g.shape == shape
    check(g, numeric_gradient(batch_term(lambda v: kdl_loss_grad(v, t, n), per_item, n),
                              zb))
    _, g = seg_loss_grad(zb, t, n)
    check(g, numeric_gradient(batch_term(lambda v: seg_loss_grad(v, t, n), per_item, n),
                              zb))
    ref = rng.standard_normal(shape) * scale
    for squared in (True, False):
        _, g = kde_loss_grad(zb, ref, n_pix, squared)
        check(g, numeric_gradient(
            batch_term(lambda v: kde_loss_grad(v, ref, n_pix, squared), n_px, n_pix), zb))
    item_labels = rng.integers(0, 2, (items, item_shape[2])).astype(np.float64)
    loss, grad = pooled_cls(cfg, item_labels, items + extra)
    check(grad(zb), numeric_gradient(loss, zb))
