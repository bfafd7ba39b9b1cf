import math
import warnings

import numpy as np
import pytest

from segprior.objectives import (
    FOCAL_GAMMA,
    FOCAL_LAMBDA,
    NGWP_EPSILON,
    PSEUDO_ALPHA,
    LossConfig,
    bce_loss_grad,
    image_scores_vjp,
    kde_loss_grad,
    pseudo_supervision,
    sigmoid,
    total_loss,
)

from helpers import bce_reference

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_float64_reference(dtype):
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.standard_normal(20000) * 8.0,
        np.linspace(-1e4, 1e4, 4001),
        [0.0, -0.0, 1e4, -1e4, 17.0, -17.0, 40.0, -40.0, 90.0, -90.0],
    ]).astype(dtype)
    want = np.exp(-np.logaddexp(0.0, -x.astype(np.float64)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
    assert got.dtype == dtype
    assert np.max(np.abs(got - want)) <= np.finfo(dtype).eps
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert sigmoid(np.arange(3)).dtype == np.float64


def item_loss(fn, a, b, *args):
    """One item's loss through a batch-native loss function."""
    losses, _ = fn(np.asarray(a)[None], np.asarray(b)[None], 1, *args)
    assert losses.shape == (1,) and losses.dtype == np.float64
    return losses[0]


def kde(f, f_old, n):
    """kde of a pair of feature tensors, as the engine calls it: on a fresh
    difference, which ``kde_loss_grad`` overwrites with the gradient."""
    return kde_loss_grad(f - f_old, n)


def bce(a, b):
    """One item's binary cross-entropy: an (H, W, K) RaSP slice, an
    (H, W, C) dense map or a (C,) row of pooled scores."""
    return item_loss(bce_loss_grad, a, b)


# ---------------------------------------------------------------------------
# Binary cross-entropy at the rasp term's shapes: one image's (H, W, K)
# ---------------------------------------------------------------------------

def test_rasp_zero_logits_is_ln2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        t = rng.uniform(0.0, 1.0, size=(5, 4, 3))
        assert bce(np.zeros_like(t), t) == pytest.approx(LN2, abs=1e-9)


def test_rasp_single_entry_frozen():
    # independent scalar BCE oracle: t=sigmoid(2), z=3 -> 0.40619611764009533
    z = np.full((1, 1, 1), 3.0)
    t = np.full((1, 1, 1), 1.0 / (1.0 + math.exp(-2.0)))
    assert bce(z, t) == pytest.approx(0.40619611764009533, rel=1e-12)


def test_rasp_saturation():
    z = np.full((2, 2, 1), 40.0)
    t = np.ones((2, 2, 1))
    assert bce(z, t) < 1e-12


def test_rasp_errors():
    with pytest.raises(ValueError, match="share a shape"):
        bce(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="non-empty"):
        bce(np.zeros((2, 2, 0)), np.zeros((2, 2, 0)))
    for bad in (-0.25, 1.5, np.nan):     # targets are probabilities, not raw maps
        with pytest.raises(ValueError, match="BCE targets"):
            bce(np.zeros((2, 2, 1)), np.full((2, 2, 1), bad))
    # one NaN among valid targets is enough
    t = np.full((2, 2, 1), 0.5)
    t[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="BCE targets"):
        bce(np.zeros((2, 2, 1)), t)


@pytest.mark.parametrize("logits_dtype, targets_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    (np.float32, np.uint8), (np.float64, np.bool_), (np.int64, np.float64)])
def test_bce_is_bitwise_its_formula(logits_dtype, targets_dtype):
    """The loss, computed in softplus's buffer, and the gradient equal the
    formulas on fresh arrays bit for bit and in their dtype, also for
    targets wider than the logits, for integer or bool targets and for
    integer logits."""
    rng = np.random.default_rng(7)
    z = (8.0 * rng.standard_normal((3, 5, 4, 2))).astype(logits_dtype)
    z[0, 0, 0] = [0.0, -0.0]
    z[0, 0, 1] = [40.0, -40.0]
    if np.issubdtype(targets_dtype, np.floating):
        t = rng.random(z.shape).astype(targets_dtype)
    else:
        t = (rng.random(z.shape) < 0.5).astype(targets_dtype)
    losses, grad = bce_loss_grad(z, t, 37)
    want_losses, want_grad = bce_reference(z, t, 37)
    assert losses.dtype == np.float64
    assert np.array_equal(losses, want_losses)
    assert grad.dtype == want_grad.dtype == np.result_type(z, t)
    assert np.array_equal(grad, want_grad)


# ---------------------------------------------------------------------------
# pooling: image_scores_vjp scores = nGWP + focal penalty
# ---------------------------------------------------------------------------

def scores_of(z):
    """Pooled scores of one (H, W, C) item."""
    return image_scores_vjp(np.asarray(z)[None])[0][0]


def focal(mass):
    """Scalar oracle of the focal penalty at one class's mean softmax mass."""
    return (1.0 - mass) ** FOCAL_GAMMA * math.log(FOCAL_LAMBDA + mass)


def test_ngwp_constant_logits():
    # uniform softmax: nGWP = k * P / C / (eps + P / C) with P pixels
    k, h, w, c = 3.0, 4, 4, 4
    z = np.full((h, w, c), k)
    ngwp = k * (h * w / c) / (NGWP_EPSILON + h * w / c)
    out = scores_of(z)
    assert np.allclose(out, ngwp + focal(1.0 / c), rtol=1e-12)
    assert np.allclose(out - focal(1.0 / c), k, atol=1e-4)


def test_ngwp_single_pixel_closed_form():
    z = np.array([[[2.0, 0.0]]])
    m0 = math.exp(2) / (math.exp(2) + 1)
    out = scores_of(z)
    assert out[0] == pytest.approx(2.0 * m0 / (NGWP_EPSILON + m0) + focal(m0), rel=1e-12)
    # the nGWP term falls short of the logit by about 2 * epsilon / m0
    assert out[0] - focal(m0) == pytest.approx(2.0, abs=3e-5)
    # zero logits pool to zero, leaving the penalty
    assert out[1] == pytest.approx(focal(1.0 - m0), rel=1e-12)


def test_ngwp_epsilon_dominates():
    """Where a class's softmax mass is far below epsilon, epsilon dominates
    the nGWP denominator: the class pools to about 0, not to its logit."""
    z = np.zeros((3, 3, 2))
    z[:, :, 1] = -60.0
    m1 = math.exp(-60.0) / (1.0 + math.exp(-60.0))
    out = scores_of(z)
    assert abs(out[1] - focal(m1)) < 1e-15
    assert out[1] == pytest.approx(math.log(FOCAL_LAMBDA), abs=1e-12)
    # with a mass far above epsilon the class pools to its logit
    assert np.allclose(scores_of(np.ones((3, 3, 2))) - focal(0.5), 1.0, atol=1e-5)


def test_ngwp_rejects_single_class():
    with pytest.raises(ValueError):
        image_scores_vjp(np.zeros((1, 2, 2, 1)))
    with pytest.raises(ValueError):      # no leading item axis
        image_scores_vjp(np.zeros((2, 2, 3)))


def test_ngwp_bounds_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = np.abs(rng.standard_normal((3, 3, 3)))
        m = np.exp(z - z.max(-1, keepdims=True))
        m /= m.sum(-1, keepdims=True)
        y = scores_of(z)
        for c in range(3):
            msum = m[:, :, c].sum()
            ngwp = y[c] - focal(msum / 9)
            lo = z[:, :, c].min() * msum / (NGWP_EPSILON + msum)
            assert lo - 1e-12 <= ngwp <= z[:, :, c].max() + 1e-12


def test_focal_penalty_cases():
    z = np.zeros((2, 2, 2))
    z[:, :, 0] = 60.0
    out = scores_of(z)
    # full mass -> no penalty, leaving nGWP over 4 pixels of logit 60
    assert out[0] == pytest.approx(60.0 * 4 / (NGWP_EPSILON + 4), rel=1e-12)
    # zero mass and zero logits -> log(lambda)
    assert out[1] == pytest.approx(math.log(0.01), abs=1e-9)


def test_focal_penalty_frozen_value():
    # mass 0.25 spread over 4 pixels, gamma 3, lambda 0.01 (scalar oracle);
    # channel 0's logits are 0, so its nGWP term is 0
    pen = 0.75 ** 3 * math.log(0.26)
    z = np.log(np.array([
        [[1.0, 3.0], [1.0, 3.0]],
        [[1.0, 3.0], [1.0, 3.0]],
    ]))
    out = scores_of(z)
    assert out[0] == pytest.approx(pen, rel=1e-12)
    assert pen == pytest.approx(-0.5682966952359133, rel=1e-12)


def test_image_scores_is_sum_of_parts():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 5, 6, 4))
    scores, m, _ = image_scores_vjp(z)
    ez = np.exp(z)
    want_m = ez / ez.sum(-1, keepdims=True)
    assert np.allclose(m, want_m, rtol=0, atol=1e-15)
    msum = want_m.sum(axis=(1, 2))
    ngwp = (want_m * z).sum(axis=(1, 2)) / (NGWP_EPSILON + msum)
    mass = msum / 30
    foc = (1.0 - mass) ** FOCAL_GAMMA * np.log(FOCAL_LAMBDA + mass)
    assert np.allclose(scores, ngwp + foc, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# cls (BCE on a row of pooled scores), kde, kdl and seg (dense BCE)
# ---------------------------------------------------------------------------

def test_cls_values():
    assert bce(np.zeros(1), np.ones(1)) == pytest.approx(LN2, rel=1e-12)
    # frozen scalar oracle: l=(1,0), yhat=(2,-1)
    assert bce(np.array([2.0, -1.0]), np.array([1.0, 0.0])) == pytest.approx(
        0.22009484928059772, rel=1e-12
    )
    assert bce(np.array([80.0]), np.array([1.0])) < 1e-12
    with pytest.raises(ValueError, match="share a shape"):
        bce(np.zeros(2), np.zeros(3))


def test_kde_values():
    a = np.zeros((1, 1, 2))
    b = np.array([[[3.0, 4.0]]])
    assert item_loss(kde, b, b) == 0.0
    assert item_loss(kde, a, b) == pytest.approx(25.0, rel=1e-12)
    two = np.zeros((2, 1, 1))
    ref = np.array([[[1.0]], [[np.sqrt(3.0)]]])
    assert item_loss(kde, two, ref) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        kde(np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 3, 1)), 4)
    with pytest.raises(ValueError, match="leading item axis"):
        kde_loss_grad(np.zeros(3), 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kde_gradient_is_the_difference_buffer(dtype):
    """kde_loss_grad returns its argument, overwritten with 2 * diff / n:
    bit for bit the gradient computed on fresh arrays."""
    rng = np.random.default_rng(8)
    f, f_old = (rng.standard_normal((3, 4, 5, 6)).astype(dtype) for _ in range(2))
    diff = f - f_old
    dist = (diff * diff).sum(axis=-1)
    want_losses = dist.reshape(3, -1).sum(axis=1).astype(np.float64) / 20
    want_grad = 2.0 * (f - f_old) / 7
    losses, grad = kde_loss_grad(diff, 7)
    assert grad is diff and grad.dtype == dtype
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(losses, want_losses)


def test_kdl_values():
    z = np.zeros((2, 2, 1))
    assert bce(z, np.full_like(z, 0.5)) == pytest.approx(LN2, rel=1e-12)
    assert bce(np.full_like(z, 60.0), np.ones_like(z)) < 1e-12
    # frozen scalar oracle: y=0.8, z=1
    one = np.array([[[1.0]]])
    assert bce(one, np.array([[[0.8]]])) == pytest.approx(0.5132616875182228,
                                                         rel=1e-12)
    with pytest.raises(ValueError, match="BCE targets"):
        bce(one, np.array([[[1.2]]]))


def test_seg_values():
    p = np.zeros((2, 2, 2))
    assert bce(p, np.full_like(p, 0.5)) == pytest.approx(LN2, rel=1e-12)
    assert bce(np.full_like(p, -60.0), np.zeros_like(p)) < 1e-12
    # frozen scalar oracle: q=0.25, p=-1
    assert bce(np.array([[[-1.0]]]), np.array([[[0.25]]])) == pytest.approx(
        0.5632616875182228, rel=1e-12)
    with pytest.raises(ValueError, match="BCE targets"):
        bce(p, np.full_like(p, 1.5))


def _as_pseudo_supervision(t):
    """seg's targets: t's old channels fused by pseudo_supervision with a
    localizer softmax over t's classes; a foreground channel of the old
    scores reaches the targets unchanged."""
    m = np.full(t.shape, 1.0 / t.shape[-1])
    return pseudo_supervision(m, t[..., :-1])


@pytest.mark.parametrize("shape, targets", [
    pytest.param((2, 2, 2, 3), lambda t: t,
                 id="kdl_loss_grad-distillation targets"),
    pytest.param((2, 2, 2, 3), _as_pseudo_supervision,
                 id="seg_loss_grad-pseudo-supervision"),
    pytest.param((1, 2, 2, 1), lambda t: t, id="rasp"),
    pytest.param((1, 3), lambda t: t, id="cls"),
])
def test_targets_outside_the_unit_range_rejected(shape, targets):
    """A NaN target would give a NaN loss; like a value outside [0, 1], it
    is rejected, at every shape and for every pair of targets a term
    passes: kdl's old-model scores, seg's fused pseudo-supervision, rasp's
    slice and cls's image labels."""
    z = np.zeros(shape)
    for bad in (np.nan, -np.inf, np.inf, -1e-9, 1 + 1e-9):
        t = np.full_like(z, 0.5)
        t[(-1,) * (len(shape) - 1) + (min(1, shape[-1] - 1),)] = bad
        with pytest.raises(ValueError, match="BCE targets"):
            bce_loss_grad(z, targets(t), z.size)


def test_losses_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal((3, 3, 2))
        t = rng.uniform(0, 1, size=(3, 3, 2))
        assert bce(z, t) >= 0.0
        assert bce(rng.standard_normal(4), rng.integers(0, 2, 4).astype(float)) >= 0.0


def test_batch_native_losses_reduce_per_item():
    """Each item's loss and gradient is the one it gets alone; the gradient
    is divided by the normaliser n and nothing else."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4, 5, 2))
    t = rng.uniform(0.0, 1.0, a.shape)
    for fn in (bce_loss_grad, kde):
        losses, grad = fn(a, t, 7)
        assert losses.shape == (3,) and losses.dtype == np.float64
        for b in range(3):
            one_loss, one_grad = fn(a[b:b + 1], t[b:b + 1], 7)
            assert losses[b] == one_loss[0]
            assert np.array_equal(grad[b], one_grad[0])
        np.testing.assert_allclose(grad * 7, fn(a, t, 1)[1], rtol=1e-15)
    with pytest.raises(ValueError):      # no leading item axis
        bce_loss_grad(np.zeros(3), np.zeros(3), 3)


# ---------------------------------------------------------------------------
# pseudo-supervision
# ---------------------------------------------------------------------------

def _random_softmax(rng, shape):
    m = rng.uniform(0.05, 1.0, size=shape)
    return m / m.sum(-1, keepdims=True)


def smooth(m):
    """The smoothed localizer labels of one (H, W, C) item alone: fused with
    a bkg-only old model that scores 1 everywhere, which the bkg minimum
    never picks."""
    m = np.asarray(m)[None]
    return pseudo_supervision(m, np.ones(m.shape[:3] + (1,)))[0]


def test_smooth_endpoints_and_value():
    """Half one-hot argmax, half softmax; a one-hot softmax is a fixed point."""
    assert PSEUDO_ALPHA == 0.5
    rng = np.random.default_rng(8)
    m = _random_softmax(rng, (3, 3, 4))
    hot = np.eye(4)[m.argmax(-1)]
    assert np.allclose(smooth(m), 0.5 * hot + 0.5 * m, rtol=0, atol=1e-15)
    assert np.array_equal(smooth(hot), hot)
    m2 = np.array([[[0.8, 0.15, 0.05]]])
    assert smooth(m2)[0, 0, 0] == pytest.approx(0.9, rel=1e-12)


def test_smooth_preserves_argmax_property():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = _random_softmax(rng, (4, 4, 3))
        q = smooth(m)
        assert np.array_equal(q.argmax(-1), m.argmax(-1))


def test_fuse_case_selection():
    rng = np.random.default_rng(10)
    m = _random_softmax(rng, (2, 4, 4, 5))
    y_old = rng.uniform(0, 1, size=(2, 4, 4, 3))
    fused = pseudo_supervision(m, y_old)
    q = np.stack([smooth(item) for item in m])
    assert np.array_equal(fused[..., 0], np.minimum(y_old[..., 0], q[..., 0]))
    assert np.array_equal(fused[..., 1:3], y_old[..., 1:])
    assert np.array_equal(fused[..., 3:], q[..., 3:])
    # monotone on bkg
    assert np.all(fused[..., 0] <= q[..., 0])
    assert np.all(fused[..., 0] <= y_old[..., 0])
    # an old model over the whole label space supplies every foreground channel
    y_all = rng.uniform(0, 1, size=(2, 4, 4, 5))
    assert np.array_equal(pseudo_supervision(m, y_all)[..., 1:], y_all[..., 1:])


def test_fuse_channel_mismatch():
    m = np.full((1, 2, 2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):      # more old channels than classes
        pseudo_supervision(m, np.ones((1, 2, 2, 4)))
    with pytest.raises(ValueError):      # spatial shapes differ
        pseudo_supervision(m, np.ones((1, 2, 3, 2)))
    with pytest.raises(ValueError):      # no leading item axis
        pseudo_supervision(m[0], np.ones((2, 2, 2)))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def test_total_loss():
    cfg = LossConfig(lambda_rasp=1.0, seg_warmup_epochs=5)
    parts = {"cls": 1.0, "kdl": 1.0, "kde": 1.0, "seg": 1.0, "rasp": 1.0}
    assert total_loss(parts, cfg, epoch=5) == pytest.approx(5.0)
    assert total_loss(parts, cfg, epoch=0) == pytest.approx(4.0)  # warmup drops seg
    cfg0 = LossConfig(lambda_rasp=0.0)
    assert total_loss(parts, cfg0, epoch=9) == pytest.approx(4.0)  # baseline mode
