import math
import warnings

import numpy as np
import pytest

from segprior.objectives import (
    LossConfig,
    cls_loss_grad,
    image_scores_vjp,
    kde_loss_grad,
    kdl_loss_grad,
    pseudo_supervision,
    rasp_loss_grad,
    seg_loss_grad,
    sigmoid,
    total_loss,
)

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


def rasp_loss(z, t):
    return rasp_loss_grad(z, t)[0]


def cls_loss(y_hat, labels):
    return cls_loss_grad(y_hat, labels)[0]


def item_loss(fn, a, b, *args):
    """One (H, W, C) item's loss through a batch-native loss function."""
    losses, _ = fn(np.asarray(a)[None], np.asarray(b)[None], 1, *args)
    assert losses.shape == (1,) and losses.dtype == np.float64
    return losses[0]


# ---------------------------------------------------------------------------
# rasp
# ---------------------------------------------------------------------------

def test_rasp_zero_logits_is_ln2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        t = rng.uniform(0.0, 1.0, size=(5, 4, 3))
        assert rasp_loss(np.zeros_like(t), t) == pytest.approx(LN2, abs=1e-9)


def test_rasp_single_entry_frozen():
    # independent scalar BCE oracle: t=sigmoid(2), z=3 -> 0.40619611764009533
    z = np.full((1, 1, 1), 3.0)
    t = np.full((1, 1, 1), 1.0 / (1.0 + math.exp(-2.0)))
    assert rasp_loss(z, t) == pytest.approx(0.40619611764009533, rel=1e-12)


def test_rasp_saturation():
    z = np.full((2, 2, 1), 40.0)
    t = np.ones((2, 2, 1))
    assert rasp_loss(z, t) < 1e-12


def test_rasp_errors():
    with pytest.raises(ValueError):
        rasp_loss(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        rasp_loss(np.zeros((2, 2, 0)), np.zeros((2, 2, 0)))
    for bad in (-0.25, 1.5):     # targets are probabilities, not raw maps
        with pytest.raises(ValueError, match="rasp targets"):
            rasp_loss(np.zeros((2, 2, 1)), np.full((2, 2, 1), bad))


# ---------------------------------------------------------------------------
# pooling: image_scores_vjp scores = nGWP + focal penalty
# ---------------------------------------------------------------------------

def scores_of(z, cfg):
    """Pooled scores of one (H, W, C) item."""
    return image_scores_vjp(np.asarray(z)[None], cfg)[0][0]


def focal(mass, cfg):
    """Scalar oracle of the focal penalty at one class's mean softmax mass."""
    return (1.0 - mass) ** cfg.gamma_focal * math.log(cfg.lambda_focal + mass)


def test_ngwp_constant_logits():
    # uniform softmax: nGWP = k * P / C / (eps + P / C) with P pixels
    k, h, w, c = 3.0, 4, 4, 4
    cfg = LossConfig(epsilon_ngwp=1e-5)
    z = np.full((h, w, c), k)
    ngwp = k * (h * w / c) / (cfg.epsilon_ngwp + h * w / c)
    out = scores_of(z, cfg)
    assert np.allclose(out, ngwp + focal(1.0 / c, cfg), rtol=1e-12)
    assert np.allclose(out - focal(1.0 / c, cfg), k, atol=1e-4)


def test_ngwp_single_pixel_closed_form():
    z = np.array([[[2.0, 0.0]]])
    m0 = math.exp(2) / (math.exp(2) + 1)
    cfg = LossConfig(epsilon_ngwp=1e-9)
    out = scores_of(z, cfg)
    assert out[0] == pytest.approx(2.0 * m0 / (cfg.epsilon_ngwp + m0) + focal(m0, cfg),
                                   rel=1e-12)
    assert out[0] - focal(m0, cfg) == pytest.approx(2.0, abs=1e-6)
    # zero logits pool to zero, leaving the penalty
    assert out[1] == pytest.approx(focal(1.0 - m0, cfg), rel=1e-12)


def test_ngwp_epsilon_dominates():
    z = np.ones((3, 3, 2))
    cfg = LossConfig(epsilon_ngwp=1e6)
    assert np.all(np.abs(scores_of(z, cfg) - focal(0.5, cfg)) < 1e-5)
    small = LossConfig(epsilon_ngwp=1e-5)
    assert np.allclose(scores_of(z, small) - focal(0.5, small), 1.0, atol=1e-5)


def test_ngwp_rejects_single_class():
    with pytest.raises(ValueError):
        image_scores_vjp(np.zeros((1, 2, 2, 1)), LossConfig())
    with pytest.raises(ValueError):      # no leading item axis
        image_scores_vjp(np.zeros((2, 2, 3)), LossConfig())


def test_ngwp_bounds_brute_force():
    rng = np.random.default_rng(4)
    cfg = LossConfig()
    for _ in range(50):
        z = np.abs(rng.standard_normal((3, 3, 3)))
        m = np.exp(z - z.max(-1, keepdims=True))
        m /= m.sum(-1, keepdims=True)
        y = scores_of(z, cfg)
        for c in range(3):
            msum = m[:, :, c].sum()
            ngwp = y[c] - focal(msum / 9, cfg)
            lo = z[:, :, c].min() * msum / (cfg.epsilon_ngwp + msum)
            assert lo - 1e-12 <= ngwp <= z[:, :, c].max() + 1e-12


def test_focal_penalty_cases():
    z = np.zeros((2, 2, 2))
    z[:, :, 0] = 60.0
    cfg = LossConfig(gamma_focal=3.0, lambda_focal=0.01)
    out = scores_of(z, cfg)
    # full mass -> no penalty, leaving nGWP over 4 pixels of logit 60
    assert out[0] == pytest.approx(60.0 * 4 / (cfg.epsilon_ngwp + 4), rel=1e-12)
    # zero mass and zero logits -> log(lambda), whatever gamma
    for gamma in (3.0, 0.0):
        out = scores_of(z, LossConfig(gamma_focal=gamma, lambda_focal=0.01))
        assert out[1] == pytest.approx(math.log(0.01), abs=1e-9)
    with pytest.raises(ValueError):
        LossConfig(lambda_focal=0.0)
    with pytest.raises(ValueError):
        LossConfig(gamma_focal=-1.0)


def test_focal_penalty_frozen_value():
    # mass 0.25 spread over 4 pixels, gamma 3, lambda 0.01 (scalar oracle);
    # channel 0's logits are 0, so its nGWP term is 0
    pen = 0.75 ** 3 * math.log(0.26)
    z = np.log(np.array([
        [[1.0, 3.0], [1.0, 3.0]],
        [[1.0, 3.0], [1.0, 3.0]],
    ]))
    out = scores_of(z, LossConfig(gamma_focal=3.0, lambda_focal=0.01))
    assert out[0] == pytest.approx(pen, rel=1e-12)
    assert pen == pytest.approx(-0.5682966952359133, rel=1e-12)


def test_image_scores_is_sum_of_parts():
    rng = np.random.default_rng(11)
    cfg = LossConfig()
    z = rng.standard_normal((2, 5, 6, 4))
    scores, m, _ = image_scores_vjp(z, cfg)
    ez = np.exp(z)
    want_m = ez / ez.sum(-1, keepdims=True)
    assert np.allclose(m, want_m, rtol=0, atol=1e-15)
    msum = want_m.sum(axis=(1, 2))
    ngwp = (want_m * z).sum(axis=(1, 2)) / (cfg.epsilon_ngwp + msum)
    mass = msum / 30
    foc = (1.0 - mass) ** cfg.gamma_focal * np.log(cfg.lambda_focal + mass)
    assert np.allclose(scores, ngwp + foc, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# cls / kde / kdl / seg
# ---------------------------------------------------------------------------

def test_cls_values():
    assert cls_loss(np.zeros(1), np.ones(1)) == pytest.approx(LN2, rel=1e-12)
    # frozen scalar oracle: l=(1,0), yhat=(2,-1)
    assert cls_loss(np.array([2.0, -1.0]), np.array([1.0, 0.0])) == pytest.approx(
        0.22009484928059772, rel=1e-12
    )
    assert cls_loss(np.array([80.0]), np.array([1.0])) < 1e-12
    with pytest.raises(ValueError):
        cls_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        cls_loss(np.zeros(2), np.array([0.5, 0.0]))


def test_kde_values():
    a = np.zeros((1, 1, 2))
    b = np.array([[[3.0, 4.0]]])
    assert item_loss(kde_loss_grad, b, b) == 0.0
    assert item_loss(kde_loss_grad, a, b) == pytest.approx(25.0, rel=1e-12)
    two = np.zeros((2, 1, 1))
    ref = np.array([[[1.0]], [[np.sqrt(3.0)]]])
    assert item_loss(kde_loss_grad, two, ref) == pytest.approx(2.0, rel=1e-12)
    # unsquared variant: mean of plain norms
    assert item_loss(kde_loss_grad, a, b, False) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        kde_loss_grad(np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 3, 1)), 4)


def test_kdl_values():
    z = np.zeros((2, 2, 1))
    assert item_loss(kdl_loss_grad, z, np.full_like(z, 0.5)) == pytest.approx(
        LN2, rel=1e-12)
    assert item_loss(kdl_loss_grad, np.full_like(z, 60.0), np.ones_like(z)) < 1e-12
    # frozen scalar oracle: y=0.8, z=1
    one = np.array([[[1.0]]])
    assert item_loss(kdl_loss_grad, one, np.array([[[0.8]]])) == pytest.approx(
        0.5132616875182228, rel=1e-12
    )
    with pytest.raises(ValueError):
        item_loss(kdl_loss_grad, one, np.array([[[1.2]]]))


def test_seg_values():
    p = np.zeros((2, 2, 2))
    assert item_loss(seg_loss_grad, p, np.full_like(p, 0.5)) == pytest.approx(
        LN2, rel=1e-12)
    assert item_loss(seg_loss_grad, np.full_like(p, -60.0), np.zeros_like(p)) < 1e-12
    # frozen scalar oracle: q=0.25, p=-1
    assert item_loss(seg_loss_grad, np.array([[[-1.0]]]),
                     np.array([[[0.25]]])) == pytest.approx(0.5632616875182228,
                                                            rel=1e-12)
    with pytest.raises(ValueError):
        item_loss(seg_loss_grad, p, np.full_like(p, 1.5))


def test_losses_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal((3, 3, 2))
        t = rng.uniform(0, 1, size=(3, 3, 2))
        assert item_loss(kdl_loss_grad, z, t) >= 0.0
        assert item_loss(seg_loss_grad, z, t) >= 0.0
        assert rasp_loss(z, t) >= 0.0
        assert cls_loss(rng.standard_normal(4),
                        rng.integers(0, 2, 4).astype(float)) >= 0.0


def test_batch_native_losses_reduce_per_item():
    """Each item's loss and gradient is the one it gets alone; the gradient
    is divided by the normaliser n and nothing else."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4, 5, 2))
    t = rng.uniform(0.0, 1.0, a.shape)
    cases = ((kdl_loss_grad, (t,)), (seg_loss_grad, (t,)),
             (kde_loss_grad, (t, True)), (kde_loss_grad, (t, False)))
    for fn, (other, *flag) in cases:
        losses, grad = fn(a, other, 7, *flag)
        assert losses.shape == (3,) and losses.dtype == np.float64
        for b in range(3):
            one_loss, one_grad = fn(a[b:b + 1], other[b:b + 1], 7, *flag)
            assert losses[b] == one_loss[0]
            assert np.array_equal(grad[b], one_grad[0])
        np.testing.assert_allclose(grad * 7, fn(a, other, 1, *flag)[1], rtol=1e-15)
    with pytest.raises(ValueError):      # no leading item axis
        kdl_loss_grad(np.zeros(3), np.zeros(3), 3)


# ---------------------------------------------------------------------------
# pseudo-supervision
# ---------------------------------------------------------------------------

def _random_softmax(rng, shape):
    m = rng.uniform(0.05, 1.0, size=shape)
    return m / m.sum(-1, keepdims=True)


def smooth(m, alpha):
    """The smoothed localizer labels of one (H, W, C) item alone: fused with
    a bkg-only old model that scores 1 everywhere, which the bkg minimum
    never picks."""
    m = np.asarray(m)[None]
    return pseudo_supervision(m, np.ones(m.shape[:3] + (1,)), alpha)[0]


def test_smooth_endpoints_and_value():
    rng = np.random.default_rng(8)
    m = _random_softmax(rng, (3, 3, 4))
    assert np.array_equal(smooth(m, 0.0), m)
    hard = smooth(m, 1.0)
    assert set(np.unique(hard)) <= {0.0, 1.0}
    assert np.array_equal(hard.argmax(-1), m.argmax(-1))
    m2 = np.array([[[0.8, 0.15, 0.05]]])
    assert smooth(m2, 0.5)[0, 0, 0] == pytest.approx(0.9, rel=1e-12)


def test_smooth_preserves_argmax_property():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = _random_softmax(rng, (4, 4, 3))
        alpha = float(rng.uniform(0, 1))
        q = smooth(m, alpha)
        assert np.array_equal(q.argmax(-1), m.argmax(-1))


def test_smooth_validates():
    ok = np.full((1, 2, 2, 2), 0.5)
    y_old = np.ones((1, 2, 2, 1))
    for alpha in (1.5, -0.1):
        with pytest.raises(ValueError):
            pseudo_supervision(ok, y_old, alpha)


def test_fuse_case_selection():
    rng = np.random.default_rng(10)
    m = _random_softmax(rng, (2, 4, 4, 5))
    y_old = rng.uniform(0, 1, size=(2, 4, 4, 3))
    fused = pseudo_supervision(m, y_old, 0.3)
    q = np.stack([smooth(item, 0.3) for item in m])
    assert np.array_equal(fused[..., 0], np.minimum(y_old[..., 0], q[..., 0]))
    assert np.array_equal(fused[..., 1:3], y_old[..., 1:])
    assert np.array_equal(fused[..., 3:], q[..., 3:])
    # monotone on bkg
    assert np.all(fused[..., 0] <= q[..., 0])
    assert np.all(fused[..., 0] <= y_old[..., 0])
    # an old model over the whole label space supplies every foreground channel
    y_all = rng.uniform(0, 1, size=(2, 4, 4, 5))
    assert np.array_equal(pseudo_supervision(m, y_all, 0.3)[..., 1:], y_all[..., 1:])


def test_fuse_channel_mismatch():
    m = np.full((1, 2, 2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):      # more old channels than classes
        pseudo_supervision(m, np.ones((1, 2, 2, 4)), 0.5)
    with pytest.raises(ValueError):      # spatial shapes differ
        pseudo_supervision(m, np.ones((1, 2, 3, 2)), 0.5)
    with pytest.raises(ValueError):      # no leading item axis
        pseudo_supervision(m[0], np.ones((2, 2, 2)), 0.5)


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
    with pytest.raises(ValueError):
        total_loss({"cls": np.inf}, cfg, 0)
