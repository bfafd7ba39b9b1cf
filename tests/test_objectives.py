import math
import warnings

import numpy as np
import pytest

from segprior.objectives import (
    ChannelPartition,
    LossConfig,
    cls_loss,
    focal_penalty,
    fuse_supervision,
    image_scores,
    kde_loss,
    kdl_loss,
    ngwp_aggregate,
    rasp_loss,
    seg_loss,
    sigmoid,
    smooth_pseudo_labels,
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


# ---------------------------------------------------------------------------
# rasp
# ---------------------------------------------------------------------------

def test_rasp_zero_logits_is_ln2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = rng.uniform(0.0, 4.0, size=(5, 4, 3))
        assert rasp_loss(np.zeros_like(s), s) == pytest.approx(LN2, abs=1e-9)


def test_rasp_single_entry_frozen():
    # independent scalar BCE oracle: s=2, z=3 -> 0.40619611764009533
    z = np.full((1, 1, 1), 3.0)
    s = np.full((1, 1, 1), 2.0)
    assert rasp_loss(z, s) == pytest.approx(0.40619611764009533, rel=1e-12)


def test_rasp_saturation():
    z = np.full((2, 2, 1), 40.0)
    s = np.full((2, 2, 1), 40.0)
    assert rasp_loss(z, s) < 1e-12


def test_rasp_errors():
    with pytest.raises(ValueError):
        rasp_loss(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        rasp_loss(np.zeros((2, 2, 0)), np.zeros((2, 2, 0)))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_ngwp_constant_logits():
    # uniform softmax: y = k * P / C / (eps + P / C) with P pixels
    k, h, w, c, eps = 3.0, 4, 4, 4, 1e-5
    z = np.full((h, w, c), k)
    expected = k * (h * w / c) / (eps + h * w / c)
    out = ngwp_aggregate(z, eps)
    assert np.allclose(out, expected, rtol=1e-12)
    assert np.allclose(out, k, atol=1e-4)


def test_ngwp_single_pixel_closed_form():
    z = np.array([[[2.0, 0.0]]])
    m0 = math.exp(2) / (math.exp(2) + 1)
    eps = 1e-9
    out = ngwp_aggregate(z, eps)
    assert out[0] == pytest.approx(2.0 * m0 / (eps + m0), rel=1e-12)
    assert out[0] == pytest.approx(2.0, abs=1e-6)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_ngwp_epsilon_dominates():
    z = np.zeros((3, 3, 2))
    out = ngwp_aggregate(z, 1e6)
    assert np.all(np.abs(out) < 1e-5)


def test_ngwp_rejects_single_class():
    with pytest.raises(ValueError):
        ngwp_aggregate(np.zeros((2, 2, 1)), 1e-5)


def test_ngwp_bounds_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = np.abs(rng.standard_normal((3, 3, 3)))
        m = np.exp(z - z.max(-1, keepdims=True))
        m /= m.sum(-1, keepdims=True)
        eps = 1e-5
        y = ngwp_aggregate(z, eps)
        for c in range(3):
            msum = m[:, :, c].sum()
            lo = z[:, :, c].min() * msum / (eps + msum)
            assert lo - 1e-12 <= y[c] <= z[:, :, c].max() + 1e-12


def test_focal_penalty_cases():
    # full mass -> 0 whatever gamma
    z = np.zeros((2, 2, 2))
    z[:, :, 0] = 60.0
    pen = focal_penalty(z, 3.0, 0.01)
    assert pen[0] == pytest.approx(0.0, abs=1e-9)
    # zero mass, gamma=0 -> log(lambda)
    assert pen[1] == pytest.approx(focal_penalty(z, 0.0, 0.01)[1] * 1.0, abs=1e-6)
    assert focal_penalty(z, 0.0, 0.01)[1] == pytest.approx(math.log(0.01), abs=1e-9)
    with pytest.raises(ValueError):
        focal_penalty(z, 3.0, 0.0)


def test_focal_penalty_frozen_value():
    # mass 0.25 spread over 4 pixels, gamma 3, lambda 0.01 (scalar oracle)
    pen = 0.75 ** 3 * math.log(0.26)
    z = np.log(np.array([
        [[1.0, 3.0], [1.0, 3.0]],
        [[1.0, 3.0], [1.0, 3.0]],
    ]))
    out = focal_penalty(z, 3.0, 0.01)
    assert out[0] == pytest.approx(pen, rel=1e-12)
    assert pen == pytest.approx(-0.5682966952359133, rel=1e-12)


def test_image_scores_is_sum_of_parts():
    rng = np.random.default_rng(11)
    cfg = LossConfig()
    z = rng.standard_normal((5, 6, 4))
    total = image_scores(z, cfg)
    parts = ngwp_aggregate(z, cfg.epsilon_ngwp) + \
        focal_penalty(z, cfg.gamma_focal, cfg.lambda_focal)
    assert np.allclose(total, parts, atol=1e-15)


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
    assert kde_loss(b, b) == 0.0
    assert kde_loss(a, b) == pytest.approx(25.0, rel=1e-12)
    two = np.zeros((2, 1, 1))
    ref = np.array([[[1.0]], [[np.sqrt(3.0)]]])
    assert kde_loss(two, ref) == pytest.approx(2.0, rel=1e-12)
    # unsquared variant: mean of plain norms
    assert kde_loss(a, b, squared=False) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        kde_loss(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))


def test_kdl_values():
    z = np.zeros((2, 2, 1))
    assert kdl_loss(z, np.full_like(z, 0.5)) == pytest.approx(LN2, rel=1e-12)
    assert kdl_loss(np.full_like(z, 60.0), np.ones_like(z)) < 1e-12
    # frozen scalar oracle: y=0.8, z=1
    one = np.array([[[1.0]]])
    assert kdl_loss(one, np.array([[[0.8]]])) == pytest.approx(
        0.5132616875182228, rel=1e-12
    )
    with pytest.raises(ValueError):
        kdl_loss(one, np.array([[[1.2]]]))


def test_seg_values():
    p = np.zeros((2, 2, 2))
    assert seg_loss(p, np.full_like(p, 0.5)) == pytest.approx(LN2, rel=1e-12)
    assert seg_loss(np.full_like(p, -60.0), np.zeros_like(p)) < 1e-12
    # frozen scalar oracle: q=0.25, p=-1
    assert seg_loss(np.array([[[-1.0]]]), np.array([[[0.25]]])) == pytest.approx(
        0.5632616875182228, rel=1e-12
    )
    with pytest.raises(ValueError):
        seg_loss(p, np.full_like(p, 1.5))


def test_losses_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal((3, 3, 2))
        t = rng.uniform(0, 1, size=(3, 3, 2))
        assert kdl_loss(z, t) >= 0.0
        assert seg_loss(z, t) >= 0.0
        assert rasp_loss(z, rng.standard_normal((3, 3, 2))) >= 0.0
        assert cls_loss(rng.standard_normal(4),
                        rng.integers(0, 2, 4).astype(float)) >= 0.0


# ---------------------------------------------------------------------------
# pseudo-label assembly
# ---------------------------------------------------------------------------

def _random_softmax(rng, shape):
    m = rng.uniform(0.05, 1.0, size=shape)
    return m / m.sum(-1, keepdims=True)


def test_smooth_endpoints_and_value():
    rng = np.random.default_rng(8)
    m = _random_softmax(rng, (3, 3, 4))
    assert np.array_equal(smooth_pseudo_labels(m, 0.0), m)
    hard = smooth_pseudo_labels(m, 1.0)
    assert set(np.unique(hard)) <= {0.0, 1.0}
    assert np.array_equal(hard.argmax(-1), m.argmax(-1))
    m2 = np.array([[[0.8, 0.15, 0.05]]])
    assert smooth_pseudo_labels(m2, 0.5)[0, 0, 0] == pytest.approx(0.9, rel=1e-12)


def test_smooth_preserves_argmax_property():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = _random_softmax(rng, (4, 4, 3))
        alpha = float(rng.uniform(0, 1))
        q = smooth_pseudo_labels(m, alpha)
        assert np.array_equal(q.argmax(-1), m.argmax(-1))


def test_smooth_validates():
    with pytest.raises(ValueError):
        smooth_pseudo_labels(np.full((2, 2, 2), 0.4), 0.5)  # rows sum to 0.8
    ok = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValueError):
        smooth_pseudo_labels(ok, 1.5)


def test_fuse_case_selection():
    rng = np.random.default_rng(10)
    part = ChannelPartition(n_old=3, n_total=5)
    q = rng.uniform(0, 1, size=(4, 4, 5))
    y_old = rng.uniform(0, 1, size=(4, 4, 3))
    fused = fuse_supervision(q, y_old, part)
    assert np.array_equal(fused[:, :, 0], np.minimum(y_old[:, :, 0], q[:, :, 0]))
    assert np.array_equal(fused[:, :, 1:3], y_old[:, :, 1:])
    assert np.array_equal(fused[:, :, 3:], q[:, :, 3:])
    # idempotent on old/new channels; monotone on bkg
    again = fuse_supervision(fused, y_old, part)
    assert np.array_equal(again[:, :, 1:], fused[:, :, 1:])
    assert np.all(fused[:, :, 0] <= q[:, :, 0])
    assert np.all(fused[:, :, 0] <= y_old[:, :, 0])


def test_fuse_channel_mismatch():
    part = ChannelPartition(n_old=3, n_total=5)
    with pytest.raises(ValueError):
        fuse_supervision(np.zeros((2, 2, 4)), np.zeros((2, 2, 3)), part)
    with pytest.raises(ValueError):
        fuse_supervision(np.zeros((2, 2, 5)), np.zeros((2, 2, 2)), part)


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
