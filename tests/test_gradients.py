"""Central finite-difference checks for every differentiable loss.

Random (4, 4, 3) float64 tensors, step 1e-5, max relative error below 1e-4,
over 20 independent draws per loss; this doubles as the gradient acceptance
criterion.  A property test repeats the check for the gradients the
training step calls directly, over random shapes and scales.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior.objectives import (
    LossConfig,
    bce_sum_grad,
    cls_loss,
    cls_loss_grad,
    image_scores,
    image_scores_vjp,
    kde_loss,
    kde_loss_grad,
    kdl_loss,
    kdl_loss_grad,
    rasp_loss,
    rasp_loss_grad,
    seg_loss,
    seg_loss_grad,
)

from helpers import max_rel_error, numeric_gradient

TOL = 1e-4
SHAPE = (4, 4, 3)
N_DRAWS = 20


def run_gradient_suite(n_draws=N_DRAWS, seed=123):
    """Check each loss; returns {name: worst relative error}."""
    rng = np.random.default_rng(seed)
    cfg = LossConfig()
    worst = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(n_draws):
        z = rng.standard_normal(SHAPE)

        s = rng.uniform(-1.0, 4.0, size=SHAPE)
        _, gz = rasp_loss_grad(z, s)
        record("rasp", max_rel_error(gz, numeric_gradient(lambda t: rasp_loss(t, s), z)))

        yhat = rng.standard_normal(3)
        labels = rng.integers(0, 2, 3).astype(np.float64)
        _, gy = cls_loss_grad(yhat, labels)
        record("cls", max_rel_error(
            gy, numeric_gradient(lambda t: cls_loss(t, labels), yhat)))

        q = rng.uniform(0.0, 1.0, size=SHAPE)
        _, gp = seg_loss_grad(z, q)
        record("seg", max_rel_error(gp, numeric_gradient(lambda t: seg_loss(t, q), z)))

        yold = rng.uniform(0.0, 1.0, size=SHAPE)
        _, gk = kdl_loss_grad(z, yold)
        record("kdl", max_rel_error(
            gk, numeric_gradient(lambda t: kdl_loss(t, yold), z)))

        ref = rng.standard_normal(SHAPE)
        _, gf = kde_loss_grad(z, ref, squared=True)
        record("kde", max_rel_error(
            gf, numeric_gradient(lambda t: kde_loss(t, ref, squared=True), z)))

        # unsquared variant, inputs bounded away from the kink at zero
        ref2 = z + rng.uniform(0.5, 1.5, size=SHAPE) * rng.choice([-1.0, 1.0], SHAPE)
        _, gf2 = kde_loss_grad(z, ref2, squared=False)
        record("kde_unsquared", max_rel_error(
            gf2, numeric_gradient(lambda t: kde_loss(t, ref2, squared=False), z)))

        # pooled path: classification loss through nGWP + focal aggregation
        labels2 = rng.integers(0, 2, 3).astype(np.float64)

        def pooled(t):
            return cls_loss(image_scores(t, cfg), labels2)

        scores, _ = image_scores_vjp(z, cfg, np.zeros(3))
        _, up = cls_loss_grad(scores, labels2)
        _, gpooled = image_scores_vjp(z, cfg, up)
        record("pooled_cls", max_rel_error(gpooled, numeric_gradient(pooled, z)))

    return worst


def test_gradient_suite():
    worst = run_gradient_suite()
    for name, err in sorted(worst.items()):
        assert err < TOL, f"{name}: max relative error {err:.2e} >= {TOL}"


def test_image_scores_vjp_matches_forward():
    rng = np.random.default_rng(5)
    cfg = LossConfig()
    z = rng.standard_normal((5, 5, 4))
    scores, _ = image_scores_vjp(z, cfg, np.zeros(4))
    assert np.allclose(scores, image_scores(z, cfg), atol=1e-12)


def test_pooled_gradient_gamma_zero():
    rng = np.random.default_rng(6)
    cfg = LossConfig(gamma_focal=0.0)
    z = rng.standard_normal(SHAPE)
    labels = np.array([1.0, 0.0, 1.0])

    def pooled(t):
        return cls_loss(image_scores(t, cfg), labels)

    scores, _ = image_scores_vjp(z, cfg, np.zeros(3))
    _, up = cls_loss_grad(scores, labels)
    _, g = image_scores_vjp(z, cfg, up)
    assert max_rel_error(g, numeric_gradient(pooled, z)) < TOL


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 4.0),
       n_cls=st.integers(1, 8),
       rasp_shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
       bce_shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       extra=st.integers(0, 50))
def test_training_gradients_match_finite_differences(seed, scale, n_cls,
                                                     rasp_shape, bce_shape, extra):
    """float64 cls, rasp and summed-BCE gradients against central differences.

    Absolute tolerance 1e-8 sits above the differencing round-off (about
    eps * |loss| / step); relative 1e-5 well below any real error.
    """
    rng = np.random.default_rng(seed)

    def check(analytic, numeric):
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    yhat = rng.standard_normal(n_cls) * scale
    labels = rng.integers(0, 2, n_cls).astype(np.float64)
    _, g = cls_loss_grad(yhat, labels)
    check(g, numeric_gradient(lambda t: cls_loss(t, labels), yhat))

    z = rng.standard_normal(rasp_shape) * scale
    s = rng.standard_normal(rasp_shape) * scale
    _, g = rasp_loss_grad(z, s)
    check(g, numeric_gradient(lambda t: rasp_loss(t, s), z))

    logits = rng.standard_normal(bce_shape) * scale
    targets = rng.uniform(0.0, 1.0, bce_shape)
    n = logits.size + extra       # a shard's sum, normalised by the batch's count
    total, g = bce_sum_grad(logits, targets, n)
    assert g.shape == logits.shape
    check(g, numeric_gradient(lambda t: float(bce_sum_grad(t, targets, n)[0]) / n,
                              logits))
    assert float(total) / logits.size == pytest.approx(
        float(np.mean(np.logaddexp(0.0, logits) - targets * logits)), rel=1e-12)
