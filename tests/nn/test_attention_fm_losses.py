"""Tests for ReviewAttention, FactorizationMachine, and loss functions."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from tests.helpers import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestReviewAttention:
    def make(self, rng):
        return nn.ReviewAttention(
            review_dim=6, own_dim=4, other_dim=4, attention_dim=5, rng=rng
        )

    def test_output_shapes(self, rng):
        att = self.make(rng)
        pooled, weights = att(
            nn.Tensor(rng.normal(size=(3, 7, 6))),
            nn.Tensor(rng.normal(size=(3, 4))),
            nn.Tensor(rng.normal(size=(3, 7, 4))),
        )
        assert pooled.shape == (3, 6)
        assert weights.shape == (3, 7)

    def test_weights_are_distribution(self, rng):
        att = self.make(rng)
        _, weights = att(
            nn.Tensor(rng.normal(size=(2, 5, 6))),
            nn.Tensor(rng.normal(size=(2, 4))),
            nn.Tensor(rng.normal(size=(2, 5, 4))),
        )
        np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(2))
        assert (weights.data >= 0).all()

    def test_mask_zeroes_padded_slots(self, rng):
        att = self.make(rng)
        mask = np.array([[True, True, False, False, False]])
        _, weights = att(
            nn.Tensor(rng.normal(size=(1, 5, 6))),
            nn.Tensor(rng.normal(size=(1, 4))),
            nn.Tensor(rng.normal(size=(1, 5, 4))),
            mask=mask,
        )
        np.testing.assert_allclose(weights.data[0, 2:], np.zeros(3), atol=1e-12)
        assert weights.data[0, :2].sum() == pytest.approx(1.0)

    def test_fully_masked_row_raises(self, rng):
        att = self.make(rng)
        with pytest.raises(ValueError):
            att(
                nn.Tensor(rng.normal(size=(1, 3, 6))),
                nn.Tensor(rng.normal(size=(1, 4))),
                nn.Tensor(rng.normal(size=(1, 3, 4))),
                mask=np.zeros((1, 3), dtype=bool),
            )

    def test_pooled_is_convex_combination(self, rng):
        att = self.make(rng)
        reviews = rng.normal(size=(1, 4, 6))
        pooled, weights = att(
            nn.Tensor(reviews),
            nn.Tensor(rng.normal(size=(1, 4))),
            nn.Tensor(rng.normal(size=(1, 4, 4))),
        )
        manual = (weights.data[0][:, None] * reviews[0]).sum(axis=0)
        np.testing.assert_allclose(pooled.data[0], manual, atol=1e-12)

    def test_gradcheck_through_attention(self, rng):
        att = nn.ReviewAttention(3, 2, 2, 3, rng)
        own = rng.normal(size=(1, 2))
        other = rng.normal(size=(1, 2, 2))

        def build(ts):
            pooled, _ = att(ts[0], nn.Tensor(own), nn.Tensor(other))
            return F.sum(pooled)

        check_gradients(build, [rng.normal(size=(1, 2, 3))], rtol=1e-3)


class TestFactorizationMachine:
    def test_output_shape(self, rng):
        fm = nn.FactorizationMachine(8, 4, rng)
        out = fm(nn.Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5,)

    def test_matches_explicit_pairwise_sum(self, rng):
        fm = nn.FactorizationMachine(5, 3, rng)
        z = rng.normal(size=(1, 5))
        out = fm(nn.Tensor(z)).data[0]
        v = fm.factors.data
        expected = fm.global_bias.data[0] + float(z[0] @ fm.linear.data[:, 0])
        for i in range(5):
            for j in range(i + 1, 5):
                expected += float(v[i] @ v[j]) * z[0, i] * z[0, j]
        assert out == pytest.approx(expected)

    def test_gradcheck(self, rng):
        fm = nn.FactorizationMachine(4, 2, rng)

        def build(ts):
            return F.sum(fm(ts[0]))

        check_gradients(build, [rng.normal(size=(3, 4))], rtol=1e-3)


class TestLosses:
    def test_mse_zero_for_perfect(self):
        pred = nn.Tensor(np.array([1.0, 2.0, 3.0]))
        assert nn.mse_loss(pred, np.array([1.0, 2.0, 3.0])).item() == 0.0

    def test_mse_value(self):
        pred = nn.Tensor(np.array([0.0, 0.0]))
        assert nn.mse_loss(pred, np.array([1.0, 3.0])).item() == pytest.approx(5.0)

    def test_weighted_mse_ignores_zero_weight_entries(self):
        # A fake review (weight 0) with a huge error contributes nothing.
        pred = nn.Tensor(np.array([1.0, 100.0]))
        target = np.array([1.0, 1.0])
        weights = np.array([1.0, 0.0])
        assert nn.weighted_mse_loss(pred, target, weights).item() == 0.0

    def test_weighted_mse_equals_mse_when_all_benign(self):
        pred = nn.Tensor(np.array([1.0, 2.0, 4.0]))
        target = np.array([0.0, 2.0, 2.0])
        a = nn.weighted_mse_loss(pred, target, np.ones(3)).item()
        b = nn.mse_loss(pred, target).item()
        assert a == pytest.approx(b)

    def test_weighted_mse_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.weighted_mse_loss(nn.Tensor(np.zeros(3)), np.zeros(3), np.zeros(4))

    def test_weighted_mse_grad_is_zero_for_fakes(self):
        pred = nn.Tensor(np.array([5.0, 5.0]), requires_grad=True)
        nn.weighted_mse_loss(pred, np.zeros(2), np.array([0.0, 1.0])).backward()
        assert pred.grad[0] == 0.0
        assert pred.grad[1] != 0.0

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = nn.Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = nn.cross_entropy_loss(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_cross_entropy_uniform_is_log_c(self):
        logits = nn.Tensor(np.zeros((4, 3)))
        loss = nn.cross_entropy_loss(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3))

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(5)
        labels = np.array([0, 2, 1])
        check_gradients(
            lambda ts: nn.cross_entropy_loss(ts[0], labels),
            [rng.normal(size=(3, 3))],
        )

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            nn.cross_entropy_loss(nn.Tensor(np.zeros(3)), np.array([0]))
