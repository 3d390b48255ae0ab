"""Tests for attention inspection utilities."""

import numpy as np
import pytest

from repro.core import (
    RRRETrainer,
    attention_fake_discount,
    fast_config,
    item_profile_attention,
    user_profile_attention,
)
from repro.data import load_dataset, train_test_split


@pytest.fixture(scope="module")
def fitted():
    dataset = load_dataset("yelpchi", seed=5, scale=0.4)
    train, test = train_test_split(dataset, seed=5)
    trainer = RRRETrainer(fast_config(epochs=5, seed=5)).fit(dataset, train)
    return dataset, train, trainer


class TestProfileAttention:
    def test_weights_form_distribution(self, fitted):
        _, _, trainer = fitted
        attended = user_profile_attention(trainer, 0)
        total = sum(a.weight for a in attended)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(a.weight >= 0 for a in attended)

    def test_sorted_by_weight(self, fitted):
        _, _, trainer = fitted
        attended = item_profile_attention(trainer, 0)
        weights = [a.weight for a in attended]
        assert weights == sorted(weights, reverse=True)

    def test_reviews_belong_to_entity(self, fitted):
        dataset, _, trainer = fitted
        attended = item_profile_attention(trainer, 3)
        for a in attended:
            if not a.is_blank:
                assert dataset.reviews[a.review_index].item_id == 3

    def test_profile_uses_train_reviews_only(self, fitted):
        dataset, train, trainer = fitted
        train_set = set(train.index_array.tolist())
        attended = user_profile_attention(trainer, 0)
        for a in attended:
            if not a.is_blank:
                assert a.review_index in train_set

    def test_invalid_ids(self, fitted):
        _, _, trainer = fitted
        with pytest.raises(IndexError):
            user_profile_attention(trainer, 10**6)
        with pytest.raises(IndexError):
            item_profile_attention(trainer, -5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            user_profile_attention(RRRETrainer(fast_config()), 0)


class TestFakeDiscount:
    def test_discount_in_sane_range(self, fitted):
        # The sign of the discount is noisy at test-suite training
        # budgets (the ablation benchmark checks the behaviour at full
        # budget); here we assert the statistic is well-formed.
        _, _, trainer = fitted
        discount = attention_fake_discount(trainer)
        assert -1.5 < discount < 10.0

    def test_value_is_finite(self, fitted):
        _, _, trainer = fitted
        assert np.isfinite(attention_fake_discount(trainer))


class TestCounterpartIndependence:
    """A profile's attention is computed from its own side of the model only."""

    @staticmethod
    def _pairs(attended):
        return [(a.review_index, a.weight) for a in attended]

    def test_user_weights_ignore_the_scored_item(self, fitted):
        dataset, _, trainer = fitted
        last = dataset.num_items - 1
        for user in range(min(20, dataset.num_users)):
            assert self._pairs(user_profile_attention(trainer, user, 0)) == self._pairs(
                user_profile_attention(trainer, user, last)
            )

    def test_item_weights_ignore_the_scoring_user(self, fitted):
        dataset, _, trainer = fitted
        last = dataset.num_users - 1
        for item in range(min(20, dataset.num_items)):
            assert self._pairs(item_profile_attention(trainer, item, 0)) == self._pairs(
                item_profile_attention(trainer, item, last)
            )
