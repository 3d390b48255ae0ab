"""Tests for the RRRE model: config validation, forward pass, gradients."""

import numpy as np
import pytest

from repro.core import RRRE, RRREConfig, fast_config, joint_loss
from repro.core.encoder import make_encoder
from repro.data import InputSlots, ReviewTextTable, load_dataset, train_test_split
import repro.nn as nn


@pytest.fixture(scope="module")
def small_setup():
    dataset = load_dataset("yelpchi", seed=0, scale=0.2)
    train, test = train_test_split(dataset, seed=0)
    config = fast_config(epochs=1, s_u=3, s_i=4, max_len=10)
    table = ReviewTextTable.build(dataset, max_len=config.max_len)
    slots = InputSlots.build(train, s_u=config.s_u, s_i=config.s_i)
    model = RRRE(config, dataset.num_users, dataset.num_items, len(table.vocab))
    return dataset, train, test, config, table, slots, model


class TestConfig:
    def test_odd_review_dim_rejected(self):
        with pytest.raises(ValueError):
            RRREConfig(review_dim=33)

    def test_unknown_encoder_rejected(self):
        with pytest.raises(ValueError):
            RRREConfig(encoder="transformer")

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            RRREConfig(lambda_weight=1.5)

    def test_bad_slots(self):
        with pytest.raises(ValueError):
            RRREConfig(s_u=0)

    def test_fast_config_overrides(self):
        cfg = fast_config(epochs=99)
        assert cfg.epochs == 99
        assert cfg.review_dim == 32


class TestForward:
    def test_output_shapes(self, small_setup):
        dataset, train, _, config, table, slots, model = small_setup
        users = dataset.user_ids[:16]
        items = dataset.item_ids[:16]
        out = model(users, items, slots, table)
        assert out.rating.shape == (16,)
        assert out.reliability_logits.shape == (16, 2)
        assert out.user_attention.shape == (16, config.s_u)
        assert out.item_attention.shape == (16, config.s_i)

    def test_reliability_is_probability(self, small_setup):
        dataset, _, _, _, table, slots, model = small_setup
        out = model(dataset.user_ids[:8], dataset.item_ids[:8], slots, table)
        rel = out.reliability
        assert rel.shape == (8,)
        assert ((rel >= 0) & (rel <= 1)).all()

    def test_attention_is_distribution(self, small_setup):
        dataset, _, _, _, table, slots, model = small_setup
        out = model(dataset.user_ids[:8], dataset.item_ids[:8], slots, table)
        np.testing.assert_allclose(out.user_attention.data.sum(axis=1), np.ones(8))

    def test_misaligned_inputs_raise(self, small_setup):
        dataset, _, _, _, table, slots, model = small_setup
        with pytest.raises(ValueError):
            model(dataset.user_ids[:4], dataset.item_ids[:5], slots, table)

    def test_gradients_reach_all_parameters(self, small_setup):
        dataset, train, _, config, table, slots, model = small_setup
        model.train()
        model.zero_grad()
        users = dataset.user_ids[:32]
        items = dataset.item_ids[:32]
        out = model(users, items, slots, table)
        parts = joint_loss(
            out.rating,
            out.reliability_logits,
            dataset.ratings[:32],
            dataset.labels[:32],
            lambda_weight=0.5,
        )
        parts.total.backward()
        missing = [
            name
            for name, p in model.named_parameters()
            if p.grad is None or not np.any(p.grad)
        ]
        # ID embeddings of unused users/items legitimately have sparse
        # gradients but the tables themselves must receive some.
        assert not missing, f"no gradient reached: {missing}"

    def test_deterministic_given_seed(self):
        dataset = load_dataset("yelpchi", seed=0, scale=0.2)
        train, _ = train_test_split(dataset, seed=0)
        config = fast_config(epochs=1, seed=7)
        table = ReviewTextTable.build(dataset, max_len=config.max_len)
        slots = InputSlots.build(train, s_u=config.s_u, s_i=config.s_i)
        a = RRRE(config, dataset.num_users, dataset.num_items, len(table.vocab))
        b = RRRE(config, dataset.num_users, dataset.num_items, len(table.vocab))
        out_a = a(dataset.user_ids[:4], dataset.item_ids[:4], slots, table)
        out_b = b(dataset.user_ids[:4], dataset.item_ids[:4], slots, table)
        np.testing.assert_allclose(out_a.rating.data, out_b.rating.data)

    def test_encoders_share_one_word_embedding(self):
        # Pretrained vectors are loaded into model.word_embedding; both
        # review encoders must read that one table.
        model = RRRE(fast_config(), num_users=3, num_items=3, vocab_size=10)
        assert model.user_encoder.word_embedding is model.word_embedding
        assert model.item_encoder.word_embedding is model.word_embedding


class TestEncoders:
    @pytest.mark.parametrize("kind", ["bilstm", "cnn", "mean"])
    def test_each_encoder_shape(self, kind):
        rng = np.random.default_rng(0)
        words = nn.Embedding(50, 8, rng, padding_idx=0)
        encoder = make_encoder(kind, words, 12, rng)
        ids = rng.integers(0, 50, size=(5, 10))
        mask = np.ones((5, 10), dtype=bool)
        out = encoder(ids, mask)
        assert out.shape == (5, 12)

    def test_unknown_kind(self):
        rng = np.random.default_rng(0)
        words = nn.Embedding(50, 8, rng, padding_idx=0)
        with pytest.raises(ValueError):
            make_encoder("gru", words, 12, rng)

    def test_mean_encoder_ignores_padding(self):
        rng = np.random.default_rng(0)
        words = nn.Embedding(50, 8, rng, padding_idx=0)
        encoder = make_encoder("mean", words, 12, rng)
        ids = np.array([[5, 6, 0, 0]])
        short = encoder(np.array([[5, 6]]), np.ones((1, 2), dtype=bool))
        padded = encoder(ids, np.array([[True, True, False, False]]))
        np.testing.assert_allclose(short.data, padded.data, atol=1e-12)


class TestJointLoss:
    def test_biased_vs_unbiased(self):
        rng = np.random.default_rng(0)
        rating = nn.Tensor(rng.normal(size=8), requires_grad=True)
        logits = nn.Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        ratings = rng.normal(size=8)
        labels = np.array([1, 1, 0, 0, 1, 0, 1, 1])
        biased = joint_loss(rating, logits, ratings, labels, 0.5, biased=True)
        plain = joint_loss(rating, logits, ratings, labels, 0.5, biased=False)
        assert biased.rating_loss < plain.rating_loss  # fakes excluded

    def test_lambda_extremes(self):
        rng = np.random.default_rng(0)
        rating = nn.Tensor(rng.normal(size=4))
        logits = nn.Tensor(rng.normal(size=(4, 2)))
        ratings = rng.normal(size=4)
        labels = np.array([1, 0, 1, 1])
        only_rel = joint_loss(rating, logits, ratings, labels, 1.0)
        only_rat = joint_loss(rating, logits, ratings, labels, 0.0)
        assert only_rel.total.item() == pytest.approx(only_rel.reliability_loss)
        assert only_rat.total.item() == pytest.approx(only_rat.rating_loss)

    def test_invalid_lambda(self):
        rating = nn.Tensor(np.zeros(2))
        logits = nn.Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            joint_loss(rating, logits, np.zeros(2), np.array([1, 1]), -0.1)
