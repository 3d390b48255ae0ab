"""Integration tests: RRRE training loop, evaluation, recommendation."""

import numpy as np
import pytest

from repro.core import (
    RRRETrainer,
    explain_item,
    fast_config,
    rank_by_rating_then_reliability,
    recommend_items,
)
from repro.data import load_dataset, train_test_split


@pytest.fixture(scope="module")
def fitted():
    dataset = load_dataset("yelpchi", seed=1, scale=0.25)
    train, test = train_test_split(dataset, seed=1)
    trainer = RRRETrainer(fast_config(epochs=4, seed=1))
    trainer.fit(dataset, train, test)
    return dataset, train, test, trainer


class TestTrainer:
    def test_history_recorded(self, fitted):
        _, _, _, trainer = fitted
        assert len(trainer.history) == 4
        record = trainer.history[-1]
        assert record.train_loss > 0
        assert "brmse" in record.eval_metrics

    def test_loss_decreases(self, fitted):
        _, _, _, trainer = fitted
        losses = [r.train_loss for r in trainer.history]
        assert losses[-1] < losses[0]

    def test_training_learns_reliability(self, fitted):
        _, _, test, trainer = fitted
        metrics = trainer.evaluate(test)
        assert metrics["auc"] > 0.6  # well above chance even at tiny scale

    def test_predict_pairs_shapes(self, fitted):
        dataset, _, _, trainer = fitted
        users = np.array([0, 1, 2])
        items = np.array([0, 0, 1])
        ratings, reliabilities = trainer.predict_pairs(users, items)
        assert ratings.shape == (3,)
        assert ((reliabilities >= 0) & (reliabilities <= 1)).all()

    def test_predictions_deterministic_in_eval(self, fitted):
        dataset, _, _, trainer = fitted
        users = dataset.user_ids[:20]
        items = dataset.item_ids[:20]
        a = trainer.predict_pairs(users, items)
        b = trainer.predict_pairs(users, items)
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_unfitted_raises(self):
        trainer = RRRETrainer(fast_config())
        with pytest.raises(RuntimeError):
            trainer.predict_pairs(np.array([0]), np.array([0]))

    def test_evaluate_with_ndcg(self, fitted):
        _, _, test, trainer = fitted
        metrics = trainer.evaluate(test, ndcg_ks=(10, 20))
        assert "ndcg@10" in metrics
        assert 0.0 <= metrics["ndcg@10"] <= 1.0

    def test_biased_loss_flag_changes_training(self):
        dataset = load_dataset("yelpchi", seed=2, scale=0.2)
        train, test = train_test_split(dataset, seed=2)
        a = RRRETrainer(fast_config(epochs=4, seed=2, biased_loss=True)).fit(dataset, train)
        b = RRRETrainer(fast_config(epochs=4, seed=2, biased_loss=False)).fit(dataset, train)
        ra, rel_a = a.predict_subset(test)
        rb, rel_b = b.predict_subset(test)
        assert not (np.allclose(ra, rb) and np.allclose(rel_a, rel_b))

    def test_pretrained_words_pipeline(self):
        dataset = load_dataset("yelpchi", seed=3, scale=0.2)
        train, _ = train_test_split(dataset, seed=3)
        trainer = RRRETrainer(fast_config(epochs=1, seed=3, pretrain_words=True))
        trainer.fit(dataset, train)  # must not crash and must keep pad zero
        np.testing.assert_allclose(
            trainer.model.word_embedding.weight.data[0], np.zeros(16)
        )


class TestRecommend:
    def test_recommendations_sorted_by_reliability(self, fitted):
        dataset, _, _, trainer = fitted
        user = int(dataset.user_degrees().argmax())
        recs = recommend_items(trainer, user, top_k=5, exclude_seen=False)
        rel = [r.predicted_reliability for r in recs]
        assert rel == sorted(rel, reverse=True)

    def test_exclude_seen(self, fitted):
        dataset, _, _, trainer = fitted
        user = int(dataset.user_degrees().argmax())
        seen = {dataset.item_ids[i] for i in dataset.reviews_by_user[user]}
        recs = recommend_items(trainer, user, top_k=5, exclude_seen=True)
        assert all(r.item_id not in seen for r in recs)

    def test_candidates_come_from_top_rated(self, fitted):
        dataset, _, _, trainer = fitted
        user = 0
        recs = recommend_items(trainer, user, top_k=3, exclude_seen=False)
        items = np.arange(dataset.num_items)
        ratings, _ = trainer.predict_pairs(np.full(len(items), user), items)
        top3 = set(np.argsort(-ratings)[:3].tolist())
        assert {r.item_id for r in recs} <= top3

    def test_invalid_user(self, fitted):
        _, _, _, trainer = fitted
        with pytest.raises(IndexError):
            recommend_items(trainer, 10**6)

    def test_invalid_top_k(self, fitted):
        _, _, _, trainer = fitted
        with pytest.raises(ValueError):
            recommend_items(trainer, 0, top_k=0)

    def test_final_k_limits(self, fitted):
        _, _, _, trainer = fitted
        recs = recommend_items(trainer, 0, top_k=5, final_k=2, exclude_seen=False)
        assert len(recs) <= 2

    def test_final_k_zero_asks_for_none(self, fitted):
        _, _, _, trainer = fitted
        assert recommend_items(trainer, 3, top_k=10, final_k=0) == []

    def test_negative_final_k_rejected(self, fitted):
        _, _, _, trainer = fitted
        with pytest.raises(ValueError):
            recommend_items(trainer, 3, top_k=10, final_k=-3)

    def test_exclude_seen_keeps_every_unseen_item_in_order(self, fitted):
        dataset, _, _, trainer = fitted
        for user in range(5):
            seen = {int(dataset.item_ids[i]) for i in dataset.reviews_by_user[user]}
            unseen = [i for i in range(dataset.num_items) if i not in seen]
            recs = recommend_items(trainer, user, top_k=dataset.num_items)
            ratings, reliabilities = trainer.predict_pairs(np.full(len(unseen), user), unseen)
            order = rank_by_rating_then_reliability(ratings, reliabilities, len(unseen))
            assert [r.item_id for r in recs] == [unseen[pos] for pos in order]


class TestExplain:
    def test_explanations_reference_real_reviews(self, fitted):
        dataset, _, _, trainer = fitted
        item = int(dataset.item_degrees().argmax())
        explanations = explain_item(trainer, item, top_k=4, min_reliability=0.0)
        assert explanations
        for exp in explanations:
            review = dataset.reviews[exp.review_index]
            assert review.item_id == item
            assert review.text == exp.text

    def test_min_reliability_filters(self, fitted):
        dataset, _, _, trainer = fitted
        item = int(dataset.item_degrees().argmax())
        all_exp = explain_item(trainer, item, top_k=10, min_reliability=0.0)
        strict = explain_item(trainer, item, top_k=10, min_reliability=0.99)
        assert len(strict) <= len(all_exp)
        assert all(e.predicted_reliability >= 0.99 for e in strict)

    def test_invalid_item(self, fitted):
        _, _, _, trainer = fitted
        with pytest.raises(IndexError):
            explain_item(trainer, -1)

    def test_final_k_zero_asks_for_none(self, fitted):
        dataset, _, _, trainer = fitted
        item = int(dataset.item_degrees().argmax())
        assert explain_item(trainer, item, top_k=5, final_k=0, min_reliability=0) == []

    def test_negative_final_k_rejected(self, fitted):
        dataset, _, _, trainer = fitted
        item = int(dataset.item_degrees().argmax())
        with pytest.raises(ValueError):
            explain_item(trainer, item, top_k=5, final_k=-1, min_reliability=0)

    def test_reliability_sorted_within_pool(self, fitted):
        dataset, _, _, trainer = fitted
        item = int(dataset.item_degrees().argmax())
        explanations = explain_item(trainer, item, top_k=6, min_reliability=0.0)
        rel = [e.predicted_reliability for e in explanations]
        assert rel == sorted(rel, reverse=True)
