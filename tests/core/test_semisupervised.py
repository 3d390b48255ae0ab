"""Tests for the semi-supervised self-training extension."""

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import SemiSupervisedRRRETrainer, fast_config
from repro.data import load_dataset, train_test_split


@pytest.fixture(scope="module")
def data():
    dataset = load_dataset("yelpchi", seed=8, scale=0.25)
    train, test = train_test_split(dataset, seed=8)
    return dataset, train, test


class TestValidation:
    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SemiSupervisedRRRETrainer(fast_config(), label_fraction=0.0)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            SemiSupervisedRRRETrainer(fast_config(), rounds=0)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            SemiSupervisedRRRETrainer(fast_config(), confidence=0.4)

    def test_summary_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SemiSupervisedRRRETrainer(fast_config()).label_budget_summary()


class TestTraining:
    def test_label_budget_respected(self, data):
        dataset, train, _ = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=1, seed=0), label_fraction=0.3, rounds=1
        )
        trainer.fit(dataset, train)
        summary = trainer.label_budget_summary()
        expected = 0.3 * len(train)
        assert abs(summary["labeled"] - expected) < 0.15 * len(train)

    def test_labels_never_leak_outside_budget(self, data):
        dataset, train, _ = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=1, seed=0), label_fraction=0.2, rounds=1
        )
        trainer.fit(dataset, train)
        mask = trainer.state.labeled_mask
        # No test review is ever labeled.
        train_set = set(train.index_array.tolist())
        assert all(idx in train_set for idx in np.flatnonzero(mask))

    def test_pseudo_labels_adopted_between_rounds(self, data):
        dataset, train, _ = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=2, seed=0), label_fraction=0.2, rounds=2, confidence=0.8
        )
        trainer.fit(dataset, train)
        assert trainer.label_budget_summary()["pseudo_labeled"] >= 0
        # Soft weights of unlabeled train reviews were replaced by model
        # estimates (they started at the labeled benign base rate).
        soft = trainer.state.soft_weights
        unlabeled = ~trainer.state.labeled_mask
        train_unlabeled = unlabeled.copy()
        train_unlabeled[np.setdiff1d(np.arange(len(dataset)), train.index_array)] = False
        base_rate = dataset.labels[trainer.state.labeled_mask].mean()
        updated = soft[train_unlabeled]
        assert ((updated >= 0) & (updated <= 1)).all()
        assert not np.allclose(updated, base_rate)

    def test_beats_chance_with_small_budget(self, data):
        dataset, train, test = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=3, seed=0), label_fraction=0.15, rounds=2
        )
        trainer.fit(dataset, train)
        metrics = trainer.evaluate(test)
        assert metrics["auc"] > 0.55

    def test_full_budget_matches_supervised_shape(self, data):
        dataset, train, test = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=3, seed=0), label_fraction=1.0, rounds=1
        )
        trainer.fit(dataset, train)
        assert trainer.label_budget_summary()["labeled"] == len(train)
        metrics = trainer.evaluate(test)
        assert np.isfinite(metrics["brmse"])

    def test_history_spans_rounds(self, data):
        dataset, train, _ = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=2, seed=0), label_fraction=0.5, rounds=2
        )
        trainer.fit(dataset, train)
        assert len(trainer.history) == 4
        assert [r.epoch for r in trainer.history] == [1, 2, 3, 4]
        assert all(r.grad_norm > 0 for r in trainer.history)

    def test_pretrain_words_initialises_embeddings(self, data, monkeypatch):
        dataset, train, _ = data
        calls = []
        pretrain = trainer_module.train_skipgram

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return pretrain(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "train_skipgram", spy)
        fits = {
            flag: SemiSupervisedRRRETrainer(
                fast_config(epochs=1, seed=0, pretrain_words=flag), rounds=1
            ).fit(dataset, train)
            for flag in (False, True)
        }
        assert len(calls) == 1 and calls[0]["seed"] == 0
        assert not np.array_equal(
            fits[True].model.word_embedding.weight.data,
            fits[False].model.word_embedding.weight.data,
        )
