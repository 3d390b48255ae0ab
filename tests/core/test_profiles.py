"""The profile table behind offline inference: parity with the pairwise
model forward, rebuilds on every weight change, reuse otherwise."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    RRRETrainer,
    SemiSupervisedRRRETrainer,
    fast_config,
    item_profile_attention,
)
from repro.core.profiles import ProfileTable, forward_scores
from repro.data import load_dataset, train_test_split
from repro.nn import Adam, BiLSTM, ReviewAttention, Tensor
from repro.obs import Tracer, use_tracer
from repro.serve import export_store


@pytest.fixture(scope="module")
def data():
    dataset = load_dataset("yelpchi", seed=5, scale=0.1)
    train, test = train_test_split(dataset, seed=5)
    return dataset, train, test


@pytest.fixture(scope="module")
def fitted(data):
    dataset, train, _ = data
    return RRRETrainer(fast_config(epochs=1, seed=5)).fit(dataset, train)


def all_pairs(trainer):
    users, items = np.meshgrid(
        np.arange(trainer.dataset.num_users),
        np.arange(trainer.dataset.num_items),
        indexing="ij",
    )
    return users.ravel(), items.ravel()


def assert_matches_forward(trainer):
    """``predict_pairs`` equals the eval-mode pairwise forward at 1e-9."""
    users, items = all_pairs(trainer)
    got_r, got_l = trainer.predict_pairs(users, items)
    want_r, want_l = forward_scores(
        trainer.model, trainer.slots, trainer.table, trainer._rating_range, users, items
    )
    np.testing.assert_allclose(got_r, want_r, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got_l, want_l, rtol=1e-9, atol=1e-9)


class TestParity:
    def test_default_fit(self, fitted):
        assert_matches_forward(fitted)

    def test_semi_supervised_fit(self, data):
        dataset, train, test = data
        trainer = SemiSupervisedRRRETrainer(
            fast_config(epochs=1, seed=5), label_fraction=0.5, rounds=2
        ).fit(dataset, train, test)
        assert_matches_forward(trainer)

    def test_loaded_trainer(self, data, fitted, tmp_path):
        dataset, train, _ = data
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = RRRETrainer(fast_config(epochs=1, seed=5)).load(path, dataset, train)
        assert_matches_forward(loaded)
        users, items = all_pairs(fitted)
        for got, want in zip(loaded.predict_pairs(users, items), fitted.predict_pairs(users, items)):
            np.testing.assert_array_equal(got, want)


class TestPlannedTrainer:
    """Every trainer runs the fused layers; an idle one holds no scratch."""

    @staticmethod
    def retained_bytes(trainer):
        """Traced bytes left allocated by a round of export and inspection."""
        export_store(trainer)  # its parity check runs a pairwise forward
        item_profile_attention(trainer, 0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            export_store(trainer)
            item_profile_attention(trainer, 0)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    @staticmethod
    def fused_layers(trainer):
        return {
            path: module
            for path, module in trainer.model.named_modules()
            if isinstance(module, (BiLSTM, ReviewAttention))
        }

    def test_idle_trainer_holds_no_scratch(self, data):
        dataset, train, _ = data
        trainer = RRRETrainer(fast_config(epochs=1, seed=5)).fit(dataset, train)
        trainer.profiles()  # the cached table is the one thing kept
        assert self.retained_bytes(trainer) <= 64 * 1024

    def test_semi_supervised_and_loaded_trainers_are_planned(self, data, fitted, tmp_path):
        dataset, train, _ = data
        semi = SemiSupervisedRRRETrainer(fast_config(epochs=1, seed=5), rounds=1).fit(
            dataset, train
        )
        path = tmp_path / "model.npz"
        fitted.save(path)
        loaded = RRRETrainer(fast_config(epochs=1, seed=5)).load(path, dataset, train)
        kinds = {type(m) for m in self.fused_layers(fitted).values()}
        assert kinds == {BiLSTM, ReviewAttention}
        for trainer in (semi, loaded):
            layers = self.fused_layers(trainer)
            assert layers.keys() == self.fused_layers(fitted).keys()
            for name, layer in layers.items():
                if not isinstance(layer, BiLSTM):
                    continue
                size = layer.forward_lstm.cell.input_size
                x = Tensor(np.random.default_rng(0).normal(size=(3, 5, size)))
                fused = layer(x).data
                reference = layer.reference_forward(x).data
                assert np.max(np.abs(fused - reference)) <= 1e-9, name
        semi.profiles()
        assert self.retained_bytes(semi) <= 64 * 1024

    def test_nothing_to_plan_trains_interpreted(self, data):
        dataset, train, _ = data
        config = fast_config(epochs=1, seed=5, encoder="cnn", pooling="mean")
        trainer = RRRETrainer(config).fit(dataset, train)
        fused = [
            path
            for path, module in trainer.model.named_modules()
            if isinstance(module, (BiLSTM, ReviewAttention))
        ]
        assert fused == []
        assert_matches_forward(trainer)


class TestStaleness:
    @pytest.fixture
    def trainer(self, data):
        dataset, train, _ = data
        trainer = RRRETrainer(fast_config(epochs=1, seed=6)).fit(dataset, train)
        trainer.profiles()  # built before the change under test
        return trainer

    def test_optimizer_step(self, trainer):
        params = trainer.model.parameters()
        for p in params:
            p.grad = np.full_like(p.data, 0.5)
        Adam(params, lr=0.05).step()
        assert_matches_forward(trainer)

    def test_load_state_dict(self, trainer, fitted):
        trainer.model.load_state_dict(fitted.model.state_dict())
        assert_matches_forward(trainer)

    def test_load_pretrained_words(self, trainer):
        embedding = trainer.model.word_embedding
        rng = np.random.default_rng(0)
        embedding.load_pretrained(rng.normal(size=embedding.weight.data.shape))
        assert_matches_forward(trainer)

    def test_refit(self, trainer, data):
        dataset, train, _ = data
        before = trainer.profiles()
        trainer.config = fast_config(epochs=1, seed=7)
        trainer.fit(dataset, train)
        assert trainer.profiles() is not before
        assert_matches_forward(trainer)


class TestReuse:
    def test_same_table_without_weight_change(self, fitted):
        table = fitted.profiles()
        fitted.predict_pairs(np.array([0, 1]), np.array([0, 0]))
        fitted.model.train()
        fitted.model.eval()
        assert fitted.profiles() is table
        assert isinstance(table, ProfileTable)

    def test_table_arrays_are_read_only(self, fitted):
        with pytest.raises(ValueError):
            fitted.profiles().arrays["user_bias"][0] = 0.0

    def test_each_build_emits_a_span(self, data, fitted):
        dataset, train, _ = data
        trainer = RRRETrainer(fast_config(epochs=1, seed=5)).fit(dataset, train)
        pair = (np.array([0]), np.array([0]))
        tracer = Tracer()
        with use_tracer(tracer):
            trainer.predict_pairs(*pair)
            trainer.predict_pairs(*pair)  # reuses the table
            trainer.model.load_state_dict(fitted.model.state_dict())
            trainer.predict_pairs(*pair)  # rebuilds it
        builds = [
            e for e in tracer.events
            if e["event"] == "span_end" and e["name"] == "core.profiles"
        ]
        assert len(builds) == 2
        assert all(e["kind"] == "core" for e in builds)
