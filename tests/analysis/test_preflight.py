"""Training pre-flight: preflight() gates a model on the analysis suite."""

import numpy as np
import pytest

from repro.analysis import PreflightError, preflight
from repro.core import fast_config
from repro.core.model import RRRE
from repro.data import InputSlots, ReviewTextTable, load_dataset, train_test_split
from repro.nn import Tensor


@pytest.fixture(scope="module")
def splits():
    dataset = load_dataset("yelpchi", seed=0, scale=0.1)
    train, test = train_test_split(dataset, seed=0)
    return dataset, train, test


@pytest.fixture(scope="module")
def built(splits):
    dataset, train, _ = splits
    cfg = fast_config()
    table = ReviewTextTable.build(
        dataset,
        max_len=cfg.max_len,
        min_count=cfg.min_word_count,
        max_vocab=cfg.max_vocab,
    )
    slots = InputSlots.build(train, s_u=cfg.s_u, s_i=cfg.s_i)
    return cfg, table, slots, dataset


def make_model(cfg, table, dataset):
    return RRRE(
        cfg,
        num_users=dataset.num_users,
        num_items=dataset.num_items,
        vocab_size=len(table.vocab),
    )


class TestPreflight:
    def test_shapes_mode_needs_no_data(self, built):
        cfg, *_ = built
        report = preflight(cfg, mode="shapes")
        assert report["shapes"]["ok"]

    def test_strict_mode_passes_on_healthy_model(self, built):
        cfg, table, slots, dataset = built
        model = make_model(cfg, table, dataset)
        model.train()
        report = preflight(model, slots, table, mode="strict")
        graph = report["graph"]
        assert graph["ok"]
        assert graph["reachable_parameters"] == graph["num_parameters"]
        assert model.training  # mode restored

    def test_strict_mode_leaves_rng_and_weights_untouched(self, built):
        # The probe runs in eval mode, so a fit after it draws the same
        # dropout masks and starts from the same weights as without it.
        cfg, table, slots, dataset = built
        model = make_model(cfg, table, dataset)
        model.train()
        state = model.dropout._rng.bit_generator.state
        weights = [p.data.copy() for p in model.parameters()]
        preflight(model, slots, table, mode="strict")
        assert model.dropout._rng.bit_generator.state == state
        assert all(np.array_equal(w, p.data) for w, p in zip(weights, model.parameters()))

    def test_strict_mode_catches_detached_parameter(self, built):
        cfg, table, slots, dataset = built
        model = make_model(cfg, table, dataset)
        original = model.w_h.forward
        model.w_h.forward = lambda x: Tensor(original(x).data)  # severs the tape
        with pytest.raises(PreflightError, match="dead-parameter"):
            preflight(model, slots, table, mode="strict")

    def test_strict_mode_requires_data(self, built):
        cfg, table, slots, dataset = built
        model = make_model(cfg, table, dataset)
        with pytest.raises(ValueError, match="slots and table"):
            preflight(model, mode="strict")

    def test_unknown_mode_rejected(self, built):
        cfg, *_ = built
        with pytest.raises(ValueError, match="mode"):
            preflight(cfg, mode="everything")
