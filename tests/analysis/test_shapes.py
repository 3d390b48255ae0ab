"""Symbolic shape checker: golden errors per layer + whole-model checks."""

import numpy as np
import pytest

import repro.nn as nn
from repro.analysis import (
    Dim,
    ShapeError,
    ShapeSpec,
    check_shapes,
    infer_shapes,
    scoped_env,
)
from repro.core.config import RRREConfig, fast_config


RNG = np.random.default_rng(0)


def spec(*dims, dtype="float64", name=""):
    return ShapeSpec(tuple(d if isinstance(d, Dim) else Dim.of(d) if isinstance(d, int) else Dim(d) for d in dims), dtype, name)


class TestDim:
    def test_symbolic_arithmetic(self):
        L = Dim("L")
        assert repr(L - 2) == "L-2"
        assert repr(L + 3) == "L+3"
        assert (L - 2) + 2 == L

    def test_concrete(self):
        assert Dim.of(64).is_concrete
        assert not Dim("B").is_concrete


class TestLayerSpecs:
    def test_linear_happy_path(self):
        layer = nn.Linear(8, 3, RNG)
        out = infer_shapes(layer, spec("B", 8))
        assert repr(out) == "(B, 3) float64"

    def test_linear_wrong_width_names_layer_and_axes(self):
        layer = nn.Linear(8, 3, RNG)
        with pytest.raises(ShapeError) as err:
            infer_shapes(layer, spec("B", 5))
        message = str(err.value)
        assert "Linear" in message
        assert "5" in message and "8" in message

    def test_embedding_rejects_float_indices(self):
        layer = nn.Embedding(10, 4, RNG)
        with pytest.raises(ShapeError) as err:
            infer_shapes(layer, spec("B", "T", dtype="float64"))
        assert "Embedding" in str(err.value)
        assert "int64" in str(err.value)

    def test_conv1d_shortens_length_symbolically(self):
        layer = nn.Conv1d(4, 6, 3, RNG)
        out = infer_shapes(layer, spec("B", "L", 4))
        assert repr(out) == "(B, L-2, 6) float64"

    def test_conv1d_rejects_too_short_sequence(self):
        layer = nn.Conv1d(4, 6, 5, RNG)
        with pytest.raises(ShapeError) as err:
            infer_shapes(layer, spec("B", 3, 4))
        assert "Conv1d" in str(err.value)

    def test_lstm_returns_sequence_and_summary(self):
        layer = nn.LSTM(4, 6, RNG)
        seq, last = infer_shapes(layer, spec("B", "T", 4))
        assert repr(seq) == "(B, T, 6) float64"
        assert repr(last) == "(B, 6) float64"

    def test_bilstm_concatenates_directions(self):
        layer = nn.BiLSTM(4, 3, RNG)
        summary = infer_shapes(layer, spec("B", "T", 4))
        assert repr(summary) == "(B, 6) float64"

    def test_review_attention_unifies_batch(self):
        layer = nn.ReviewAttention(
            review_dim=4, own_dim=3, other_dim=3, attention_dim=5, rng=RNG
        )
        pooled, weights = infer_shapes(
            layer, spec("B", "M", 4), spec("B", 3), spec("B", "M", 3)
        )
        assert repr(pooled) == "(B, 4) float64"
        assert repr(weights) == "(B, M) float64"

    def test_review_attention_batch_mismatch_is_an_error(self):
        # Two distinct *symbols* legally unify (one binds to the other);
        # two distinct *concrete* batch sizes must not.
        layer = nn.ReviewAttention(
            review_dim=4, own_dim=3, other_dim=3, attention_dim=5, rng=RNG
        )
        with pytest.raises(ShapeError):
            infer_shapes(layer, spec(2, "M", 4), spec(3, 3), spec(2, "M", 3))

    def test_fm_names_mismatched_axis(self):
        layer = nn.FactorizationMachine(7, 4, RNG)
        with pytest.raises(ShapeError) as err:
            infer_shapes(layer, spec("B", 16, name="z"))
        message = str(err.value)
        assert "FactorizationMachine" in message
        assert "16" in message and "7" in message

    def test_composite_blames_the_failing_child(self):
        layer = nn.TextCNN(5, 3, 2, RNG)
        with pytest.raises(ShapeError) as err:
            infer_shapes(layer, spec("B", 6, 4))
        assert "conv (Conv1d)" in str(err.value)

    def test_unimplemented_module_raises_not_implemented(self):
        class Custom(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(NotImplementedError):
            Custom().shape_spec(spec("B", 4))


class TestSymbolBinding:
    def test_symbols_unify_within_one_env(self):
        with scoped_env():
            a = infer_shapes(nn.Linear(4, 4, RNG), spec("B", 4))
            # Same symbol in a fresh env call — no leakage between envs.
        with scoped_env():
            b = infer_shapes(nn.Linear(4, 9, RNG), spec("B", 4))
        assert repr(a) == "(B, 4) float64"
        assert repr(b) == "(B, 9) float64"


class TestWholeModel:
    @pytest.mark.parametrize("encoder", ["bilstm", "cnn", "mean"])
    def test_all_encoders_validate(self, encoder):
        report = check_shapes(fast_config(encoder=encoder))
        assert report.ok
        assert report.shapes["rating"] == "(B) float64"
        assert report.shapes["reliability_logits"] == "(B, 2) float64"

    def test_mean_pooling_validates(self):
        report = check_shapes(fast_config(pooling="mean"))
        assert report.ok

    def test_default_config_validates(self):
        assert check_shapes(RRREConfig()).ok

    def test_sabotaged_model_fails_with_layer_name(self):
        from repro.core.model import RRRE

        cfg = fast_config()
        model = RRRE(cfg, num_users=5, num_items=5, vocab_size=11)
        # Swap the FM for one with the wrong input width.
        model.fm = nn.FactorizationMachine(7, 4, RNG)
        with pytest.raises(ShapeError) as err:
            check_shapes(model)
        message = str(err.value)
        assert "fm" in message
        assert "7" in message

    def test_non_strict_captures_error_in_report(self):
        from repro.core.model import RRRE

        cfg = fast_config()
        model = RRRE(cfg, num_users=5, num_items=5, vocab_size=11)
        model.reliability_head = nn.Linear(3, 2, RNG)
        report = check_shapes(model, strict=False)
        assert not report.ok
        assert "reliability_head" in report.error

    def test_rejects_unknown_target(self):
        with pytest.raises(TypeError):
            check_shapes(42)
