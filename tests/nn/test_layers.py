"""Tests for Linear, Embedding, Dropout and Module base."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from tests.helpers import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(5, 3, rng)
        out = layer(nn.Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_batched_3d_input(self, rng):
        layer = nn.Linear(5, 3, rng)
        out = layer(nn.Tensor(rng.normal(size=(2, 7, 5))))
        assert out.shape == (2, 7, 3)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, rng, bias=False)
        assert layer.bias is None
        out = layer(nn.Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, np.zeros((1, 2)))

    def test_gradients(self, rng):
        layer = nn.Linear(4, 3, rng)
        x = rng.normal(size=(2, 4))

        def build(ts):
            layer.weight.data = ts[0].data
            layer.bias.data = ts[1].data
            saved_w, saved_b = layer.weight, layer.bias
            layer.weight, layer.bias = ts[0], ts[1]
            out = F.sum(layer(nn.Tensor(x)))
            layer.weight, layer.bias = saved_w, saved_b
            return out

        check_gradients(build, [layer.weight.data.copy(), layer.bias.data.copy()])

    def test_parameters_registered(self, rng):
        layer = nn.Linear(4, 3, rng)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_two_layers_learn_xor(self, rng):
        # End-to-end sanity: gradient descent actually fits a tiny task.
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        hidden, out = nn.Linear(2, 8, rng), nn.Linear(8, 1, rng)

        def predict():
            return F.squeeze(out(F.tanh(hidden(nn.Tensor(x)))), axis=1)

        opt = nn.Adam(hidden.parameters() + out.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = nn.mse_loss(predict(), y)
            loss.backward()
            opt.step()
        assert np.abs(predict().data - y).max() < 0.2


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = nn.Embedding(10, 6, rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_padding_row_is_zero(self, rng):
        emb = nn.Embedding(10, 6, rng, padding_idx=0)
        np.testing.assert_allclose(emb.weight.data[0], np.zeros(6))

    def test_out_of_range_raises(self, rng):
        emb = nn.Embedding(10, 6, rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatters_to_used_rows(self, rng):
        emb = nn.Embedding(5, 3, rng)
        out = emb(np.array([1, 1, 3]))
        F.sum(out).backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[1], np.full(3, 2.0))
        np.testing.assert_allclose(grad[3], np.ones(3))
        np.testing.assert_allclose(grad[0], np.zeros(3))

    def test_load_pretrained(self, rng):
        emb = nn.Embedding(4, 2, rng)
        vectors = np.arange(8.0).reshape(4, 2)
        emb.load_pretrained(vectors)
        np.testing.assert_allclose(emb.weight.data, vectors)

    def test_load_pretrained_bad_shape_raises(self, rng):
        emb = nn.Embedding(4, 2, rng)
        with pytest.raises(ValueError):
            emb.load_pretrained(np.zeros((4, 3)))

    def test_zero_size_raises(self, rng):
        with pytest.raises(ValueError):
            nn.Embedding(0, 2, rng)


class TestDropoutLayer:
    def test_train_mode_zeroes_some(self, rng):
        layer = nn.Dropout(0.5, rng)
        layer.train()
        out = layer(nn.Tensor(np.ones((100, 100))))
        assert (out.data == 0).any()

    def test_eval_mode_identity(self, rng):
        layer = nn.Dropout(0.5, rng)
        layer.eval()
        x = nn.Tensor(np.ones((3, 3)))
        assert layer(x) is x

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            nn.Dropout(1.5, rng)


class TestModuleBase:
    def test_nested_parameter_discovery(self, rng):
        class Outer(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Linear(2, 2, rng)
                self.blocks = [nn.Linear(2, 2, rng), nn.Linear(2, 2, rng)]
                self.scale = nn.Parameter(np.ones(1))

        outer = Outer()
        names = {name for name, _ in outer.named_parameters()}
        assert "inner.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "scale" in names
        assert outer.num_parameters() == 1 + 3 * (4 + 2)

    def test_train_eval_recurses_into_lists(self, rng):
        class Holder(nn.Module):
            def __init__(self):
                super().__init__()
                self.drops = [nn.Dropout(0.5, rng)]

        holder = Holder()
        holder.eval()
        assert not holder.drops[0].training
        holder.train()
        assert holder.drops[0].training

    def test_state_dict_roundtrip(self, rng):
        a = nn.Linear(3, 3, rng)
        b = nn.Linear(3, 3, np.random.default_rng(7))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_is_a_copy(self, rng):
        layer = nn.Linear(2, 2, rng)
        snap = layer.state_dict()
        layer.weight.data += 1.0
        assert not np.allclose(snap["weight"], layer.weight.data)

    def test_load_state_dict_missing_key_raises(self, rng):
        layer = nn.Linear(2, 2, rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        layer = nn.Linear(2, 2, rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_zero_grad_clears_all(self, rng):
        layer = nn.Linear(2, 2, rng)
        F.sum(layer(nn.Tensor(np.ones((1, 2))))).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None
