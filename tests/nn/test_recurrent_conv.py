"""Tests for LSTM/BiLSTM/GRU and Conv1d/TextCNN."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from tests.helpers import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestLSTM:
    def test_shapes(self, rng):
        lstm = nn.LSTM(4, 6, rng)
        outputs, last = lstm(nn.Tensor(rng.normal(size=(3, 5, 4))))
        assert outputs.shape == (3, 5, 6)
        assert last.shape == (3, 6)

    def test_last_equals_final_step_without_mask(self, rng):
        lstm = nn.LSTM(4, 6, rng)
        outputs, last = lstm(nn.Tensor(rng.normal(size=(2, 5, 4))))
        np.testing.assert_allclose(last.data, outputs.data[:, -1])

    def test_mask_freezes_state_after_sequence_end(self, rng):
        lstm = nn.LSTM(3, 4, rng)
        x = rng.normal(size=(1, 6, 3))
        mask = np.array([[True, True, True, False, False, False]])
        _, last_masked = lstm(nn.Tensor(x), mask)
        _, last_short = lstm(nn.Tensor(x[:, :3]))
        np.testing.assert_allclose(last_masked.data, last_short.data, atol=1e-12)

    def test_padding_content_is_ignored(self, rng):
        lstm = nn.LSTM(3, 4, rng)
        x = rng.normal(size=(1, 5, 3))
        mask = np.array([[True, True, False, False, False]])
        x_garbage = x.copy()
        x_garbage[:, 2:] = 999.0
        _, a = lstm(nn.Tensor(x), mask)
        _, b = lstm(nn.Tensor(x_garbage), mask)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_gradients_flow_to_input(self, rng):
        lstm = nn.LSTM(2, 3, rng)

        def build(ts):
            _, last = lstm(ts[0])
            return F.sum(last)

        check_gradients(build, [rng.normal(size=(2, 3, 2))], rtol=1e-3)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = nn.LSTMCell(4, 5, rng)
        np.testing.assert_allclose(cell.bias.data[5:10], np.ones(5))

    def test_reverse_reads_backwards(self, rng):
        lstm_f = nn.LSTM(2, 3, rng)
        lstm_r = nn.LSTM(2, 3, np.random.default_rng(3), reverse=True)
        lstm_r.load_state_dict(lstm_f.state_dict())
        x = rng.normal(size=(1, 4, 2))
        _, last_f = lstm_f(nn.Tensor(x))
        _, last_r = lstm_r(nn.Tensor(x[:, ::-1].copy()))
        np.testing.assert_allclose(last_f.data, last_r.data, atol=1e-12)


class TestBiLSTM:
    def test_summary_width_is_double(self, rng):
        bi = nn.BiLSTM(4, 5, rng)
        summary = bi(nn.Tensor(rng.normal(size=(2, 6, 4))))
        assert bi.output_size == 10
        assert summary.shape == (2, 10)

    def test_summary_concatenates_directions(self, rng):
        bi = nn.BiLSTM(3, 4, rng)
        x = nn.Tensor(rng.normal(size=(2, 5, 3)))
        summary = bi(x)
        _, fwd = bi.forward_lstm(x)
        _, bwd = bi.backward_lstm(x)
        np.testing.assert_allclose(summary.data, np.concatenate([fwd.data, bwd.data], -1))

    def test_variable_lengths_in_one_batch(self, rng):
        bi = nn.BiLSTM(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0]], dtype=bool)
        summary = bi(nn.Tensor(x), mask)
        solo = bi(nn.Tensor(x[1:2, :2]))
        np.testing.assert_allclose(summary.data[1], solo.data[0], atol=1e-12)

    def test_gradcheck(self, rng):
        bi = nn.BiLSTM(2, 2, rng)

        def build(ts):
            return F.sum(bi(ts[0]))

        check_gradients(build, [rng.normal(size=(1, 3, 2))], rtol=1e-3)


class TestGRU:
    def test_shapes(self, rng):
        gru = nn.GRU(4, 6, rng)
        outputs, last = gru(nn.Tensor(rng.normal(size=(3, 5, 4))))
        assert outputs.shape == (3, 5, 6)
        assert last.shape == (3, 6)

    def test_mask_respected(self, rng):
        gru = nn.GRU(3, 4, rng)
        x = rng.normal(size=(1, 5, 3))
        mask = np.array([[True, True, False, False, False]])
        _, masked = gru(nn.Tensor(x), mask)
        _, short = gru(nn.Tensor(x[:, :2]))
        np.testing.assert_allclose(masked.data, short.data, atol=1e-12)

    def test_gradcheck(self, rng):
        gru = nn.GRU(2, 3, rng)

        def build(ts):
            _, last = gru(ts[0])
            return F.sum(last)

        check_gradients(build, [rng.normal(size=(2, 3, 2))], rtol=1e-3)


class TestConv:
    def test_conv_output_shape(self, rng):
        conv = nn.Conv1d(5, 8, 3, rng)
        out = conv(nn.Tensor(rng.normal(size=(2, 10, 5))))
        assert out.shape == (2, 8, 8)

    def test_conv_matches_manual_computation(self, rng):
        conv = nn.Conv1d(2, 1, 2, rng)
        x = rng.normal(size=(1, 4, 2))
        out = conv(nn.Tensor(x))
        for t in range(3):
            window = np.concatenate([x[0, t], x[0, t + 1]])
            expected = window @ conv.weight.data[:, 0] + conv.bias.data[0]
            assert out.data[0, t, 0] == pytest.approx(expected)

    def test_too_short_sequence_raises(self, rng):
        conv = nn.Conv1d(5, 8, 3, rng)
        with pytest.raises(ValueError):
            conv(nn.Tensor(rng.normal(size=(2, 2, 5))))

    def test_bad_kernel_raises(self, rng):
        with pytest.raises(ValueError):
            nn.Conv1d(5, 8, 0, rng)

    def test_textcnn_pools_over_time(self, rng):
        enc = nn.TextCNN(embed_dim=5, num_filters=7, kernel_size=3, rng=rng)
        out = enc(nn.Tensor(rng.normal(size=(4, 12, 5))))
        assert out.shape == (4, 7)
        assert (out.data >= 0).all()  # post-ReLU max is non-negative

    def test_textcnn_gradcheck(self, rng):
        enc = nn.TextCNN(embed_dim=2, num_filters=3, kernel_size=2, rng=rng)

        def build(ts):
            return F.sum(enc(ts[0]))

        check_gradients(build, [rng.normal(size=(2, 4, 2))], rtol=1e-3)
