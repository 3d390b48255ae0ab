"""Finite-difference gradient checks for every differentiable op.

These are the load-bearing tests of the whole repository: every model's
correctness reduces to these vector-Jacobian products being right.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from tests.helpers import check_gradients

RNG = np.random.default_rng(12345)


def rand(*shape):
    return RNG.normal(size=shape)


class TestElementwiseGrads:
    def test_add(self):
        check_gradients(lambda ts: F.sum(F.add(ts[0], ts[1])), [rand(3, 4), rand(3, 4)])

    def test_add_broadcast(self):
        check_gradients(lambda ts: F.sum(F.add(ts[0], ts[1])), [rand(3, 4), rand(4)])

    def test_sub(self):
        check_gradients(lambda ts: F.sum(F.sub(ts[0], ts[1])), [rand(2, 3), rand(2, 3)])

    def test_mul_broadcast(self):
        check_gradients(lambda ts: F.sum(F.mul(ts[0], ts[1])), [rand(2, 3), rand(3)])

    def test_div(self):
        a, b = rand(3, 3), rand(3, 3) + 3.0
        check_gradients(lambda ts: F.sum(F.div(ts[0], ts[1])), [a, b])

    def test_neg(self):
        check_gradients(lambda ts: F.sum(F.neg(ts[0])), [rand(4)])

    def test_power(self):
        check_gradients(lambda ts: F.sum(F.power(ts[0], 3.0)), [rand(3) + 2.0])

    def test_sqrt(self):
        check_gradients(lambda ts: F.sum(F.sqrt(ts[0])), [np.abs(rand(4)) + 1.0])

    def test_absolute(self):
        check_gradients(lambda ts: F.sum(F.absolute(ts[0])), [rand(5) + 3.0])

    def test_maximum(self):
        a, b = rand(4), rand(4)
        b += np.where(np.abs(a - b) < 1e-3, 0.1, 0.0)  # avoid kink at ties
        check_gradients(lambda ts: F.sum(F.maximum(ts[0], ts[1])), [a, b])

    def test_clip_interior(self):
        a = rand(5) * 0.1  # keep away from the clip boundaries
        check_gradients(lambda ts: F.sum(F.clip(ts[0], -1.0, 1.0)), [a])

    def test_clip_blocks_gradient_outside(self):
        x = Tensor(np.array([-5.0, 0.0, 5.0]), requires_grad=True)
        F.sum(F.clip(x, -1.0, 1.0)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestNonlinearityGrads:
    def test_exp(self):
        check_gradients(lambda ts: F.sum(F.exp(ts[0])), [rand(3, 2)])

    def test_log(self):
        check_gradients(lambda ts: F.sum(F.log(ts[0])), [np.abs(rand(4)) + 1.0])

    def test_tanh(self):
        check_gradients(lambda ts: F.sum(F.tanh(ts[0])), [rand(3, 3)])

    def test_sigmoid(self):
        check_gradients(lambda ts: F.sum(F.sigmoid(ts[0])), [rand(3, 3)])

    def test_sigmoid_extreme_values_stable(self):
        out = F.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_relu(self):
        a = rand(4, 4)
        a += np.where(np.abs(a) < 1e-3, 0.1, 0.0)  # avoid the kink
        check_gradients(lambda ts: F.sum(F.relu(ts[0])), [a])

    def test_softmax(self):
        weights = rand(6)
        check_gradients(
            lambda ts: F.sum(F.softmax(ts[0], axis=-1) * Tensor(weights)), [rand(6)]
        )

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(rand(5, 7)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5))

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([1e8, 1e8 + 1.0])))
        assert np.isfinite(out.data).all()

    def test_log_softmax(self):
        weights = rand(2, 5)
        check_gradients(
            lambda ts: F.sum(F.log_softmax(ts[0], axis=-1) * Tensor(weights)),
            [rand(2, 5)],
        )

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rand(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(x, axis=-1).data,
            np.log(F.softmax(x, axis=-1).data),
            atol=1e-12,
        )


class TestMatmulGrads:
    def test_2d_2d(self):
        check_gradients(lambda ts: F.sum(F.matmul(ts[0], ts[1])), [rand(3, 4), rand(4, 2)])

    def test_batched_3d_3d(self):
        check_gradients(
            lambda ts: F.sum(F.matmul(ts[0], ts[1])), [rand(2, 3, 4), rand(2, 4, 5)]
        )

    def test_3d_2d_broadcast(self):
        check_gradients(
            lambda ts: F.sum(F.matmul(ts[0], ts[1])), [rand(2, 3, 4), rand(4, 5)]
        )

    def test_1d_1d_dot(self):
        check_gradients(lambda ts: F.matmul(ts[0], ts[1]), [rand(5), rand(5)])

    def test_2d_1d(self):
        check_gradients(lambda ts: F.sum(F.matmul(ts[0], ts[1])), [rand(3, 5), rand(5)])

    def test_1d_2d(self):
        check_gradients(lambda ts: F.sum(F.matmul(ts[0], ts[1])), [rand(5), rand(5, 3)])


class TestShapeGrads:
    def test_reshape(self):
        w = rand(6)
        check_gradients(lambda ts: F.sum(F.reshape(ts[0], (6,)) * Tensor(w)), [rand(2, 3)])

    def test_transpose_default(self):
        w = rand(4, 3)
        check_gradients(lambda ts: F.sum(F.transpose(ts[0]) * Tensor(w)), [rand(3, 4)])

    def test_transpose_axes(self):
        w = rand(4, 2, 3)
        check_gradients(
            lambda ts: F.sum(F.transpose(ts[0], (2, 0, 1)) * Tensor(w)), [rand(2, 3, 4)]
        )

    def test_getitem_slice(self):
        check_gradients(lambda ts: F.sum(F.getitem(ts[0], (slice(None), 1))), [rand(3, 4)])

    def test_getitem_fancy_repeated_indices_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        F.sum(F.getitem(x, np.array([0, 0, 2]))).backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_concat(self):
        w = rand(2, 7)
        check_gradients(
            lambda ts: F.sum(F.concat([ts[0], ts[1]], axis=1) * Tensor(w)),
            [rand(2, 3), rand(2, 4)],
        )

    def test_stack(self):
        w = rand(2, 3)
        check_gradients(
            lambda ts: F.sum(F.stack([ts[0], ts[1]], axis=0) * Tensor(w)),
            [rand(3), rand(3)],
        )

    def test_split_roundtrips_concat(self):
        x = Tensor(rand(2, 6), requires_grad=True)
        parts = F.split(x, 3, axis=1)
        assert [p.shape for p in parts] == [(2, 2)] * 3
        F.sum(F.concat(parts, axis=1)).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 6)))

    def test_expand_squeeze(self):
        check_gradients(
            lambda ts: F.sum(F.squeeze(F.expand_dims(ts[0], 1), axis=1)), [rand(3, 4)]
        )


class TestReductionGrads:
    def test_sum_all(self):
        check_gradients(lambda ts: F.sum(ts[0]), [rand(3, 4)])

    def test_sum_axis(self):
        w = rand(4)
        check_gradients(lambda ts: F.sum(F.sum(ts[0], axis=0) * Tensor(w)), [rand(3, 4)])

    def test_sum_keepdims(self):
        w = rand(3, 1)
        check_gradients(
            lambda ts: F.sum(F.sum(ts[0], axis=1, keepdims=True) * Tensor(w)),
            [rand(3, 4)],
        )

    def test_mean_all(self):
        check_gradients(lambda ts: F.mean(ts[0]), [rand(2, 5)])

    def test_mean_axis_tuple(self):
        w = rand(3)
        check_gradients(
            lambda ts: F.sum(F.mean(ts[0], axis=(0, 2)) * Tensor(w)),
            [rand(2, 3, 4)],
        )

    def test_max_axis(self):
        a = rand(3, 5)
        w = rand(3)
        check_gradients(lambda ts: F.sum(F.max(ts[0], axis=1) * Tensor(w)), [a])

    def test_max_tie_sends_gradient_to_first(self):
        x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        F.sum(F.max(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[1.0, 0.0, 0.0]])


class TestLookupAndMasking:
    def test_take_rows_grad(self):
        weight = rand(6, 4)
        indices = np.array([[0, 2], [2, 5]])

        def build(ts):
            return F.sum(F.take_rows(ts[0], indices))

        check_gradients(build, [weight])

    @pytest.mark.parametrize(
        "indices",
        [
            np.array([3, 3, 0, 3, 7, 0]),  # repeated
            np.array([-1, 2, -8, 7, -1]),  # negative, aliasing positive rows
            np.array([[1, 1, 4], [6, -2, 1]]),  # multi-dimensional
            np.zeros((0, 2), dtype=np.int64),  # empty
        ],
    )
    def test_take_rows_grad_bitwise_matches_add_at(self, indices):
        weight = Tensor(rand(8, 5), requires_grad=True)
        out = F.take_rows(weight, indices)
        g = np.random.default_rng(1).normal(size=out.shape)
        out.backward(g)
        expected = np.zeros((8, 5))
        np.add.at(expected, indices.reshape(-1), g.reshape(-1, 5))
        assert np.array_equal(weight.grad, expected)

    def test_take_rows_shape(self):
        out = F.take_rows(Tensor(rand(10, 3)), np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 3)

    def test_masked_fill_blocks_gradient(self):
        x = Tensor(rand(2, 3), requires_grad=True)
        mask = np.array([[True, False, False], [False, False, True]])
        out = F.masked_fill(x, mask, -999.0)
        assert out.data[0, 0] == -999.0
        F.sum(out).backward()
        np.testing.assert_allclose(x.grad, (~mask).astype(float))

    def test_where_grad(self):
        cond = np.array([True, False, True, False])
        check_gradients(
            lambda ts: F.sum(F.where(cond, ts[0], ts[1])), [rand(4), rand(4)]
        )

    def test_dropout_eval_is_identity(self):
        x = Tensor(rand(5, 5))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(rand(5))
        assert F.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(7))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))
