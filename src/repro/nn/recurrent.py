"""Recurrent layers: LSTM / BiLSTM (Sec III-C of the paper) and GRU (DER).

Sequences are batched as ``(B, L, d)``.  An optional boolean mask
``(B, L)`` marks real tokens; masked steps carry the previous hidden
state forward so zero padding never contaminates the summary vector.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class LSTMCell(Module):
    """Single LSTM step with fused gate weights.

    Gates are packed ``[input, forget, cell, output]`` along the last axis
    of the fused ``(input_size + hidden_size, 4 * hidden_size)`` weight.
    The forget-gate bias starts at 1.0 (standard trick for gradient flow).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight = Parameter(
            init.xavier_uniform((input_size + hidden_size, 4 * hidden_size), rng), name="W"
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias, name="b")

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> Tuple[Tensor, Tensor]:
        """Advance one step: returns ``(h_next, c_next)`` for input ``(B, d)``."""
        combined = F.concat([x, h], axis=-1)
        gates = F.matmul(combined, self.weight) + self.bias
        i_gate, f_gate, g_gate, o_gate = F.split(gates, 4, axis=-1)
        i_gate = F.sigmoid(i_gate)
        f_gate = F.sigmoid(f_gate)
        g_gate = F.tanh(g_gate)
        o_gate = F.sigmoid(o_gate)
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * F.tanh(c_next)
        return h_next, c_next

    def shape_spec(self, x, h, c):
        from repro.analysis import shapes as S

        layer = f"LSTMCell(in={self.input_size}, hidden={self.hidden_size})"
        for what, spec in (("x", x), ("h", h), ("c", c)):
            S.expect_ndim(spec, 2, layer=layer, what=what)
            S.expect_dtype(spec, "float64", layer=layer, what=what)
        S.expect_axis(x, -1, self.input_size, layer=layer, what="input feature axis")
        S.expect_axis(h, -1, self.hidden_size, layer=layer, what="hidden state width")
        S.expect_axis(c, -1, self.hidden_size, layer=layer, what="cell state width")
        batch = S.unify(x.dims[0], h.dims[0], what="batch axis", layer=layer)
        batch = S.unify(batch, c.dims[0], what="batch axis", layer=layer)
        out = S.ShapeSpec((batch, self.hidden_size), "float64")
        return out, out


class LSTM(Module):
    """Unidirectional LSTM over ``(B, L, d)`` sequences.

    ``forward`` returns ``(outputs, last_hidden)`` where ``outputs`` is
    ``(B, L, H)`` and ``last_hidden`` is the hidden state at the final
    *real* token of each sequence (per the mask).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        reverse: bool = False,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.reverse = reverse

    def forward(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        batch, length, _ = x.shape
        if mask is None:
            mask = np.ones((batch, length), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)

        h = Tensor(np.zeros((batch, self.hidden_size)))
        c = Tensor(np.zeros((batch, self.hidden_size)))
        steps = range(length - 1, -1, -1) if self.reverse else range(length)
        outputs: list = [None] * length
        for t in steps:
            x_t = F.getitem(x, (slice(None), t))
            h_new, c_new = self.cell(x_t, h, c)
            step_mask = mask[:, t : t + 1]
            # Masked positions keep the previous state.
            h = F.where(step_mask, h_new, h)
            c = F.where(step_mask, c_new, c)
            outputs[t] = h
        stacked = F.stack(outputs, axis=1)
        return stacked, h

    def shape_spec(self, x, mask=None):
        from repro.analysis import shapes as S

        layer = f"LSTM(in={self.cell.input_size}, hidden={self.hidden_size})"
        S.expect_ndim(x, 3, layer=layer)
        S.expect_dtype(x, "float64", layer=layer)
        S.expect_axis(x, -1, self.cell.input_size, layer=layer, what="input feature axis")
        batch, length = x.dims[0], x.dims[1]
        if mask is not None:
            S.expect_ndim(mask, 2, layer=layer, what="mask")
            S.expect_dtype(mask, "bool", layer=layer, what="mask")
            batch = S.unify(batch, mask.dims[0], what="mask batch axis", layer=layer)
            length = S.unify(length, mask.dims[1], what="mask length axis", layer=layer)
        H = S.Dim.of(self.hidden_size)
        return (
            S.ShapeSpec((batch, length, H), "float64"),
            S.ShapeSpec((batch, H), "float64"),
        )


class BiLSTM(Module):
    """Bidirectional LSTM; returns the summary ``h_forward ⊕ h_backward`` (Eq. 4).

    The summary width is ``2 * hidden_size``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.forward_lstm = LSTM(input_size, hidden_size, rng, reverse=False)
        self.backward_lstm = LSTM(input_size, hidden_size, rng, reverse=True)
        self.output_size = 2 * hidden_size
        #: Planned executor slot (:class:`repro.plan.PlannedBiLSTM`); set
        #: by ``ExecutionPlan.install`` to run both directions through one
        #: fused step loop, bypassing the child LSTMs. ``None`` =
        #: interpreted mode.
        self._planned = None

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Return the summary ``(B, 2H)``: each direction's last real-token state."""
        if self._planned is not None:
            return self._planned(x, mask)
        _, fwd_last = self.forward_lstm(x, mask)
        _, bwd_last = self.backward_lstm(x, mask)
        return F.concat([fwd_last, bwd_last], axis=-1)

    def shape_spec(self, x, mask=None):
        from repro.analysis import shapes as S

        _, fwd_last = S.apply_spec(self.forward_lstm, "forward_lstm", x, mask)
        _, bwd_last = S.apply_spec(self.backward_lstm, "backward_lstm", x, mask)
        return S.concat_spec([fwd_last, bwd_last], axis=-1, layer="BiLSTM summary")


class GRUCell(Module):
    """Single GRU step (update/reset gates fused; candidate separate)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.weight_zr = Parameter(
            init.xavier_uniform((input_size + hidden_size, 2 * hidden_size), rng), name="Wzr"
        )
        self.bias_zr = Parameter(init.zeros((2 * hidden_size,)), name="bzr")
        self.weight_h = Parameter(
            init.xavier_uniform((input_size + hidden_size, hidden_size), rng), name="Wh"
        )
        self.bias_h = Parameter(init.zeros((hidden_size,)), name="bh")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = F.concat([x, h], axis=-1)
        zr = F.sigmoid(F.matmul(combined, self.weight_zr) + self.bias_zr)
        z, r = F.split(zr, 2, axis=-1)
        candidate_in = F.concat([x, r * h], axis=-1)
        h_tilde = F.tanh(F.matmul(candidate_in, self.weight_h) + self.bias_h)
        return (1.0 - z) * h + z * h_tilde

    def shape_spec(self, x, h):
        from repro.analysis import shapes as S

        input_size = self.weight_h.shape[0] - self.hidden_size
        layer = f"GRUCell(in={input_size}, hidden={self.hidden_size})"
        for what, spec in (("x", x), ("h", h)):
            S.expect_ndim(spec, 2, layer=layer, what=what)
            S.expect_dtype(spec, "float64", layer=layer, what=what)
        S.expect_axis(x, -1, input_size, layer=layer, what="input feature axis")
        S.expect_axis(h, -1, self.hidden_size, layer=layer, what="hidden state width")
        batch = S.unify(x.dims[0], h.dims[0], what="batch axis", layer=layer)
        return S.ShapeSpec((batch, self.hidden_size), "float64")


class GRU(Module):
    """Unidirectional GRU over ``(B, L, d)``; returns ``(outputs, last)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        batch, length, _ = x.shape
        if mask is None:
            mask = np.ones((batch, length), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        h = Tensor(np.zeros((batch, self.hidden_size)))
        outputs = []
        for t in range(length):
            x_t = F.getitem(x, (slice(None), t))
            h_new = self.cell(x_t, h)
            h = F.where(mask[:, t : t + 1], h_new, h)
            outputs.append(h)
        return F.stack(outputs, axis=1), h

    def shape_spec(self, x, mask=None):
        from repro.analysis import shapes as S

        input_size = self.cell.weight_h.shape[0] - self.hidden_size
        layer = f"GRU(in={input_size}, hidden={self.hidden_size})"
        S.expect_ndim(x, 3, layer=layer)
        S.expect_dtype(x, "float64", layer=layer)
        S.expect_axis(x, -1, input_size, layer=layer, what="input feature axis")
        batch, length = x.dims[0], x.dims[1]
        if mask is not None:
            S.expect_ndim(mask, 2, layer=layer, what="mask")
            S.expect_dtype(mask, "bool", layer=layer, what="mask")
            batch = S.unify(batch, mask.dims[0], what="mask batch axis", layer=layer)
            length = S.unify(length, mask.dims[1], what="mask length axis", layer=layer)
        H = S.Dim.of(self.hidden_size)
        return (
            S.ShapeSpec((batch, length, H), "float64"),
            S.ShapeSpec((batch, H), "float64"),
        )
