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


class PlanSafetyError(RuntimeError):
    """A fused backward found its forward-time state stale.

    Raised by :meth:`BiLSTM.forward`'s backward when the state recorded
    at forward time is no longer trustworthy: a parameter or the input
    was rebound in between (its ``version`` counter moved, e.g. an
    optimizer step ran before ``backward()``), or the tape was already
    backpropagated once, which overwrote its activations with gate
    gradients.  :meth:`BiLSTM.reference_forward` would silently return
    gradients computed from the wrong arrays in the same situations.
    """


def _check_versions(captured) -> None:
    """Raise :class:`PlanSafetyError` when a captured tensor was mutated."""
    for tensor, version, label in captured:
        if tensor.version != version:
            raise PlanSafetyError(
                f"BiLSTM: {label} was mutated between forward and backward "
                f"(version {version} -> {tensor.version}); the fused backward "
                "requires parameters and inputs to stay frozen until the tape "
                "is consumed."
            )


class BiLSTM(Module):
    """Bidirectional LSTM; returns the summary ``h_forward ⊕ h_backward`` (Eq. 4).

    The summary width is ``2 * hidden_size``.  :meth:`forward` runs both
    directions through one fused step loop and records one tape node;
    :meth:`reference_forward` is the same function composed from the two
    child :class:`LSTM` layers, which also own the parameters (so
    ``state_dict`` keys name them).

    The fused loop stores everything feature-major (states
    ``(L+1, 2, H, B)``, gate activations ``(L, 2, 4H, B)``), so each
    gate is one contiguous ``H×B`` slab per direction and every
    elementwise op runs two long inner loops instead of ``2B`` rows of
    ``H`` floats.  Step ``s`` advances the forward direction at time
    ``s`` and the reverse one at ``L-1-s``; its input per direction is
    ``z = [x_t; 1; h_prev]`` (``K = D+1+H`` rows), so each step is one
    ``(2, 4H, K) @ (2, K, B)`` GEMM, bias included, written straight
    into the activations.  Gate rows run ``[i, f, o, g]`` with the
    sigmoid rows' weights pre-halved (exact), so one ``np.tanh`` covers
    the whole block and ``+1, ×0.5`` finishes the three sigmoids.
    Backward replays the stored activations with hand-derived BPTT,
    writing each step's gate gradients over that step's activations;
    ``dx`` and the weight grads (one ``dpre @ z^T`` per step and
    direction, summed) are batched matmuls over all steps.

    Numerical parity: every expression either reuses the reference op's
    exact form or reorders only across bitwise-safe boundaries (commuted
    IEEE-754 operations; the halved sigmoid-row weights).  The true
    reassociations (gate pre-activations summed in another order than
    ``concat([x, h])@W + b``, parameter grads summed over steps in one
    batched reduction) are covered by the ≤1e-9 parity suite.

    Scratch is allocated per call.  The forward state backward reads
    (``z``, ``c``, ``acts``, ``tanh_c``, the step masks) is held by the
    backward closure and released when backward has run or the tape is
    dropped; backward's own scratch lives for the call.  The summary and
    the returned gradients are fresh arrays.  Backward re-checks the
    version counters captured at forward time, runs at most once per
    forward, and raises :class:`PlanSafetyError` on a conflict.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.forward_lstm = LSTM(input_size, hidden_size, rng, reverse=False)
        self.backward_lstm = LSTM(input_size, hidden_size, rng, reverse=True)
        self.output_size = 2 * hidden_size

    def reference_forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """The summary composed from the child LSTMs' tape ops (parity reference)."""
        _, fwd_last = self.forward_lstm(x, mask)
        _, bwd_last = self.backward_lstm(x, mask)
        return F.concat([fwd_last, bwd_last], axis=-1)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Return the summary ``(B, 2H)``: each direction's last real-token state."""
        cell_f = self.forward_lstm.cell
        cell_r = self.backward_lstm.cell
        H = cell_f.hidden_size
        D = cell_f.input_size
        K = D + 1 + H
        W_f, b_f = cell_f.weight, cell_f.bias
        W_r, b_r = cell_r.weight, cell_r.bias
        batch, length, _ = x.shape
        if mask is None:
            mask_arr = np.ones((batch, length), dtype=bool)
        else:
            mask_arr = np.asarray(mask, dtype=bool)

        captured = (
            (W_f, W_f.version, "forward LSTM weight"),
            (b_f, b_f.version, "forward LSTM bias"),
            (W_r, W_r.version, "reverse LSTM weight"),
            (b_r, b_r.version, "reverse LSTM bias"),
            (x, x.version, "BiLSTM input"),
        )

        # Per direction W is [Wx; b; Wh] with gate columns [i, f, o, g];
        # swapping the g/o blocks is its own inverse, so ``order`` also
        # maps the gradients back.  WT has the sigmoid rows halved.
        order = np.r_[: 2 * H, 3 * H : 4 * H, 2 * H : 3 * H]
        W = np.stack(
            [np.vstack([W_f.data[:D], b_f.data, W_f.data[D:]]),
             np.vstack([W_r.data[:D], b_r.data, W_r.data[D:]])]
        )[..., order]  # (2, K, 4H)
        WT = W.transpose(0, 2, 1).copy()  # (2, 4H, K)
        WT[:, : 3 * H] *= 0.5

        # z[s] per direction, feature-major; direction 1 reads time
        # L-1-s.  h is z's state slice.
        z = np.empty((length + 1, 2, K, batch))
        z[:length, 0, :D] = x.data.transpose(1, 2, 0)
        z[:length, 1, :D] = x.data[:, ::-1].transpose(1, 2, 0)
        z[:, :, D] = 1.0
        h = z[:, :, D + 1 :]
        h[0].fill(0.0)
        c = np.empty((length + 1, 2, H, batch))
        c[0].fill(0.0)
        # Step masks at state shape: live columns take the new state,
        # held (masked) columns carry the previous one.
        live = np.empty((length, 2, H, batch), dtype=bool)
        live[:, 0] = mask_arr.T[:, None]
        live[:, 1] = mask_arr.T[::-1, None]
        held = ~live

        acts = np.empty((length, 2, 4 * H, batch))
        gate_views = acts.reshape(length, 2, 4, H, batch).swapaxes(1, 2)
        tanh_c = np.empty((length, 2, H, batch))
        tmp = np.empty((2, H, batch))
        for s in range(length):
            np.matmul(WT, z[s], out=acts[s])
            np.tanh(acts[s], out=acts[s])
            acts[s, :, : 3 * H] += 1.0
            acts[s, :, : 3 * H] *= 0.5
            i, f, o, g = gate_views[s]
            # c' = f*c + i*g ; h' = o*tanh(c') ; held columns keep c, h.
            np.multiply(f, c[s], out=c[s + 1])
            np.multiply(i, g, out=tmp)
            c[s + 1] += tmp
            np.tanh(c[s + 1], out=tanh_c[s])
            np.multiply(o, tanh_c[s], out=h[s + 1])
            np.putmask(h[s + 1], held[s], h[s])
            np.putmask(c[s + 1], held[s], c[s])

        # Both directions end at step L-1: h[L] holds the summary.
        summary = np.concatenate([h[length, 0].T, h[length, 1].T], axis=1)
        # What backward reads; it empties the list, so the scratch is
        # freed as soon as backward has run.
        saved = [z, c, acts, tanh_c, live]

        def fused_bilstm(grad: np.ndarray):
            if not saved:
                raise PlanSafetyError(
                    "BiLSTM: second backward through one fused forward; the "
                    "first overwrote its activations with gate gradients. "
                    "Run a new forward before each backward."
                )
            _check_versions(captured)
            z, c, acts, tanh_c, live = saved
            saved.clear()
            gate_views = acts.reshape(length, 2, 4, H, batch).swapaxes(1, 2)
            dh_next = np.empty((2, H, batch))
            dh_next[0] = grad[:, :H].T
            dh_next[1] = grad[:, H:].T
            dc_next = np.zeros((2, H, batch))
            dh_new = np.empty((2, H, batch))
            dc_new = np.empty((2, H, batch))
            hs = np.empty((2, H, batch))
            tmp = np.empty((2, H, batch))
            prod = np.empty((2, 3 * H, batch))
            one_minus = np.empty((2, 3 * H, batch))
            for s in range(length - 1, -1, -1):
                np.multiply(dh_next, live[s], out=dh_new)
                np.multiply(dc_next, live[s], out=dc_new)
                i, f, o, g = gate_views[s]
                tc = tanh_c[s]
                # dc' += dh'*o*(1-tanh(c')^2)
                np.multiply(dh_new, o, out=hs)
                np.multiply(tc, tc, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                hs *= tmp
                dc_new += hs
                # Read every gate before acts[s] turns into gate grads:
                # sigmoid-row products [dc'*g, dc'*c, dh'*tanh(c')] and
                # 1-s; the cell carry dc'*f (live columns) goes straight
                # to dc_next, whose old value dc_new already holds.
                np.multiply(dc_new, g, out=prod[:, :H])
                np.multiply(dc_new, c[s], out=prod[:, H : 2 * H])
                np.multiply(dh_new, tc, out=prod[:, 2 * H :])
                np.subtract(1.0, acts[s, :, : 3 * H], out=one_minus)
                np.multiply(dc_new, f, out=tmp)
                np.putmask(dc_next, live[s], tmp)
                # Cell candidate row: dc'*i*(1-g^2), before i is overwritten.
                np.multiply(g, g, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                np.multiply(dc_new, i, out=g)
                g *= tmp
                # Sigmoid rows: s*prod*(1-s).
                acts[s, :, : 3 * H] *= prod
                acts[s, :, : 3 * H] *= one_minus
                # Hidden carry to step s-1: live columns through the gates
                # (unscaled Wh), held columns straight through.
                np.matmul(W[:, D + 1 :], acts[s], out=hs)
                np.putmask(dh_next, live[s], hs)
            dx = None
            if x.requires_grad:
                dxs = np.matmul(W[:, :D], acts)  # (L, 2, D, B)
                dx = np.empty((batch, length, D))
                fwd, rev = dxs[:, 0], dxs[::-1, 1]
                np.add(fwd.transpose(2, 0, 1), rev.transpose(2, 0, 1), out=dx)
            # Gate rows back to [i, f, g, o]; rows of dW are [dWx; db; dWh].
            # The bias rows are copied out so the grads keep no view of dW.
            dW = np.matmul(acts, z[:length].transpose(0, 1, 3, 2)).sum(axis=0)
            dW = dW[:, order].transpose(0, 2, 1)
            rows = np.r_[:D, D + 1 : K]
            return (dx, dW[0, rows], dW[0, D].copy(), dW[1, rows], dW[1, D].copy())

        return Tensor(
            summary,
            requires_grad=True,
            parents=(x, W_f, b_f, W_r, b_r),
            backward_fn=fused_bilstm,
        )

    def describe(self, batch: int, length: int) -> dict:
        """The fused call at batch ``batch`` and length ``length``, for
        ``python -m repro plan --explain``: its ``kind``, a one-line
        ``summary``, the output spec (``out``) and the per-call
        ``scratch`` as ``(names, shape, bytes, role)`` rows, bytes summed
        over the names."""
        from repro.analysis import shapes as S

        H = self.forward_lstm.hidden_size
        D = self.forward_lstm.cell.input_size
        K = D + 1 + H
        B, L = batch, length
        x_spec = S.ShapeSpec((S.Dim.of(B), S.Dim.of(L), S.Dim.of(D)), "float64")
        rows = [
            ("z", (L + 1, 2, K, B), 8, "[x_t; 1; h_prev] per step"),
            ("c", (L + 1, 2, H, B), 8, "cell states"),
            ("acts", (L, 2, 4 * H, B), 8, "gate activations, then gate grads"),
            ("tanh_c", (L, 2, H, B), 8, "tanh(c') per step"),
            ("live,held", (L, 2, H, B), 1, "bool step masks"),
            ("tmp", (2, H, B), 8, "forward scratch"),
            ("dxs", (L, 2, D, B), 8, "backward: input grads per direction"),
            ("dh,dc,dh_new,dc_new,hs,tmp", (2, H, B), 8, "backward: state carries"),
            ("prod,one_minus", (2, 3 * H, B), 8, "backward: sigmoid-row products, 1-s"),
            ("dW_steps", (L, 2, 4 * H, K), 8, "backward: weight grads before the step sum"),
        ]
        return {
            "kind": "bilstm",
            "summary": (
                f"BiLSTM(in={D}, hidden={H}): both directions in one tape node, "
                f"feature-major; per step one GEMM (2,{4 * H},{K})@(2,{K},{B}) of "
                f"[x_t; 1; h_prev] straight into the activations + one tanh over "
                f"the gate block"
            ),
            "out": [f"summary {self.shape_spec(x_spec, None)}"],
            "scratch": [
                (names, shape, itemsize * int(np.prod(shape)) * len(names.split(",")), role)
                for names, shape, itemsize, role in rows
            ],
        }

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
