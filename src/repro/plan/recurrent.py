"""Planned executors for the recurrent hot path (LSTM / BiLSTM / GRU).

The interpreted :class:`repro.nn.LSTM` records ~20 tape nodes per
timestep per direction — concat, GEMM, four gate splits, four
activations, the cell/hidden updates, and two mask selects — so one
RRRE forward over review text builds thousands of Python closures.  The
planned executors run the *whole recurrence as one tape node*:

* :class:`PlannedLSTM` and :class:`PlannedGRU` fold the input
  contribution of every timestep into a single ``(B·L, D) @ (D, 4H)``
  GEMM up front (plus the bias add), so each step pays exactly one
  small ``(B, H) @ (H, 4H)`` GEMM for the hidden contribution;
* :class:`PlannedBiLSTM`, the RRRE review encoder, runs both directions
  in one step loop over feature-major ``(…, features, B)`` storage, so
  each gate is one contiguous slab per direction and an elementwise op
  is two long inner loops rather than ``2B`` rows of ``H`` floats; each
  step is one GEMM of ``[x_t; 1; h_prev]`` into the activation buffer;
* gate activations, the cell update, and the mask carry-forward run as
  fused in-place ufunc chains (:mod:`repro.plan.fused`) over pooled
  scratch (:class:`repro.plan.buffers.BufferPool`);
* backward replays the stored activations with hand-derived BPTT
  formulas; the per-step work is one hidden-weight GEMM, and all
  parameter/input gradients finish as a handful of large (batched)
  GEMMs.

Numerical parity: every expression either reuses the interpreted op's
exact form or reorders only across bitwise-safe boundaries (commuted
IEEE-754 operations; the BiLSTM's halved sigmoid-row weights, since
scaling by 0.5 is exact).  The true reassociations — gate
pre-activations summed in another order than ``concat([x, h])@W + b``,
parameter grads summed over steps in one batched reduction — change
summation order inside dot products and are covered by the ≤1e-9 parity
suite in ``tests/plan/``.

Safety: outputs and returned gradients are freshly allocated (pooled
storage never escapes into the tape); the backward closure re-checks
the version counters and the executor generation captured at forward
time and raises :class:`~repro.plan.safety.PlanSafetyError` on any
conflict (see ``docs/execution_plan.md``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .buffers import BufferPool
from .fused import select_, sigmoid_, tanh_
from .safety import PlanSafetyError

__all__ = ["PlannedBiLSTM", "PlannedLSTM", "PlannedGRU"]


def _check_versions(executor, generation: int, captured) -> None:
    """Raise :class:`PlanSafetyError` when forward-time state went stale."""
    if executor.generation != generation:
        raise PlanSafetyError(
            f"{executor.name}: planned backward after a newer forward "
            f"(generation {generation} -> {executor.generation}); the pooled "
            "activations for this tape were overwritten. Run backward before "
            "the executor's next forward, or use interpreted mode."
        )
    for tensor, version, label in captured:
        if tensor.version != version:
            raise PlanSafetyError(
                f"{executor.name}: {label} was mutated between forward and "
                f"backward (version {version} -> {tensor.version}); planned "
                "in-place kernels require parameters and inputs to stay "
                "frozen until the tape is consumed."
            )


class PlannedLSTM:
    """Compiled executor for one :class:`repro.nn.LSTM` instance.

    Call signature mirrors ``LSTM.forward``: ``(x, mask) -> (outputs,
    last_hidden)``.  The executor owns no parameters — it reads the
    wrapped module's fused weight/bias on every call, so optimizer
    updates and ``load_state_dict`` are picked up transparently.
    """

    def __init__(self, module, pool: BufferPool, name: str) -> None:
        self.module = module
        self.pool = pool
        self.name = name
        #: Incremented per forward; a backward whose captured generation
        #: is older than this would read overwritten scratch.
        self.generation = 0

    def __call__(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        cell = self.module.cell
        reverse = self.module.reverse
        H = cell.hidden_size
        D = cell.input_size
        W, b = cell.weight, cell.bias
        batch, length, _ = x.shape
        if mask is None:
            mask_arr = np.ones((batch, length), dtype=bool)
        else:
            mask_arr = np.asarray(mask, dtype=bool)
        notmask = ~mask_arr

        self.generation += 1
        generation = self.generation
        captured = (
            (W, W.version, "LSTM weight"),
            (b, b.version, "LSTM bias"),
            (x, x.version, "LSTM input"),
        )

        pool, name = self.pool, self.name
        Wx = W.data[:D]
        Wh = W.data[D:]
        x_flat = x.data.reshape(batch * length, D)

        # One GEMM for every step's input contribution, bias folded in.
        gx = pool.get(f"{name}.gx", (batch, length, 4 * H))
        np.matmul(x_flat, Wx, out=gx.reshape(batch * length, 4 * H))
        gx += b.data

        # Stored activations for backward (pooled, step-indexed).
        acts = pool.get(f"{name}.acts", (length, batch, 4 * H))
        tanh_c = pool.get(f"{name}.tanh_c", (length, batch, H))
        h = pool.get(f"{name}.h", (length + 1, batch, H))
        c = pool.get(f"{name}.c", (length + 1, batch, H))
        h[0].fill(0.0)
        c[0].fill(0.0)
        c_new = pool.get(f"{name}.c_new", (batch, H))
        h_new = pool.get(f"{name}.h_new", (batch, H))
        ig = pool.get(f"{name}.ig", (batch, H))

        outputs = np.empty((batch, length, H))  # escapes into the tape: fresh
        steps = range(length - 1, -1, -1) if reverse else range(length)
        for idx, t in enumerate(steps):
            gates = acts[idx]
            np.matmul(h[idx], Wh, out=gates)
            gates += gx[:, t]
            # Fused gate activations, in place over the stored block:
            # [input, forget] sigmoid, cell tanh, output sigmoid.
            sigmoid_(gates[:, : 2 * H], gates[:, : 2 * H])
            tanh_(gates[:, 2 * H : 3 * H], gates[:, 2 * H : 3 * H])
            sigmoid_(gates[:, 3 * H :], gates[:, 3 * H :])
            i = gates[:, :H]
            f = gates[:, H : 2 * H]
            g = gates[:, 2 * H : 3 * H]
            o = gates[:, 3 * H :]
            # c_new = f*c + i*g ; h_new = o*tanh(c_new)
            np.multiply(f, c[idx], out=c_new)
            np.multiply(i, g, out=ig)
            c_new += ig
            tanh_(c_new, tanh_c[idx])
            np.multiply(o, tanh_c[idx], out=h_new)
            # Masked positions keep the previous state.
            m = mask_arr[:, t : t + 1]
            notm = notmask[:, t : t + 1]
            select_(m, h_new, h[idx], h[idx + 1])
            select_(m, c_new, c[idx], c[idx + 1])
            outputs[:, t] = h[idx + 1]

        executor = self
        time_of = tuple(steps)

        def planned_lstm(grad: np.ndarray):
            _check_versions(executor, generation, captured)
            dgates = pool.get(f"{name}.dgates", (length, batch, 4 * H))
            dh_next = pool.zeros(f"{name}.dh", (batch, H))
            dc_next = pool.zeros(f"{name}.dc", (batch, H))
            dh_new = pool.get(f"{name}.dh_new", (batch, H))
            dc_new = pool.get(f"{name}.dc_new", (batch, H))
            tmp = pool.get(f"{name}.tmp", (batch, H))
            hs = pool.get(f"{name}.hs", (batch, H))
            WhT = Wh.T
            for idx in range(length - 1, -1, -1):
                t = time_of[idx]
                dh_next += grad[:, t]
                m = mask_arr[:, t : t + 1]
                notm = notmask[:, t : t + 1]
                # Split the incoming state grads across the mask select:
                # the masked-out rows carry straight through to h[idx].
                np.multiply(dh_next, m, out=dh_new)
                dh_next *= notm
                np.multiply(dc_next, m, out=dc_new)
                dc_next *= notm
                gates = acts[idx]
                i = gates[:, :H]
                f = gates[:, H : 2 * H]
                g = gates[:, 2 * H : 3 * H]
                o = gates[:, 3 * H :]
                tc = tanh_c[idx]
                dpre = dgates[idx]
                # Output gate: do = dh_new*tc; dpre_o = do*o*(1-o)
                dpre_o = dpre[:, 3 * H :]
                np.multiply(dh_new, tc, out=dpre_o)
                dpre_o *= o
                np.subtract(1.0, o, out=tmp)
                dpre_o *= tmp
                # Cell candidate: dc_new += dh_new*o*(1-tc^2)
                np.multiply(dh_new, o, out=hs)
                np.multiply(tc, tc, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                hs *= tmp
                dc_new += hs
                # Forget gate: df = dc_new*c_prev; dpre_f = df*f*(1-f)
                dpre_f = dpre[:, H : 2 * H]
                np.multiply(dc_new, c[idx], out=dpre_f)
                dpre_f *= f
                np.subtract(1.0, f, out=tmp)
                dpre_f *= tmp
                # Input gate: di = dc_new*g; dpre_i = di*i*(1-i)
                dpre_i = dpre[:, :H]
                np.multiply(dc_new, g, out=dpre_i)
                dpre_i *= i
                np.subtract(1.0, i, out=tmp)
                dpre_i *= tmp
                # Cell gate: dg = dc_new*i; dpre_g = dg*(1-g^2)
                dpre_g = dpre[:, 2 * H : 3 * H]
                np.multiply(dc_new, i, out=dpre_g)
                np.multiply(g, g, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                dpre_g *= tmp
                # Carries to step idx-1 (on top of the masked pass-through).
                np.matmul(dpre, WhT, out=hs)
                dh_next += hs
                np.multiply(dc_new, f, out=tmp)
                dc_next += tmp
            # Reorder step-major grads to time-major, then batch the
            # remaining work into four large GEMMs.
            dgt = pool.get(f"{name}.dgt", (batch, length, 4 * H))
            if reverse:
                dgt[:] = dgates[::-1].transpose(1, 0, 2)
            else:
                dgt[:] = dgates.transpose(1, 0, 2)
            dgt_flat = dgt.reshape(batch * length, 4 * H)
            dx = None
            if x.requires_grad:
                dx = (dgt_flat @ Wx.T).reshape(batch, length, D)
            dWx = x_flat.T @ dgt_flat
            dWh = h[:length].reshape(length * batch, H).T @ dgates.reshape(
                length * batch, 4 * H
            )
            dW = np.concatenate([dWx, dWh], axis=0)
            db = dgt_flat.sum(axis=0)
            return (dx, dW, db)

        out = Tensor(
            outputs,
            requires_grad=x.requires_grad or W.requires_grad or b.requires_grad,
            parents=(x, W, b),
            backward_fn=planned_lstm,
            name=f"{name}.out",
        )
        last = F.getitem(out, (slice(None), 0 if reverse else length - 1))
        return out, last


class PlannedBiLSTM:
    """Compiled executor for a whole :class:`repro.nn.BiLSTM`.

    Both directions run through one step loop: step ``s`` advances the
    forward direction at time ``s`` and the reverse one at ``L-1-s``.
    Storage is feature-major (states ``(L+1, 2, H, B)``, gate
    activations ``(L, 2, 4H, B)``), so each gate is one contiguous
    ``H×B`` slab per direction and every elementwise op runs two long
    inner loops instead of ``2B`` rows of ``H`` floats; numpy's per-row
    overhead, not arithmetic, dominated the batch-major layout.  The
    step input per direction is ``z = [x_t; 1; h_prev]`` (``K = D+1+H``
    rows), so each step is one ``(2, 4H, K) @ (2, K, B)`` GEMM, bias
    included, written straight into the activations.  Gate rows run
    ``[i, f, o, g]`` with the sigmoid rows' weights pre-halved (exact),
    so one ``np.tanh`` covers the whole block and ``+1, ×0.5`` finishes
    the three sigmoids.  Backward runs in the same layout; ``dx`` and
    the weight grads (one ``dpre @ z^T`` per step and direction, summed)
    are batched matmuls over all steps.

    Call signature mirrors ``BiLSTM.forward``: ``(x, mask) ->
    (steps, summary)`` with ``steps`` ``(B, L, 2H)`` (forward features
    in columns ``[:H]``, reverse in ``[H:]``) and ``summary`` the
    concatenated final real-token hidden states (Eq. 4).
    """

    def __init__(self, module, pool: BufferPool, name: str) -> None:
        self.module = module
        self.pool = pool
        self.name = name
        self.generation = 0

    def __call__(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        cell_f = self.module.forward_lstm.cell
        cell_r = self.module.backward_lstm.cell
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

        self.generation += 1
        generation = self.generation
        captured = (
            (W_f, W_f.version, "forward LSTM weight"),
            (b_f, b_f.version, "forward LSTM bias"),
            (W_r, W_r.version, "reverse LSTM weight"),
            (b_r, b_r.version, "reverse LSTM bias"),
            (x, x.version, "BiLSTM input"),
        )

        pool, name = self.pool, self.name
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
        z = pool.get(f"{name}.z", (length + 1, 2, K, batch))
        z[:length, 0, :D] = x.data.transpose(1, 2, 0)
        z[:length, 1, :D] = x.data[:, ::-1].transpose(1, 2, 0)
        z[:, :, D] = 1.0
        h = z[:, :, D + 1 :]
        h[0].fill(0.0)
        c = pool.get(f"{name}.c", (length + 1, 2, H, batch))
        c[0].fill(0.0)
        # Step masks at state shape: live columns take the new state,
        # held (masked) columns carry the previous one.
        live = np.empty((length, 2, H, batch), dtype=bool)
        live[:, 0] = mask_arr.T[:, None]
        live[:, 1] = mask_arr.T[::-1, None]
        held = ~live

        acts = pool.get(f"{name}.acts", (length, 2, 4 * H, batch))
        gate_views = acts.reshape(length, 2, 4, H, batch).swapaxes(1, 2)
        tanh_c = pool.get(f"{name}.tanh_c", (length, 2, H, batch))
        tmp = pool.get(f"{name}.tmp", (2, H, batch))
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

        outputs = np.empty((batch, length, 2 * H))  # escapes into the tape
        outputs[..., :H] = h[1:, 0].transpose(2, 0, 1)
        outputs[..., H:] = h[:0:-1, 1].transpose(2, 0, 1)

        executor = self

        def planned_bilstm(grad: np.ndarray):
            _check_versions(executor, generation, captured)
            gs = pool.get(f"{name}.gs", (length, 2, H, batch))
            gs[:, 0] = grad[..., :H].transpose(1, 2, 0)
            gs[:, 1] = grad[:, ::-1, H:].transpose(1, 2, 0)
            dacts = pool.get(f"{name}.dacts", (length, 2, 4 * H, batch))
            dh_next = pool.zeros(f"{name}.dh", (2, H, batch))
            dc_next = pool.zeros(f"{name}.dc", (2, H, batch))
            dh_new = pool.get(f"{name}.dh_new", (2, H, batch))
            dc_new = pool.get(f"{name}.dc_new", (2, H, batch))
            hs = pool.get(f"{name}.hs", (2, H, batch))
            one_minus = pool.get(f"{name}.one_minus", (2, 3 * H, batch))
            for s in range(length - 1, -1, -1):
                dh_next += gs[s]
                np.multiply(dh_next, live[s], out=dh_new)
                np.multiply(dc_next, live[s], out=dc_new)
                i, f, o, g = gate_views[s]
                tc = tanh_c[s]
                dpre = dacts[s]
                # dc' += dh'*o*(1-tanh(c')^2)
                np.multiply(dh_new, o, out=hs)
                np.multiply(tc, tc, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                hs *= tmp
                dc_new += hs
                # Sigmoid rows: [dc'*g, dc'*c, dh'*tanh(c')] * s*(1-s).
                np.multiply(dc_new, g, out=dpre[:, :H])
                np.multiply(dc_new, c[s], out=dpre[:, H : 2 * H])
                np.multiply(dh_new, tc, out=dpre[:, 2 * H : 3 * H])
                dpre[:, : 3 * H] *= acts[s, :, : 3 * H]
                np.subtract(1.0, acts[s, :, : 3 * H], out=one_minus)
                dpre[:, : 3 * H] *= one_minus
                # Cell candidate row: dc'*i*(1-g^2).
                np.multiply(dc_new, i, out=dpre[:, 3 * H :])
                np.multiply(g, g, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                dpre[:, 3 * H :] *= tmp
                # Carries to step s-1: live columns through the gates
                # (unscaled Wh), held columns straight through.
                np.matmul(W[:, D + 1 :], dpre, out=hs)
                np.putmask(dh_next, live[s], hs)
                np.multiply(dc_new, f, out=tmp)
                np.putmask(dc_next, live[s], tmp)
            dx = None
            if x.requires_grad:
                dxs = pool.get(f"{name}.dxs", (length, 2, D, batch))
                np.matmul(W[:, :D], dacts, out=dxs)
                dx = np.empty((batch, length, D))
                fwd, rev = dxs[:, 0], dxs[::-1, 1]
                np.add(fwd.transpose(2, 0, 1), rev.transpose(2, 0, 1), out=dx)
            # Gate rows back to [i, f, g, o]; rows of dW are [dWx; db; dWh].
            dW = np.matmul(dacts, z[:length].transpose(0, 1, 3, 2)).sum(axis=0)
            dW = dW[:, order].transpose(0, 2, 1)
            rows = np.r_[:D, D + 1 : K]
            return (dx, dW[0, rows], dW[0, D], dW[1, rows], dW[1, D])

        out = Tensor(
            outputs,
            requires_grad=True,
            parents=(x, W_f, b_f, W_r, b_r),
            backward_fn=planned_bilstm,
            name=f"{name}.out",
        )
        last_f = F.getitem(out, (slice(None), length - 1, slice(0, H)))
        last_r = F.getitem(out, (slice(None), 0, slice(H, 2 * H)))
        summary = F.concat([last_f, last_r], axis=-1)
        return out, summary


class PlannedGRU:
    """Compiled executor for one :class:`repro.nn.GRU` instance.

    Same contract and safety rules as :class:`PlannedLSTM`; the update/
    reset gates fold into one ``(B, H) @ (H, 2H)`` GEMM per step and the
    candidate into one ``(B, H) @ (H, H)`` GEMM, with the input
    contributions of all steps batched up front.
    """

    def __init__(self, module, pool: BufferPool, name: str) -> None:
        self.module = module
        self.pool = pool
        self.name = name
        self.generation = 0

    def __call__(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        cell = self.module.cell
        H = cell.hidden_size
        Wzr, bzr = cell.weight_zr, cell.bias_zr
        Wh, bh = cell.weight_h, cell.bias_h
        D = Wzr.shape[0] - H
        batch, length, _ = x.shape
        if mask is None:
            mask_arr = np.ones((batch, length), dtype=bool)
        else:
            mask_arr = np.asarray(mask, dtype=bool)
        notmask = ~mask_arr

        self.generation += 1
        generation = self.generation
        captured = (
            (Wzr, Wzr.version, "GRU gate weight"),
            (bzr, bzr.version, "GRU gate bias"),
            (Wh, Wh.version, "GRU candidate weight"),
            (bh, bh.version, "GRU candidate bias"),
            (x, x.version, "GRU input"),
        )

        pool, name = self.pool, self.name
        Wzr_x, Wzr_h = Wzr.data[:D], Wzr.data[D:]
        Wh_x, Wh_h = Wh.data[:D], Wh.data[D:]
        x_flat = x.data.reshape(batch * length, D)

        gxzr = pool.get(f"{name}.gxzr", (batch, length, 2 * H))
        np.matmul(x_flat, Wzr_x, out=gxzr.reshape(batch * length, 2 * H))
        gxzr += bzr.data
        gxh = pool.get(f"{name}.gxh", (batch, length, H))
        np.matmul(x_flat, Wh_x, out=gxh.reshape(batch * length, H))
        gxh += bh.data

        zr = pool.get(f"{name}.zr", (length, batch, 2 * H))
        ht = pool.get(f"{name}.ht", (length, batch, H))
        rh = pool.get(f"{name}.rh", (length, batch, H))
        h = pool.get(f"{name}.h", (length + 1, batch, H))
        h[0].fill(0.0)
        h_new = pool.get(f"{name}.h_new", (batch, H))
        tmp_f = pool.get(f"{name}.tmp_f", (batch, H))

        outputs = np.empty((batch, length, H))  # escapes into the tape: fresh
        for t in range(length):
            zr_t = zr[t]
            np.matmul(h[t], Wzr_h, out=zr_t)
            zr_t += gxzr[:, t]
            sigmoid_(zr_t, zr_t)
            z = zr_t[:, :H]
            r = zr_t[:, H:]
            np.multiply(r, h[t], out=rh[t])
            ht_t = ht[t]
            np.matmul(rh[t], Wh_h, out=ht_t)
            ht_t += gxh[:, t]
            tanh_(ht_t, ht_t)
            # h_new = (1-z)*h + z*h_tilde
            np.subtract(1.0, z, out=tmp_f)
            np.multiply(tmp_f, h[t], out=h_new)
            np.multiply(z, ht_t, out=tmp_f)
            h_new += tmp_f
            select_(mask_arr[:, t : t + 1], h_new, h[t], h[t + 1])
            outputs[:, t] = h[t + 1]

        executor = self

        def planned_gru(grad: np.ndarray):
            _check_versions(executor, generation, captured)
            dgzr = pool.get(f"{name}.dgzr", (length, batch, 2 * H))
            dgh = pool.get(f"{name}.dgh", (length, batch, H))
            dh_next = pool.zeros(f"{name}.dh", (batch, H))
            dh_new = pool.get(f"{name}.dh_new", (batch, H))
            tmp = pool.get(f"{name}.tmp", (batch, H))
            hs = pool.get(f"{name}.hs", (batch, H))
            Wzr_hT = Wzr_h.T
            Wh_hT = Wh_h.T
            for t in range(length - 1, -1, -1):
                dh_next += grad[:, t]
                m = mask_arr[:, t : t + 1]
                notm = notmask[:, t : t + 1]
                np.multiply(dh_next, m, out=dh_new)
                dh_next *= notm
                z = zr[t][:, :H]
                r = zr[t][:, H:]
                htl = ht[t]
                hprev = h[t]
                # Candidate: dht = dh_new*z; dpre_h = dht*(1-ht^2)
                dpre_h = dgh[t]
                np.multiply(dh_new, z, out=dpre_h)
                np.multiply(htl, htl, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                dpre_h *= tmp
                # dh_prev += dh_new*(1-z)
                np.subtract(1.0, z, out=tmp)
                tmp *= dh_new
                dh_next += tmp
                # Update gate: dz = dh_new*(ht - h_prev); dpre_z = dz*z*(1-z)
                dpre_z = dgzr[t][:, :H]
                np.subtract(htl, hprev, out=tmp)
                np.multiply(dh_new, tmp, out=dpre_z)
                dpre_z *= z
                np.subtract(1.0, z, out=tmp)
                dpre_z *= tmp
                # Candidate input path: d(r*h) = dpre_h @ Wh_h.T
                np.matmul(dpre_h, Wh_hT, out=hs)
                np.multiply(hs, r, out=tmp)
                dh_next += tmp
                # Reset gate: dr = d(r*h)*h_prev; dpre_r = dr*r*(1-r)
                dpre_r = dgzr[t][:, H:]
                np.multiply(hs, hprev, out=dpre_r)
                dpre_r *= r
                np.subtract(1.0, r, out=tmp)
                dpre_r *= tmp
                # Gate hidden path: dh_prev += dpre_zr @ Wzr_h.T
                np.matmul(dgzr[t], Wzr_hT, out=hs)
                dh_next += hs
            # Batch the parameter/input gradients into large GEMMs
            # (the GRU iterates forward in time, so step index == t).
            dgzr_t = pool.get(f"{name}.dgzr_t", (batch, length, 2 * H))
            dgzr_t[:] = dgzr.transpose(1, 0, 2)
            dgh_t = pool.get(f"{name}.dgh_t", (batch, length, H))
            dgh_t[:] = dgh.transpose(1, 0, 2)
            dgzr_t_flat = dgzr_t.reshape(batch * length, 2 * H)
            dgh_t_flat = dgh_t.reshape(batch * length, H)
            dx = None
            if x.requires_grad:
                dx = (dgzr_t_flat @ Wzr_x.T) + (dgh_t_flat @ Wh_x.T)
                dx = dx.reshape(batch, length, D)
            h_flat = h[:length].reshape(length * batch, H)
            dWzr = np.concatenate(
                [
                    x_flat.T @ dgzr_t_flat,
                    h_flat.T @ dgzr.reshape(length * batch, 2 * H),
                ],
                axis=0,
            )
            dbzr = dgzr_t_flat.sum(axis=0)
            dWh = np.concatenate(
                [
                    x_flat.T @ dgh_t_flat,
                    rh.reshape(length * batch, H).T @ dgh.reshape(length * batch, H),
                ],
                axis=0,
            )
            dbh = dgh_t_flat.sum(axis=0)
            return (dx, dWzr, dbzr, dWh, dbh)

        out = Tensor(
            outputs,
            requires_grad=True,
            parents=(x, Wzr, bzr, Wh, bh),
            backward_fn=planned_gru,
            name=f"{name}.out",
        )
        last = F.getitem(out, (slice(None), length - 1))
        return out, last
