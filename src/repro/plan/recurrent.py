"""Planned executor for the RRRE review encoder (BiLSTM, Eq. 2-4).

The interpreted :class:`repro.nn.BiLSTM` records ~20 tape nodes per
timestep per direction — concat, GEMM, four gate splits, four
activations, the cell/hidden updates, and two mask selects — so one
RRRE forward over review text builds thousands of Python closures.
:class:`PlannedBiLSTM` runs the *whole recurrence as one tape node*:

* both directions advance in one step loop over feature-major
  ``(…, features, B)`` storage, so each gate is one contiguous slab per
  direction and an elementwise op is two long inner loops rather than
  ``2B`` rows of ``H`` floats; each step is one GEMM of
  ``[x_t; 1; h_prev]`` into the activation buffer;
* gate activations, the cell update, and the mask carry-forward run as
  in-place ufunc chains over pooled scratch
  (:class:`repro.plan.buffers.BufferPool`);
* only the summary (Eq. 4) leaves the executor, so it stores nothing
  but what backward reads; backward replays the stored activations with
  hand-derived BPTT formulas, writing each step's gate gradients over
  that step's activations, and ``dx`` and the weight grads finish as
  batched GEMMs over all steps.

Numerical parity: every expression either reuses the interpreted op's
exact form or reorders only across bitwise-safe boundaries (commuted
IEEE-754 operations; the halved sigmoid-row weights, since scaling by
0.5 is exact).  The true reassociations — gate pre-activations summed
in another order than ``concat([x, h])@W + b``, parameter grads summed
over steps in one batched reduction — change summation order inside dot
products and are covered by the ≤1e-9 parity suite in ``tests/plan/``.

Safety: the summary and returned gradients are freshly allocated
(pooled storage never escapes into the tape); the backward closure
re-checks the version counters and the executor generation captured at
forward time, runs at most once per forward, and raises
:class:`~repro.plan.safety.PlanSafetyError` on any conflict (see
``docs/execution_plan.md``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor

from .buffers import BufferPool
from .safety import PlanSafetyError

__all__ = ["PlannedBiLSTM"]


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
    the three sigmoids.  Backward runs in the same layout and overwrites
    each step's activations with its gate gradients once it has read
    them; ``dx`` and the weight grads (one ``dpre @ z^T`` per step and
    direction, summed) are batched matmuls over all steps.

    Call signature mirrors ``BiLSTM.forward``: ``(x, mask) -> summary``,
    the ``(B, 2H)`` concatenation of the two directions' final
    real-token hidden states (Eq. 4).
    """

    def __init__(self, module, pool: BufferPool, name: str) -> None:
        self.module = module
        self.pool = pool
        self.name = name
        #: Incremented per forward; a backward whose captured generation
        #: is older than this would read overwritten scratch.
        self.generation = 0

    def __call__(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
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

        # Both directions end at step L-1: h[L] holds the summary.
        summary = np.concatenate([h[length, 0].T, h[length, 1].T], axis=1)

        executor = self
        spent = False

        def planned_bilstm(grad: np.ndarray):
            nonlocal spent
            if spent:
                raise PlanSafetyError(
                    f"{name}: second backward through one planned forward; "
                    "the first overwrote its activations with gate "
                    "gradients. Run a new forward before each backward."
                )
            _check_versions(executor, generation, captured)
            spent = True
            dh_next = pool.get(f"{name}.dh", (2, H, batch))
            dh_next[0] = grad[:, :H].T
            dh_next[1] = grad[:, H:].T
            dc_next = pool.zeros(f"{name}.dc", (2, H, batch))
            dh_new = pool.get(f"{name}.dh_new", (2, H, batch))
            dc_new = pool.get(f"{name}.dc_new", (2, H, batch))
            hs = pool.get(f"{name}.hs", (2, H, batch))
            prod = pool.get(f"{name}.prod", (2, 3 * H, batch))
            one_minus = pool.get(f"{name}.one_minus", (2, 3 * H, batch))
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
                dxs = pool.get(f"{name}.dxs", (length, 2, D, batch))
                np.matmul(W[:, :D], acts, out=dxs)
                dx = np.empty((batch, length, D))
                fwd, rev = dxs[:, 0], dxs[::-1, 1]
                np.add(fwd.transpose(2, 0, 1), rev.transpose(2, 0, 1), out=dx)
            # Gate rows back to [i, f, g, o]; rows of dW are [dWx; db; dWh].
            dW = np.matmul(acts, z[:length].transpose(0, 1, 3, 2)).sum(axis=0)
            dW = dW[:, order].transpose(0, 2, 1)
            rows = np.r_[:D, D + 1 : K]
            return (dx, dW[0, rows], dW[0, D], dW[1, rows], dW[1, D])

        return Tensor(
            summary,
            requires_grad=True,
            parents=(x, W_f, b_f, W_r, b_r),
            backward_fn=planned_bilstm,
            name=f"{name}.summary",
        )
