"""Plan compilation: walk a model, attach planned executors, explain.

:func:`compile_plan` discovers every plannable module in a model — the
recurrent layers (:class:`repro.nn.LSTM`, :class:`repro.nn.GRU`) and the
fraud-attention (:class:`repro.nn.ReviewAttention`) — infers their
symbolic output shapes through :mod:`repro.analysis.shapes`, and returns
an :class:`ExecutionPlan`.  :meth:`ExecutionPlan.install` swaps the
interpreted per-step forwards for the compiled executors in place;
:meth:`ExecutionPlan.uninstall` restores interpreted mode.  The swap is
behavioral only — parameters, state dicts, checkpoints, and the shape
spec protocol are untouched, so a planned model checkpoints and resumes
exactly like an interpreted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.nn.attention import ReviewAttention
from repro.nn.recurrent import GRU, LSTM, BiLSTM

from .buffers import BufferPool
from .recurrent import PlannedBiLSTM, PlannedGRU, PlannedLSTM

__all__ = ["PlanEntry", "ExecutionPlan", "compile_plan"]


@dataclass
class PlanEntry:
    """One module covered by the plan."""

    path: str  #: dotted module path inside the model
    kind: str  #: ``"lstm"`` | ``"gru"`` | ``"attention"``
    module: object  #: the live module instance
    executor: object = None  #: planned executor (None for attention fusion)
    summary: str = ""  #: one-line fusion description
    shapes: Tuple[str, ...] = ()  #: inferred output specs (``--explain``)
    buffers: Tuple[str, ...] = ()  #: pooled buffer schedule (``--explain``)


class ExecutionPlan:
    """A compiled plan over one model: entries + shared buffer pool."""

    def __init__(
        self,
        model,
        entries: List[PlanEntry],
        pool: BufferPool,
        batch_size: Optional[int] = None,
        seq_len: Optional[int] = None,
    ) -> None:
        self.model = model
        self.entries = entries
        self.pool = pool
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.installed = False

    def install(self) -> "ExecutionPlan":
        """Swap the covered modules onto their planned executors."""
        if self.installed:
            return self
        for entry in self.entries:
            if entry.executor is not None:
                entry.module._planned = entry.executor
            else:
                entry.module._fused_softmax = True
        self.installed = True
        return self

    def uninstall(self) -> "ExecutionPlan":
        """Restore interpreted execution on every covered module."""
        for entry in self.entries:
            if entry.executor is not None:
                entry.module._planned = None
            else:
                entry.module._fused_softmax = False
        self.installed = False
        return self

    def __enter__(self) -> "ExecutionPlan":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def stats(self) -> dict:
        """Machine-readable plan summary (entries, pool counters)."""
        return {
            "installed": self.installed,
            "modules": len(self.entries),
            "kinds": sorted({entry.kind for entry in self.entries}),
            "pool": self.pool.stats(),
        }

    def describe(self, explain: bool = False) -> str:
        """Human-readable plan; ``explain`` adds shapes + buffer schedules."""
        binding = []
        if self.batch_size is not None:
            binding.append(f"B={self.batch_size}")
        if self.seq_len is not None:
            binding.append(f"L={self.seq_len}")
        header = (
            f"execution plan: {len(self.entries)} planned module(s)"
            + (f" [{', '.join(binding)}]" if binding else "")
            + (" (installed)" if self.installed else " (not installed)")
        )
        lines = [header]
        width = max(len(entry.path) for entry in self.entries)
        for entry in self.entries:
            lines.append(f"  {entry.path:<{width}}  [{entry.kind}] {entry.summary}")
            if explain:
                for spec in entry.shapes:
                    lines.append(f"  {'':<{width}}    out: {spec}")
                for buf in entry.buffers:
                    lines.append(f"  {'':<{width}}    buf: {buf}")
        pool = self.pool.stats()
        lines.append(
            f"buffer pool: {pool['buffers']} array(s), {pool['bytes']} bytes "
            f"(hits {pool['hits']}, misses {pool['misses']}"
            + (", lazy — sized on first batch)" if pool["buffers"] == 0 else ")")
        )
        lines.append(
            "safety: outputs freshly allocated per call; scratch pooled per "
            "module; parameter/input version counters and the executor "
            "generation are re-checked at backward (PlanSafetyError on "
            "conflict — see docs/execution_plan.md)"
        )
        return "\n".join(lines)


def _dims(batch_size: Optional[int], seq_len: Optional[int]):
    from repro.analysis import shapes as S

    batch = S.Dim.of(batch_size) if batch_size is not None else S.Dim("B")
    length = S.Dim.of(seq_len) if seq_len is not None else S.Dim("L")
    return S, batch, length


def compile_plan(
    model,
    batch_size: Optional[int] = None,
    seq_len: Optional[int] = None,
) -> ExecutionPlan:
    """Compile an :class:`ExecutionPlan` for ``model``.

    Walks ``model.named_modules()`` and creates a planned executor per
    recurrent layer plus a fused-softmax entry per attention module.
    ``batch_size`` / ``seq_len`` only bind the symbolic axes in the
    ``--explain`` output — executors size their pooled buffers from the
    actual inputs, growing each named buffer to the largest batch seen
    and serving smaller batches as views of the same storage.  Raises
    ``ValueError`` when the model has nothing to plan.
    """
    S, batch, length = _dims(batch_size, seq_len)
    pool = BufferPool()
    entries: List[PlanEntry] = []
    skip: set = set()
    for path, module in model.named_modules():
        label = path or type(module).__name__
        if isinstance(module, BiLSTM):
            # Both directions fuse into one executor; the child LSTMs
            # (yielded next by named_modules) must stay interpreted.
            skip.add(id(module.forward_lstm))
            skip.add(id(module.backward_lstm))
            H = module.forward_lstm.hidden_size
            D = module.forward_lstm.cell.input_size
            K = D + 1 + H
            x_spec = S.ShapeSpec((batch, length, D), "float64")
            steps_spec, summary_spec = module.shape_spec(x_spec, None)
            entries.append(
                PlanEntry(
                    path=label,
                    kind="bilstm",
                    module=module,
                    executor=PlannedBiLSTM(module, pool, label),
                    summary=(
                        f"BiLSTM(in={D}, hidden={H}): both directions in one "
                        f"tape node, feature-major; per step one GEMM "
                        f"(2,{4 * H},{K})@(2,{K},B) of [x_t; 1; h_prev] "
                        f"straight into the activations + one tanh over the "
                        f"gate block"
                    ),
                    shapes=(f"steps {steps_spec}", f"summary {summary_spec}"),
                    # "<name>[,<name>...] <shape>": the names are the
                    # executor's pooled buffers (tests/plan keeps them in
                    # sync with the pool).
                    buffers=(
                        f"z (L+1,2,{K},B) [x_t; 1; h_prev] per step",
                        f"acts (L,2,{4 * H},B)",
                        f"c (L+1,2,{H},B)",
                        f"tanh_c (L,2,{H},B)",
                        f"tmp (2,{H},B)",
                        f"gs (L,2,{H},B) backward",
                        f"dacts (L,2,{4 * H},B) backward",
                        f"dxs (L,2,{D},B) backward",
                        f"dh,dc,dh_new,dc_new,hs (2,{H},B) backward",
                        f"one_minus (2,{3 * H},B) backward",
                    ),
                )
            )
        elif id(module) in skip:
            continue
        elif isinstance(module, LSTM):
            D, H = module.cell.input_size, module.hidden_size
            x_spec = S.ShapeSpec((batch, length, D), "float64")
            steps_spec, last_spec = module.shape_spec(x_spec, None)
            direction = "reverse" if module.reverse else "forward"
            entries.append(
                PlanEntry(
                    path=label,
                    kind="lstm",
                    module=module,
                    executor=PlannedLSTM(module, pool, label),
                    summary=(
                        f"LSTM(in={D}, hidden={H}, {direction}): one tape node; "
                        f"input GEMM (B*L,{D})@({D},{4 * H}) once, per-step "
                        f"(B,{H})@({H},{4 * H}) + fused gate/cell kernels"
                    ),
                    shapes=(f"steps {steps_spec}", f"last {last_spec}"),
                    buffers=(
                        f"gx (B,L,{4 * H})",
                        f"acts (L,B,{4 * H})",
                        f"h,c (L+1,B,{H}) x2",
                        f"tanh_c (L,B,{H})",
                        f"backward: dgates+dgt (L,B,{4 * H}) x2, 6x (B,{H}) scratch",
                    ),
                )
            )
        elif isinstance(module, GRU):
            H = module.hidden_size
            D = module.cell.weight_h.shape[0] - H
            x_spec = S.ShapeSpec((batch, length, D), "float64")
            steps_spec, last_spec = module.shape_spec(x_spec, None)
            entries.append(
                PlanEntry(
                    path=label,
                    kind="gru",
                    module=module,
                    executor=PlannedGRU(module, pool, label),
                    summary=(
                        f"GRU(in={D}, hidden={H}): one tape node; input GEMMs "
                        f"(B*L,{D})@({D},{2 * H}|{H}) once, per-step "
                        f"(B,{H})@({H},{2 * H}) + (B,{H})@({H},{H})"
                    ),
                    shapes=(f"steps {steps_spec}", f"last {last_spec}"),
                    buffers=(
                        f"gxzr (B,L,{2 * H}), gxh (B,L,{H})",
                        f"zr (L,B,{2 * H}), ht,rh (L,B,{H}) x2, h (L+1,B,{H})",
                        f"backward: dgzr+dgzr_t (L,B,{2 * H}) x2, "
                        f"dgh+dgh_t (L,B,{H}) x2, 4x (B,{H}) scratch",
                    ),
                )
            )
        elif isinstance(module, ReviewAttention):
            entries.append(
                PlanEntry(
                    path=label,
                    kind="attention",
                    module=module,
                    executor=None,
                    summary=(
                        "masked softmax fused: fill(-1e9) + shift + exp + "
                        "normalize collapse into one tape node with a merged "
                        "backward"
                    ),
                    shapes=("weights (B, m) float64",),
                )
            )
    if not entries:
        raise ValueError(
            "nothing to plan: model has no LSTM/GRU/ReviewAttention modules"
        )
    return ExecutionPlan(
        model, entries, pool, batch_size=batch_size, seq_len=seq_len
    )
