"""Plan compilation: walk a model, attach planned executors, explain.

:func:`compile_plan` discovers every plannable module in a model — the
review encoder (:class:`repro.nn.BiLSTM`) and the fraud-attention
(:class:`repro.nn.ReviewAttention`) — infers their
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
from repro.nn.recurrent import BiLSTM

from .buffers import BufferPool
from .recurrent import PlannedBiLSTM

__all__ = ["PlanEntry", "ExecutionPlan", "compile_plan"]


@dataclass
class PlanEntry:
    """One module covered by the plan."""

    path: str  #: dotted module path inside the model
    kind: str  #: ``"bilstm"`` | ``"attention"``
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
    BiLSTM (its child LSTMs stay interpreted and are bypassed) plus a fused-softmax entry per attention module.
    ``batch_size`` / ``seq_len`` only bind the symbolic axes in the
    ``--explain`` output — executors size their pooled buffers from the
    actual inputs, growing each named buffer to the largest batch seen
    and serving smaller batches as views of the same storage.  Raises
    ``ValueError`` when the model has nothing to plan.
    """
    S, batch, length = _dims(batch_size, seq_len)
    pool = BufferPool()
    entries: List[PlanEntry] = []
    for path, module in model.named_modules():
        label = path or type(module).__name__
        if isinstance(module, BiLSTM):
            H = module.forward_lstm.hidden_size
            D = module.forward_lstm.cell.input_size
            K = D + 1 + H
            x_spec = S.ShapeSpec((batch, length, D), "float64")
            summary_spec = module.shape_spec(x_spec, None)
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
                    shapes=(f"summary {summary_spec}",),
                    # "<name>[,<name>...] <shape>": the names are the
                    # executor's pooled buffers (tests/plan keeps them in
                    # sync with the pool).
                    buffers=(
                        f"z (L+1,2,{K},B) [x_t; 1; h_prev] per step",
                        f"acts (L,2,{4 * H},B) gate grads in backward",
                        f"c (L+1,2,{H},B)",
                        f"tanh_c (L,2,{H},B)",
                        f"tmp (2,{H},B)",
                        f"dxs (L,2,{D},B) backward",
                        f"dh,dc,dh_new,dc_new,hs (2,{H},B) backward",
                        f"prod,one_minus (2,{3 * H},B) backward",
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
            "nothing to plan: model has no BiLSTM/ReviewAttention modules"
        )
    return ExecutionPlan(
        model, entries, pool, batch_size=batch_size, seq_len=seq_len
    )
