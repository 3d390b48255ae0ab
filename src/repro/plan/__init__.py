"""Plan-then-execute compiled mode for the training/inference hot path.

The autograd tape in :mod:`repro.nn` interprets one numpy op at a time;
for the recurrent review encoders that means thousands of closures per
forward pass.  This package compiles the hot path instead:

* :func:`compile_plan` walks a model and builds an
  :class:`ExecutionPlan` covering its BiLSTM review encoders (each
  replaced by one single-tape-node executor with batched GEMMs and
  in-place kernels over pooled buffers, returning only the summary) and
  its attention modules (mask + softmax fused into one node).
* :class:`~repro.plan.buffers.BufferPool` preallocates and reuses
  scratch storage; arrays that escape into the tape are always fresh.
* :class:`~repro.plan.safety.PlanSafetyError` is raised when an
  in-place kernel's forward-time state goes stale before backward — the
  version-counter discipline from :mod:`repro.analysis.graph` is what
  proves each in-place write safe.

Every RRRE model runs planned: ``RRRETrainer`` compiles and installs
the plan when it builds the model, and ``python -m repro plan
--explain`` prints it.  The interpreted layers are the reference:
planned and interpreted mode agree to ≤1e-9 on every layer and on the
full RRRE model (``tests/plan/``).  See ``docs/execution_plan.md``.
"""

from .buffers import BufferPool
from .compile import ExecutionPlan, PlanEntry, compile_plan
from .fused import masked_softmax
from .recurrent import PlannedBiLSTM
from .safety import PlanSafetyError

__all__ = [
    "BufferPool",
    "ExecutionPlan",
    "PlanEntry",
    "PlanSafetyError",
    "PlannedBiLSTM",
    "compile_plan",
    "masked_softmax",
]
