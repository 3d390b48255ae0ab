"""Opt-in per-layer profiling hooks for :class:`repro.nn.Module` trees.

A :class:`ModuleProfiler` attaches to one model and, while attached,
intercepts every ``Module.__call__`` in the process through a single
class-level hook point (see :meth:`repro.nn.module.Module.__call__`).
Modules that belong to the attached tree are timed; everything else runs
untouched.  When no profiler is attached the hook point is a single
``None`` check — models pay nothing for the existence of this module.

What gets recorded per layer (qualified by dotted module name, e.g.
``user_net.attention``):

* **forward seconds** — wall time of ``forward`` (inclusive of
  children, like a sampling profiler's cumulative column);
* **backward seconds** — measured with *probe* tensors spliced around
  each call: an exit probe on the outputs and entry probes on the tensor
  inputs record ``perf_counter`` when the gradient passes them during
  :meth:`Tensor.backward`, and the span between them approximates the
  layer's share of the backward pass (interleaved sibling branches can
  inflate it slightly — treat it as telemetry, not a micro-benchmark);
* **gradient norms** — L2 norm of the gradient arriving at each output;
* **activation stats** — the fraction of output elements that are dead
  (``|x| <= ZERO_EPS``) or saturated (``|x| >= SATURATION_THRESHOLD``);
  the saturation column is meaningful for bounded activations
  (tanh/sigmoid/attention weights), telemetry-only elsewhere;
* **numerical health** — the profiler raises :class:`NumericsError`
  naming the first layer whose forward output or incoming gradient
  contains NaN/Inf, instead of letting the poison propagate to an
  inscrutable loss;
* **backward passes** — tape size and wall time of every
  :meth:`Tensor.backward`, via :func:`repro.nn.tensor.set_backward_observer`.

A module reachable under several names (a shared word embedding) is
profiled under the first name :meth:`Module.named_modules` yields.

Probes share the layer's data arrays (no copies) and are identity
functions in the graph, so attaching a profiler never changes results.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor, set_backward_observer


class NumericsError(RuntimeError):
    """Raised when a profiled layer produces or receives NaN/Inf values."""


#: Output elements with ``|x| <= ZERO_EPS`` count as dead units.
ZERO_EPS = 1e-7
#: Output elements with ``|x| >= SATURATION_THRESHOLD`` count as saturated.
SATURATION_THRESHOLD = 0.995


class LayerRecord:
    """Mutable per-layer accumulator owned by a :class:`ModuleProfiler`."""

    __slots__ = (
        "name",
        "calls",
        "forward_seconds",
        "backward_seconds",
        "backward_calls",
        "grad_norm_total",
        "grad_norm_max",
        "grad_norm_count",
        "parameters",
        "act_elements",
        "act_zeros",
        "act_saturated",
    )

    def __init__(self, name: str, parameters: int) -> None:
        self.name = name
        self.calls = 0
        self.forward_seconds = 0.0
        self.backward_seconds = 0.0
        self.backward_calls = 0
        self.grad_norm_total = 0.0
        self.grad_norm_max = 0.0
        self.grad_norm_count = 0
        self.parameters = parameters
        self.act_elements = 0
        self.act_zeros = 0
        self.act_saturated = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (consumed by :class:`repro.obs.RunReport`)."""
        return {
            "name": self.name,
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "backward_seconds": self.backward_seconds,
            "backward_calls": self.backward_calls,
            "grad_norm_mean": (
                self.grad_norm_total / self.grad_norm_count if self.grad_norm_count else 0.0
            ),
            "grad_norm_max": self.grad_norm_max,
            "parameters": self.parameters,
            "dead_fraction": (
                self.act_zeros / self.act_elements if self.act_elements else 0.0
            ),
            "saturation_fraction": (
                self.act_saturated / self.act_elements if self.act_elements else 0.0
            ),
        }


class ModuleProfiler:
    """Times forward/backward per layer of one attached module tree.

    Use as a context manager (recommended) or with explicit
    :meth:`attach` / :meth:`detach`::

        profiler = ModuleProfiler()
        with profiler.attach(model):
            loss = model(batch).sum()
            loss.backward()
        profiles = profiler.layer_profiles()

    Only one profiler can be attached at a time (the hook point is
    process-global); attaching a second raises ``RuntimeError``.
    """

    def __init__(self) -> None:
        self.backward_passes = 0
        self.backward_seconds = 0.0
        self.tape_nodes = 0
        self._names: Dict[int, str] = {}
        self._records: Dict[str, LayerRecord] = {}
        self._attached: Optional[Module] = None
        self._prev_observer = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, root: Module, root_name: str = "model") -> "ModuleProfiler":
        """Instrument ``root`` and every submodule; returns ``self``."""
        if Module._active_profiler is not None:
            raise RuntimeError("another ModuleProfiler is already attached")
        self._attached = root
        for name, module in root.named_modules(prefix=root_name):
            if id(module) in self._names:  # a shared module keeps its first name
                continue
            self._names[id(module)] = name
            if name not in self._records:
                params = sum(
                    p.size for _, p in module.named_parameters()
                )
                self._records[name] = LayerRecord(name, params)
        Module._active_profiler = self
        self._prev_observer = set_backward_observer(self._on_backward)
        return self

    def detach(self) -> None:
        """Remove all instrumentation, restoring the zero-overhead path."""
        if self._attached is None:
            return
        Module._active_profiler = None
        set_backward_observer(self._prev_observer)
        self._prev_observer = None
        self._attached = None
        self._names.clear()

    def __enter__(self) -> "ModuleProfiler":
        if self._attached is None:
            raise RuntimeError("call attach(model) before entering the context")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # -- results -------------------------------------------------------
    def layer_profiles(self) -> List[Dict[str, Any]]:
        """Per-layer stats of the layers that ran, sorted by forward time
        (descending); a layer never called (e.g. one a fused parent
        bypasses) has no row."""
        return [
            record.to_dict()
            for record in sorted(
                self._records.values(), key=lambda r: -r.forward_seconds
            )
            if record.calls
        ]

    def reset(self) -> None:
        """Clear accumulated timings (the attachment, if any, persists)."""
        for record in self._records.values():
            fresh = LayerRecord(record.name, record.parameters)
            self._records[record.name] = fresh
        self.backward_passes = 0
        self.backward_seconds = 0.0
        self.tape_nodes = 0

    # -- hook bodies ---------------------------------------------------
    def profiled_call(self, module: Module, args: tuple, kwargs: dict):
        """Invoked by ``Module.__call__`` while this profiler is attached."""
        name = self._names.get(id(module))
        if name is None:  # module outside the attached tree
            return module.forward(*args, **kwargs)
        record = self._records[name]
        cell = {"mark": None}
        args = tuple(
            self._entry_probe(a, record, cell) if isinstance(a, Tensor) else a
            for a in args
        )
        start = time.perf_counter()
        out = module.forward(*args, **kwargs)
        record.forward_seconds += time.perf_counter() - start
        record.calls += 1
        for tensor in _iter_tensors(out):
            if not np.isfinite(tensor.data).all():
                raise NumericsError(
                    f"non-finite values in forward output of layer {name!r}"
                )
            data = np.abs(tensor.data)
            record.act_elements += data.size
            record.act_zeros += int((data <= ZERO_EPS).sum())
            record.act_saturated += int((data >= SATURATION_THRESHOLD).sum())
        return self._wrap_output(out, record, cell)

    def _on_backward(self, root: Tensor, num_nodes: int, seconds: float) -> None:
        self.backward_passes += 1
        self.backward_seconds += seconds
        self.tape_nodes += num_nodes

    # -- probes --------------------------------------------------------
    def _entry_probe(self, tensor: Tensor, record: LayerRecord, cell: dict) -> Tensor:
        """Identity node whose backward marks gradient *leaving* the layer."""

        def backward_fn(grad: np.ndarray) -> tuple:
            now = time.perf_counter()
            mark = cell["mark"]
            if mark is not None:
                # Advance the marker so several entry probes accumulate
                # to (last entry − exit) without double counting.
                record.backward_seconds += now - mark
                cell["mark"] = now
            return (grad,)

        # The probe inherits requires_grad: the fused BiLSTM skips the
        # input gradient of a tensor that does not require one.
        return Tensor(
            tensor.data,
            requires_grad=tensor.requires_grad,
            parents=(tensor,),
            backward_fn=backward_fn,
            name=f"probe_in:{record.name}",
        )

    def _exit_probe(self, tensor: Tensor, record: LayerRecord, cell: dict) -> Tensor:
        """Identity node whose backward marks gradient *entering* the layer."""
        layer_name = record.name

        def backward_fn(grad: np.ndarray) -> tuple:
            if not np.isfinite(grad).all():
                raise NumericsError(
                    f"non-finite gradient entering backward of layer {layer_name!r}"
                )
            norm = float(np.sqrt((grad * grad).sum()))
            record.grad_norm_total += norm
            record.grad_norm_count += 1
            if norm > record.grad_norm_max:
                record.grad_norm_max = norm
            record.backward_calls += 1
            cell["mark"] = time.perf_counter()
            return (grad,)

        return Tensor(
            tensor.data,
            requires_grad=tensor.requires_grad,
            parents=(tensor,),
            backward_fn=backward_fn,
            name=f"probe_out:{record.name}",
        )

    def _wrap_output(self, out: Any, record: LayerRecord, cell: dict) -> Any:
        if isinstance(out, Tensor):
            return self._exit_probe(out, record, cell)
        if isinstance(out, tuple):
            return tuple(
                self._exit_probe(o, record, cell) if isinstance(o, Tensor) else o
                for o in out
            )
        if dataclasses.is_dataclass(out) and not isinstance(out, type):
            updates = {
                f.name: self._exit_probe(value, record, cell)
                for f in dataclasses.fields(out)
                if isinstance((value := getattr(out, f.name)), Tensor)
            }
            return dataclasses.replace(out, **updates) if updates else out
        return out


def _iter_tensors(out: Any):
    """Yield the Tensor leaves of a forward return value."""
    if isinstance(out, Tensor):
        yield out
    elif isinstance(out, tuple):
        for o in out:
            if isinstance(o, Tensor):
                yield o
    elif dataclasses.is_dataclass(out) and not isinstance(out, type):
        for f in dataclasses.fields(out):
            value = getattr(out, f.name)
            if isinstance(value, Tensor):
                yield value
