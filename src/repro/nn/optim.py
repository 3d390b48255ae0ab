"""Adam — the one optimizer RRRE and its neural baselines train with.

The optimizer holds references to the parameters it updates; the
per-parameter moments are keyed by identity.  ``weight_decay``
implements L2 by adding ``weight_decay * param`` to the gradient, which
is the γ term of Eq. 13/14 when the penalty is not in the loss itself.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List

import numpy as np

from .module import Parameter

_HYPER_KEYS = ("beta1", "beta2", "eps", "step_count")
_SLOTS = ("m", "v")


def _descend(param: Parameter, update: np.ndarray) -> None:
    """Apply ``param.data -= update`` in place — the sanctioned descent write.

    The optimizer funnels every parameter update through this one site,
    so the repo has exactly one whitelisted in-place write to
    tape-recorded arrays.  The write is an out=-style ufunc call —
    bitwise-identical to a ``param.data -= update`` rebind — followed by
    :meth:`repro.nn.Tensor.bump_version`, which keeps the version
    counters honest for the graph validator and the fused BiLSTM's
    backward-time safety checks.
    """
    np.subtract(param.data, update, out=param.data)  # lint: allow[MUT002] — optimizer update site: post-backward, before the next tape
    param.bump_version()


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).  A
    non-finite norm (NaN/Inf gradients) is returned *unscaled* — scaling
    by ``max_norm / inf`` would silently zero every gradient, and a NaN
    comparison would silently skip the clip — so callers can detect
    divergence from the return value before applying the update.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if not math.isfinite(total):
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction and L2 weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.parameters}
        self._v = {id(p): np.zeros_like(p.data) for p in self.parameters}

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for p in self.parameters:
            grad = p.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            _descend(p, self.lr * m_hat / (np.sqrt(v_hat) + self.eps))

    # ------------------------------------------------------------------
    # Serialization — mirrors the Module.load_state_dict contract:
    # strict keys and shapes, no silent partial loads.
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the optimizer: scalars plus per-parameter moment copies.

        ``state`` is a list aligned with :attr:`parameters`; each entry
        maps the slot names ``m`` and ``v`` to copied arrays.
        """
        return {
            "type": "Adam",
            "lr": float(self.lr),
            "weight_decay": float(self.weight_decay),
            "hyper": {
                "beta1": float(self.beta1),
                "beta2": float(self.beta2),
                "eps": float(self.eps),
                "step_count": int(self._step_count),
            },
            "state": [
                {"m": self._m[id(p)].copy(), "v": self._v[id(p)].copy()}
                for p in self.parameters
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this optimizer.

        Raises ``KeyError`` on missing keys/slots and ``ValueError`` on
        type, length, shape, or unexpected-key mismatches — the same
        no-silent-partial-load contract as
        :meth:`repro.nn.Module.load_state_dict`.
        """
        required = {"type", "lr", "weight_decay", "hyper", "state"}
        missing = required - set(state)
        if missing:
            raise KeyError(f"optimizer state missing keys: {sorted(missing)}")
        unexpected_keys = set(state) - required
        if unexpected_keys:
            raise ValueError(
                f"optimizer state has unexpected keys: {sorted(unexpected_keys)}"
            )
        if state["type"] != "Adam":
            raise ValueError(
                f"optimizer type mismatch: state is for {state['type']!r}, "
                f"loading into 'Adam'"
            )
        hyper = state["hyper"]
        missing_hyper = set(_HYPER_KEYS) - set(hyper)
        if missing_hyper:
            raise KeyError(f"optimizer state missing hyper keys: {sorted(missing_hyper)}")
        unexpected_hyper = set(hyper) - set(_HYPER_KEYS)
        if unexpected_hyper:
            raise ValueError(f"unexpected optimizer hyper keys: {sorted(unexpected_hyper)}")
        entries = state["state"]
        if len(entries) != len(self.parameters):
            raise ValueError(
                f"optimizer state has {len(entries)} parameter entries, "
                f"expected {len(self.parameters)}"
            )
        slots = {"m": self._m, "v": self._v}
        for index, (param, entry) in enumerate(zip(self.parameters, entries)):
            missing_slots = set(_SLOTS) - set(entry)
            if missing_slots:
                raise KeyError(
                    f"parameter {index}: state missing slots {sorted(missing_slots)}"
                )
            unexpected = set(entry) - set(_SLOTS)
            if unexpected:
                raise ValueError(
                    f"parameter {index}: unexpected state slots {sorted(unexpected)}"
                )
            for name in _SLOTS:
                value = np.asarray(entry[name], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"parameter {index} slot {name!r}: shape mismatch "
                        f"(expected {param.data.shape}, got {value.shape})"
                    )
                slots[name][id(param)] = value.copy()
        self.lr = float(state["lr"])
        self.weight_decay = float(state["weight_decay"])
        self.beta1 = float(hyper["beta1"])
        self.beta2 = float(hyper["beta2"])
        self.eps = float(hyper["eps"])
        self._step_count = int(hyper["step_count"])
