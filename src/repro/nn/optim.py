"""First-order optimizers: SGD (with momentum), Adam, RMSprop.

Each optimizer holds references to the parameters it updates; per-parameter
state (momenta, second moments) is keyed by identity.  ``weight_decay``
implements decoupled L2 (added to the gradient), matching the regularized
losses of Eq. 13/14 when the penalty is not in the loss itself.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


def _descend(param: Parameter, update: np.ndarray) -> None:
    """Apply ``param.data -= update`` in place — the sanctioned descent write.

    Every non-momentum optimizer funnels its parameter update through
    this one site, so the repo has exactly two whitelisted in-place
    writes to tape-recorded arrays (this and SGD's momentum add).  The
    write is an out=-style ufunc call — bitwise-identical to the old
    ``param.data -= update`` rebind — followed by
    :meth:`repro.nn.Tensor.bump_version`, which keeps the version
    counters honest for the graph validator and the fused BiLSTM's
    backward-time safety checks.
    """
    np.subtract(param.data, update, out=param.data)  # lint: allow[MUT002] — optimizer update site: post-backward, before the next tape
    param.bump_version()


def clip_grad_norm(
    parameters: Iterable[Parameter],
    max_norm: float,
    error_if_nonfinite: bool = False,
) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence).  A
    non-finite norm (NaN/Inf gradients) is returned *unscaled* — scaling
    by ``max_norm / inf`` would silently zero every gradient, and a NaN
    comparison would silently skip the clip — so callers can detect
    divergence from the return value before applying the update; with
    ``error_if_nonfinite`` the call raises ``ValueError`` instead.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if not math.isfinite(total):
        if error_if_nonfinite:
            raise ValueError(f"gradient norm is non-finite ({total})")
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer: parameter bookkeeping and ``zero_grad``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization — mirrors the Module.load_state_dict contract:
    # strict keys and shapes, no silent partial loads.
    # ------------------------------------------------------------------
    def _hyper_state(self) -> Dict[str, Any]:
        """Subclass scalars beyond lr/weight_decay (e.g. Adam betas)."""
        return {}

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        expected = set(self._hyper_state())
        missing = expected - set(hyper)
        if missing:
            raise KeyError(f"optimizer state missing hyper keys: {sorted(missing)}")
        unexpected = set(hyper) - expected
        if unexpected:
            raise ValueError(f"unexpected optimizer hyper keys: {sorted(unexpected)}")

    def _state_slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        """``slot name → (id(param) → array)`` tables of per-param state."""
        return {}

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the optimizer: scalars plus per-parameter slot copies.

        ``state`` is a list aligned with :attr:`parameters`; each entry
        maps slot names (``m``/``v`` for Adam, ``velocity`` for SGD,
        ``sq`` for RMSprop) to copied arrays.
        """
        slots = self._state_slots()
        return {
            "type": type(self).__name__,
            "lr": float(self.lr),
            "weight_decay": float(self.weight_decay),
            "hyper": self._hyper_state(),
            "state": [
                {name: table[id(p)].copy() for name, table in slots.items()}
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
        if state["type"] != type(self).__name__:
            raise ValueError(
                f"optimizer type mismatch: state is for {state['type']!r}, "
                f"loading into {type(self).__name__!r}"
            )
        entries = state["state"]
        if len(entries) != len(self.parameters):
            raise ValueError(
                f"optimizer state has {len(entries)} parameter entries, "
                f"expected {len(self.parameters)}"
            )
        slots = self._state_slots()
        expected = set(slots)
        for index, (param, entry) in enumerate(zip(self.parameters, entries)):
            missing_slots = expected - set(entry)
            if missing_slots:
                raise KeyError(
                    f"parameter {index}: state missing slots {sorted(missing_slots)}"
                )
            unexpected = set(entry) - expected
            if unexpected:
                raise ValueError(
                    f"parameter {index}: unexpected state slots {sorted(unexpected)}"
                )
            for name in expected:
                value = np.asarray(entry[name], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"parameter {index} slot {name!r}: shape mismatch "
                        f"(expected {param.data.shape}, got {value.shape})"
                    )
                slots[name][id(param)] = value.copy()
        self.lr = float(state["lr"])
        self.weight_decay = float(state["weight_decay"])
        self._load_hyper(state["hyper"])

    def _grad(self, param: Parameter) -> Optional[np.ndarray]:
        grad = param.grad
        if grad is None:
            return None
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        return grad


class SGD(Optimizer):
    """Stochastic gradient descent, optionally with classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        self.momentum = momentum
        self._velocity = {id(p): np.zeros_like(p.data) for p in self.parameters}

    def _hyper_state(self) -> Dict[str, Any]:
        return {"momentum": float(self.momentum)}

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        super()._load_hyper(hyper)
        self.momentum = float(hyper["momentum"])

    def _state_slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"velocity": self._velocity}

    def step(self) -> None:
        for p in self.parameters:
            grad = self._grad(p)
            if grad is None:
                continue
            if self.momentum:
                v = self._velocity[id(p)]
                v *= self.momentum
                v -= self.lr * grad
                np.add(p.data, v, out=p.data)  # lint: allow[MUT002] — optimizer update site: post-backward, before the next tape
                p.bump_version()
            else:
                _descend(p, self.lr * grad)


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.parameters}
        self._v = {id(p): np.zeros_like(p.data) for p in self.parameters}

    def _hyper_state(self) -> Dict[str, Any]:
        return {
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "eps": float(self.eps),
            "step_count": int(self._step_count),
        }

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        super()._load_hyper(hyper)
        self.beta1 = float(hyper["beta1"])
        self.beta2 = float(hyper["beta2"])
        self.eps = float(hyper["eps"])
        self._step_count = int(hyper["step_count"])

    def _state_slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for p in self.parameters:
            grad = self._grad(p)
            if grad is None:
                continue
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            _descend(p, self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


class RMSprop(Optimizer):
    """RMSprop with exponentially decayed squared-gradient average."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        self.alpha = alpha
        self.eps = eps
        self._sq = {id(p): np.zeros_like(p.data) for p in self.parameters}

    def _hyper_state(self) -> Dict[str, Any]:
        return {"alpha": float(self.alpha), "eps": float(self.eps)}

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        super()._load_hyper(hyper)
        self.alpha = float(hyper["alpha"])
        self.eps = float(hyper["eps"])

    def _state_slots(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"sq": self._sq}

    def step(self) -> None:
        for p in self.parameters:
            grad = self._grad(p)
            if grad is None:
                continue
            sq = self._sq[id(p)]
            sq *= self.alpha
            sq += (1.0 - self.alpha) * grad**2
            _descend(p, self.lr * grad / (np.sqrt(sq) + self.eps))
