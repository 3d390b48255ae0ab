"""``repro.nn`` — a from-scratch autograd + neural-network substrate.

The paper trains RRRE and its neural baselines with a deep-learning
framework; this package is the reproduction's equivalent, built on numpy
reverse-mode autodiff.  Public surface:

* :class:`Tensor` and :mod:`repro.nn.functional` — differentiable ops
* :class:`Module` / :class:`Parameter` — model composition
* Layers: :class:`Linear`, :class:`Embedding`, :class:`Dropout`,
  :class:`LSTM`, :class:`BiLSTM`, :class:`GRU`, :class:`Conv1d`,
  :class:`TextCNN`, :class:`ReviewAttention`,
  :class:`FactorizationMachine`; :class:`BiLSTM` and
  :class:`ReviewAttention` run fused, and :class:`PlanSafetyError` is
  what the fused BiLSTM's backward raises on stale state
* Losses: :func:`mse_loss`, :func:`weighted_mse_loss` (Eq. 14),
  :func:`cross_entropy_loss` (Eq. 11)
* Optimizer: :class:`Adam` (L2 through ``weight_decay``),
  :func:`clip_grad_norm`
"""

from . import functional
from .attention import ReviewAttention
from .conv import Conv1d, TextCNN
from .fm import FactorizationMachine
from .layers import Dropout, Embedding, Linear
from .losses import cross_entropy_loss, mse_loss, weighted_mse_loss
from .module import Module, Parameter
from .optim import Adam, clip_grad_norm
from .recurrent import GRU, LSTM, BiLSTM, GRUCell, LSTMCell, PlanSafetyError
from .tensor import Tensor, ensure_tensor

__all__ = [
    "Adam",
    "BiLSTM",
    "Conv1d",
    "Dropout",
    "Embedding",
    "FactorizationMachine",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "Parameter",
    "PlanSafetyError",
    "ReviewAttention",
    "Tensor",
    "TextCNN",
    "clip_grad_norm",
    "cross_entropy_loss",
    "ensure_tensor",
    "functional",
    "mse_loss",
    "weighted_mse_loss",
]
