"""``repro.nn`` — a from-scratch autograd + neural-network substrate.

The paper trains RRRE and its neural baselines with a deep-learning
framework; this package is the reproduction's equivalent, built on numpy
reverse-mode autodiff.  Public surface:

* :class:`Tensor` and :mod:`repro.nn.functional` — differentiable ops
* :class:`Module` / :class:`Parameter` — model composition
* Layers: :class:`Linear`, :class:`Embedding`, :class:`Dropout`,
  :class:`MLP`, :class:`LSTM`, :class:`BiLSTM`, :class:`GRU`,
  :class:`Conv1d`, :class:`TextCNN`, :class:`ReviewAttention`,
  :class:`FactorizationMachine`; :class:`BiLSTM` and
  :class:`ReviewAttention` run fused, and :class:`PlanSafetyError` is
  what the fused BiLSTM's backward raises on stale state
* Losses: :func:`mse_loss`, :func:`weighted_mse_loss` (Eq. 14),
  :func:`cross_entropy_loss` (Eq. 11), :func:`binary_cross_entropy_loss`,
  :func:`l2_penalty`
* Optimizers: :class:`SGD`, :class:`Adam`, :class:`RMSprop`,
  :func:`clip_grad_norm`
"""

from . import functional
from .attention import ReviewAttention
from .conv import Conv1d, TextCNN
from .fm import FactorizationMachine
from .layers import MLP, Dropout, Embedding, Linear, Sequential
from .losses import (
    binary_cross_entropy_loss,
    cross_entropy_loss,
    l2_penalty,
    mse_loss,
    weighted_mse_loss,
)
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer, RMSprop, clip_grad_norm
from .recurrent import GRU, LSTM, BiLSTM, GRUCell, LSTMCell, PlanSafetyError
from .schedule import CosineAnnealingLR, EarlyStopping, ExponentialLR, LRScheduler, StepLR
from .tensor import Tensor, ensure_tensor

__all__ = [
    "Adam",
    "BiLSTM",
    "Conv1d",
    "CosineAnnealingLR",
    "Dropout",
    "EarlyStopping",
    "ExponentialLR",
    "Embedding",
    "FactorizationMachine",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "LRScheduler",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "PlanSafetyError",
    "RMSprop",
    "ReviewAttention",
    "SGD",
    "StepLR",
    "Sequential",
    "Tensor",
    "TextCNN",
    "binary_cross_entropy_loss",
    "clip_grad_norm",
    "cross_entropy_loss",
    "ensure_tensor",
    "functional",
    "l2_penalty",
    "mse_loss",
    "weighted_mse_loss",
]
