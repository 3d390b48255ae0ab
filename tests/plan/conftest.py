"""The reference compositions the fused layers are held to.

``BiLSTM.forward`` and ``ReviewAttention``'s ``F.masked_softmax`` are
fused single tape nodes.  Inside ``reference_layers()`` they run as the
tape-op compositions they replace: the two child LSTMs, and
``masked_fill`` followed by ``softmax``.
"""

import contextlib

import pytest

from repro.nn import BiLSTM
from repro.nn import functional as F


def reference_masked_softmax(a, mask):
    """The two-op form of :func:`repro.nn.functional.masked_softmax`."""
    return F.softmax(F.masked_fill(a, mask, -1e9), axis=-1)


@contextlib.contextmanager
def _reference_layers():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BiLSTM, "forward", BiLSTM.reference_forward)
        patch.setattr(F, "masked_softmax", reference_masked_softmax)
        yield


@pytest.fixture(scope="session")
def reference_layers():
    """A context manager under which BiLSTM and the attention softmax
    run their reference compositions."""
    return _reference_layers
