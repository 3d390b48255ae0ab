"""Preallocated, reused scratch buffers for planned kernels.

The pool is the plan executor's answer to per-op allocation churn: a
planned LSTM step writes its gate pre-activations, cell states, and
hidden states into storage that is allocated once per buffer *name* and
reused on every subsequent call.  Storage is capacity-based: each name
owns one flat array that grows monotonically to the largest request
seen, and :meth:`get` returns a contiguous view reshaped to the
requested shape — so the varying batch sizes of the deduplicated
review encoder (a different unique-review count every batch) reuse one
buffer instead of allocating per distinct shape.  Names embed the
owning module's dotted path, so two executors never alias each other's
scratch.

The cardinal rule (see ``docs/execution_plan.md``): **only internal
scratch is pooled**.  Any array that escapes into the autograd tape —
layer outputs, gradients returned from a backward closure — is freshly
allocated, because pooled storage is overwritten by the next call while
the tape may still be alive.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Name-keyed pool of persistent ``float64`` scratch storage.

    :meth:`get` returns a contiguous view over the name's flat backing
    array, reshaped to the requested shape, *uninitialized* — it holds
    whatever the previous use left behind, so kernels must fully
    overwrite anything they read.  Use :meth:`zeros` when a cleared
    buffer is required.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Return pooled scratch of ``shape``, growing the backing storage
        for ``name`` only when the request exceeds its capacity."""
        shape = tuple(int(s) for s in shape)
        count = 1
        for s in shape:
            count *= s
        backing = self._buffers.get(name)
        if backing is None or backing.size < count:
            self.misses += 1
            backing = np.empty(count, dtype=np.float64)
            self._buffers[name] = backing
        else:
            self.hits += 1
        return backing[:count].reshape(shape)

    def zeros(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Like :meth:`get` but cleared to 0.0 before returning."""
        buffer = self.get(name, shape)
        buffer.fill(0.0)
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def names(self) -> List[str]:
        """Sorted names of the pooled buffers."""
        return sorted(self._buffers)

    def __len__(self) -> int:
        return len(self._buffers)

    def stats(self) -> Dict[str, int]:
        """Allocation statistics: buffer count, bytes, hit/miss counters."""
        return {
            "buffers": len(self._buffers),
            "bytes": int(self.nbytes),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop every pooled buffer (and reset the counters)."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0
