"""Traced lock wrappers: the runtime substrate of the concurrency suite.

Every lock in :mod:`repro.serve` and :mod:`repro.obs` is constructed
through :func:`make_lock`.  The factory makes a **construction-time**
choice:

* tracing disabled (the default) — a plain :class:`threading.Lock` is
  returned.  The serving hot path pays one extra function call at
  *construction*, never per acquire, so the instrumentation is
  zero-overhead when off.
* tracing enabled (:func:`enable_lock_tracing`, the ``--dynamic``
  analyze pass, or the ``REPRO_RACE_CHECK=1`` pytest fixture) — a
  :class:`TracedLock` is returned.

A traced lock maintains, on top of the real lock:

* **per-thread locksets** (:func:`current_lockset`) — the Eraser-style
  race detector (:mod:`repro.analysis.concurrency.races`) intersects
  these to find fields no common lock protects;
* **a wait-for graph** — a blocked acquire parks in bounded time slices
  and sweeps the graph between slices; a stable thread→lock→owner cycle
  raises :class:`DeadlockError` naming every edge, so an ABBA deadlock
  terminates the test instead of hanging it.

This module is deliberately stdlib-only: :mod:`repro.obs` imports it at
module level, so it must not import anything from :mod:`repro`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = [
    "DeadlockError",
    "TracedLock",
    "clear_tracing_state",
    "current_lock_names",
    "current_lockset",
    "disable_lock_tracing",
    "enable_lock_tracing",
    "find_deadlock",
    "lock_tracing",
    "make_lock",
    "recorded_deadlocks",
    "tracing_enabled",
    "waiting_threads",
]

#: Seconds a blocked acquire parks before sweeping the wait-for graph.
DETECT_SLICE = 0.05


class DeadlockError(RuntimeError):
    """A blocked acquire found itself on a wait-for cycle.

    ``cycle`` is the list of ``(thread_name, lock_name)`` edges: each
    thread is waiting for the named lock, whose owner is the next
    thread on the cycle (the last edge's owner is the first thread).
    """

    def __init__(self, cycle: List[Tuple[str, str]]) -> None:
        chain = " -> ".join(
            f"{thread!r} waits on {lock!r}" for thread, lock in cycle
        )
        super().__init__(f"deadlock detected: {chain} -> back to {cycle[0][0]!r}")
        self.cycle = cycle


class _TracingState:
    """Process-wide instrumentation state (one instance, module-private)."""

    def __init__(self) -> None:
        self.enabled = False
        #: Guards ``waiting`` and ``deadlocks``; a plain lock on purpose —
        #: tracing its own bookkeeping would recurse.
        self.guard = threading.Lock()
        #: thread ident -> (traced lock it is blocked on, thread name).
        self.waiting: Dict[int, Tuple["TracedLock", str]] = {}
        #: Every deadlock cycle ever detected (list of edge lists).
        self.deadlocks: List[List[Tuple[str, str]]] = []


_STATE = _TracingState()
_TLS = threading.local()


def _held_stack() -> List["TracedLock"]:
    stack = getattr(_TLS, "held", None)
    if stack is None:
        stack = []
        _TLS.held = stack
    return stack


def tracing_enabled() -> bool:
    """Whether :func:`make_lock` currently returns traced locks."""
    return _STATE.enabled


def enable_lock_tracing() -> None:
    """Make every subsequently constructed lock a traced one."""
    _STATE.enabled = True


def disable_lock_tracing() -> None:
    """Return :func:`make_lock` to plain stdlib locks.

    Locks already constructed keep whatever flavour they were born with.
    """
    _STATE.enabled = False


@contextmanager
def lock_tracing():
    """Enable lock tracing for the duration of the ``with`` block."""
    previous = _STATE.enabled
    _STATE.enabled = True
    try:
        yield
    finally:
        _STATE.enabled = previous


def make_lock(name: str):
    """A mutex for attribute guarding: plain or traced, chosen at construction.

    ``name`` labels the lock in locksets and deadlock reports; by
    convention it is the dotted owning-module role, e.g.
    ``"serve.cache"``.
    """
    if not _STATE.enabled:
        return threading.Lock()
    return TracedLock(name)


class TracedLock:
    """A :class:`threading.Lock` wrapper that knows who holds it and why.

    Tracks owner thread and per-thread lockset membership, and
    participates in the global wait-for graph.  A blocking acquire parks
    in :data:`DETECT_SLICE` increments and raises :class:`DeadlockError`
    when a stable cycle forms.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: Ident of the holding thread (None when free).  Written only
        #: by the holder; read racily by the deadlock sweep, which
        #: re-verifies any cycle before reporting.
        self.owner: Optional[int] = None
        self.owner_name: str = ""
        self._inner = threading.Lock()

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # -- acquire/release ----------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        thread = threading.current_thread()
        got = self._inner.acquire(False)
        if not got:
            if not blocking:
                return False
            with _STATE.guard:
                _STATE.waiting[thread.ident] = (self, thread.name)
            try:
                deadline = (
                    None
                    if timeout is None or timeout < 0
                    else time.perf_counter() + timeout
                )
                while not got:
                    slice_s = DETECT_SLICE
                    if deadline is not None:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0.0:
                            return False
                        slice_s = min(slice_s, remaining)
                    got = self._inner.acquire(True, slice_s)
                    if not got:
                        cycle = find_deadlock(thread.ident)
                        if cycle is not None:
                            with _STATE.guard:
                                _STATE.deadlocks.append(cycle)
                            raise DeadlockError(cycle)
            finally:
                with _STATE.guard:
                    _STATE.waiting.pop(thread.ident, None)
        self.owner = thread.ident
        self.owner_name = thread.name
        _held_stack().append(self)
        return True

    def release(self) -> None:
        self.owner = None
        self.owner_name = ""
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        state = f"held by {self.owner_name!r}" if self.owner is not None else "free"
        return f"{type(self).__name__}({self.name!r}, {state})"


# -- per-thread lockset introspection ---------------------------------


def current_lockset() -> FrozenSet[int]:
    """The ``id()``s of every traced lock the calling thread holds."""
    return frozenset(id(lock) for lock in _held_stack())


def current_lock_names() -> Tuple[str, ...]:
    """Names of the traced locks the calling thread holds, outermost first."""
    return tuple(lock.name for lock in _held_stack())


def waiting_threads() -> Dict[int, Tuple[TracedLock, str]]:
    """A snapshot of the wait-for graph's thread→lock edges."""
    with _STATE.guard:
        return dict(_STATE.waiting)


def clear_tracing_state() -> None:
    """Drop recorded deadlocks and wait-for edges (test isolation)."""
    with _STATE.guard:
        _STATE.deadlocks.clear()
        _STATE.waiting.clear()


def recorded_deadlocks() -> List[List[Tuple[str, str]]]:
    """Every deadlock cycle detected since the last clear."""
    with _STATE.guard:
        return [list(cycle) for cycle in _STATE.deadlocks]


# -- deadlock detection -----------------------------------------------


def _trace_cycle(start_ident: int) -> Optional[List[Tuple[str, str]]]:
    """Follow thread→lock→owner edges from ``start_ident``; one pass."""
    waiting = waiting_threads()
    edges: List[Tuple[str, str]] = []
    ident = start_ident
    visited = set()
    while True:
        entry = waiting.get(ident)
        if entry is None:
            return None
        lock, thread_name = entry
        edges.append((thread_name, lock.name))
        owner = lock.owner
        if owner is None:
            return None
        if owner == start_ident:
            return edges
        if owner in visited:
            return None  # a cycle, but not through the caller
        visited.add(owner)
        ident = owner


def find_deadlock(start_ident: int) -> Optional[List[Tuple[str, str]]]:
    """A stable wait-for cycle through ``start_ident``, or ``None``.

    Ownership is read racily, so a candidate cycle is confirmed by a
    second pass after a short pause: a transient coincidence of edges
    dissolves; a true deadlock cannot.
    """
    first = _trace_cycle(start_ident)
    if first is None:
        return None
    time.sleep(0.002)
    second = _trace_cycle(start_ident)
    return first if first == second else None
