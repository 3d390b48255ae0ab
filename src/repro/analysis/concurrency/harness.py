"""The ``analyze --concurrency [--dynamic]`` entry point.

Static half: run the ``LOCK001``–``LOCK004`` rules (and only those —
the general ``--lint`` pass owns the rest) over a target tree and
summarize the per-class lock models the pass inferred.

Dynamic half (:func:`run_dynamic_exercise`): under
:func:`~.locks.lock_tracing`, instrument the threaded serving classes
(:class:`~repro.serve.cache.TTLCache`,
:class:`~repro.serve.resilience.AdmissionController`,
:class:`~repro.serve.resilience.CircuitBreaker`) with the Eraser
detector and hammer them from worker threads; the exercise must finish
with **zero candidate races**.  Two *self-checks* prove the tooling
works before trusting that zero: a deliberately racy class must produce
a race report, and a live ABBA acquisition must raise
:class:`~.locks.DeadlockError`.
"""

from __future__ import annotations

import ast
import threading
from typing import Dict, List, Sequence

from ..lint import LintViolation, lint_source, _iter_python_files
from . import lint_locks
from .locks import (
    DeadlockError,
    TracedLock,
    clear_tracing_state,
    lock_tracing,
)
from .races import (
    RaceReport,
    install_detector,
    instrument_class,
    uninstall_detector,
    uninstrument_class,
)

__all__ = ["analyze_concurrency", "run_dynamic_exercise"]


def _static_pass(target: str) -> Dict[str, object]:
    violations: List[LintViolation] = []
    models: Dict[str, Dict[str, object]] = {}
    files = _iter_python_files([target])
    for path in files:
        source = path.read_text()
        violations.extend(
            v for v in lint_source(source, str(path)) if v.rule.startswith("LOCK")
        )
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue
        file_models = lint_locks.build_lock_models(tree, str(path))
        if file_models:
            models[str(path)] = {
                name: model.to_dict() for name, model in file_models.items()
            }
    return {
        "ok": not violations,
        "files_checked": len(files),
        "violations": [v.to_dict() for v in violations],
        "models": models,
    }


class _RacySelfCheck:
    """Deliberately unguarded counter the detector must flag."""

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value = self.value + 1


def _self_check_races() -> bool:
    detector = install_detector()
    try:
        instrument_class(_RacySelfCheck)
        victim = _RacySelfCheck()
        threads = [
            threading.Thread(
                target=lambda: [victim.bump() for _ in range(200)],
                name=f"race-self-check-{i}",
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return any(
            r.cls == "_RacySelfCheck" and r.field == "value"
            for r in detector.races()
        )
    finally:
        uninstrument_class(_RacySelfCheck)
        uninstall_detector()


def _self_check_deadlock() -> bool:
    lock_a = TracedLock("self-check.a")
    lock_b = TracedLock("self-check.b")
    caught = []
    gate_a = threading.Event()
    gate_b = threading.Event()

    def ab() -> None:
        try:
            with lock_a:
                gate_a.set()
                gate_b.wait(timeout=5.0)
                with lock_b:
                    pass
        except DeadlockError:
            caught.append(True)

    def ba() -> None:
        try:
            with lock_b:
                gate_b.set()
                gate_a.wait(timeout=5.0)
                with lock_a:
                    pass
        except DeadlockError:
            caught.append(True)

    threads = [
        threading.Thread(target=ab, name="deadlock-self-check-ab"),
        threading.Thread(target=ba, name="deadlock-self-check-ba"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    return bool(caught)


#: Fields the serving classes deliberately leave unguarded; each entry
#: names a single-writer or GIL-atomic pattern the Eraser machine would
#: misread as a race.
_SERVE_EXCLUSIONS: Dict[str, Sequence[str]] = {
    # CacheStats counters are only ever mutated by TTLCache methods that
    # hold the cache lock, but the *stats object reference* itself is
    # read lock-free by monitoring (`cache.stats.to_dict()`), which is
    # safe: the reference never changes after __init__.
    "CacheStats": ("hits", "misses", "evictions", "expirations", "stale_hits"),
}


def run_dynamic_exercise(
    threads: int = 8, iterations: int = 300
) -> Dict[str, object]:
    """Hammer the instrumented serving classes; see the module docstring."""
    from ...serve.cache import CacheStats, TTLCache
    from ...serve.resilience import AdmissionController, CircuitBreaker, ServerOverloaded

    clear_tracing_state()
    with lock_tracing():
        racy_detected = _self_check_races()
        deadlock_detected = _self_check_deadlock()
        clear_tracing_state()

        cache = TTLCache(max_size=64, ttl=30.0)
        admission = AdmissionController(max_inflight=threads * 2)
        breaker = CircuitBreaker(failure_threshold=3, reset_after=0.01)
        detector = install_detector()
        classes = [
            (TTLCache, ()),
            (CacheStats, _SERVE_EXCLUSIONS["CacheStats"]),
            (AdmissionController, ()),
            (CircuitBreaker, ()),
        ]
        for cls, exclude in classes:
            instrument_class(cls, exclude=exclude)
        try:
            def worker(worker_id: int) -> None:
                for i in range(iterations):
                    key = (worker_id * 7 + i) % 40
                    cache.put(key, i)
                    cache.get((i * 3) % 40)
                    if i % 11 == 0:
                        cache.purge_expired()
                    try:
                        admission.acquire()
                    except ServerOverloaded:
                        continue
                    try:
                        if breaker.allow():
                            if i % 13 == 0:
                                breaker.record_failure()
                            else:
                                breaker.record_success()
                    finally:
                        admission.release(0.0001)

            pool = [
                threading.Thread(target=worker, args=(n,), name=f"dyn-exercise-{n}")
                for n in range(threads)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            races: List[RaceReport] = detector.races()
        finally:
            for cls, _exclude in classes:
                uninstrument_class(cls)
            uninstall_detector()

    return {
        "ok": not races and racy_detected and deadlock_detected,
        "races": [r.to_dict() for r in races],
        "self_check": {
            "racy_class_detected": racy_detected,
            "abba_deadlock_detected": deadlock_detected,
        },
        "exercise": {"threads": threads, "iterations": iterations},
    }


def analyze_concurrency(
    target: str = "src/repro", dynamic: bool = False
) -> Dict[str, object]:
    """The full ``--concurrency`` pass payload (static, plus dynamic)."""
    payload = _static_pass(target)
    if dynamic:
        dynamic_payload = run_dynamic_exercise()
        payload["dynamic"] = dynamic_payload
        payload["ok"] = bool(payload["ok"]) and bool(dynamic_payload["ok"])
    return payload
