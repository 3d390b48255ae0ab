"""Concurrency correctness suite: static lock lint, races, deadlocks.

Three cooperating parts over the threaded runtime (:mod:`repro.serve`,
:mod:`repro.obs`):

* :mod:`.lint_locks` — static lock-discipline rules ``LOCK001``–``LOCK004``
  (wired into the main :mod:`repro.analysis.lint` pass);
* :mod:`.locks` + :mod:`.races` — :func:`make_lock` traced-lock factory,
  per-thread locksets, wait-for-graph deadlock detection, and the
  Eraser-style dynamic race detector;
* :mod:`.harness` — the ``--dynamic`` exercise of the serving classes,
  with its two self-checks (a racy class and an ABBA deadlock).

CLI surface: ``python -m repro analyze --concurrency [--dynamic]``.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".lint_locks": (
            "LOCK_RULES",
            "LockModel",
            "build_lock_models",
            "collect_lock_violations",
        ),
        ".locks": (
            "DeadlockError",
            "TracedLock",
            "current_lock_names",
            "current_lockset",
            "disable_lock_tracing",
            "enable_lock_tracing",
            "find_deadlock",
            "lock_tracing",
            "make_lock",
            "tracing_enabled",
        ),
        ".races": (
            "RaceDetector",
            "RaceReport",
            "active_detector",
            "install_detector",
            "instrument_class",
            "race_detection",
            "uninstall_detector",
            "uninstrument_class",
        ),
        ".harness": ("analyze_concurrency", "run_dynamic_exercise"),
    },
)

__all__ = [
    "DeadlockError",
    "LOCK_RULES",
    "LockModel",
    "RaceDetector",
    "RaceReport",
    "TracedLock",
    "active_detector",
    "analyze_concurrency",
    "build_lock_models",
    "collect_lock_violations",
    "current_lock_names",
    "current_lockset",
    "disable_lock_tracing",
    "enable_lock_tracing",
    "find_deadlock",
    "install_detector",
    "instrument_class",
    "lock_tracing",
    "make_lock",
    "race_detection",
    "run_dynamic_exercise",
    "tracing_enabled",
    "uninstall_detector",
    "uninstrument_class",
]
