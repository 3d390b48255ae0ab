"""Concurrency correctness suite: static lock lint, races, deadlocks.

Three cooperating layers over the threaded runtime (:mod:`repro.serve`,
:mod:`repro.obs`):

* :mod:`.lint_locks` — static lock-discipline rules ``LOCK001``–``LOCK004``
  (wired into the main :mod:`repro.analysis.lint` pass);
* :mod:`.locks` + :mod:`.races` — :func:`make_lock` traced-lock factory,
  per-thread locksets, and the Eraser-style dynamic race detector;
* :mod:`.watchdog` — background wait-for-graph sweeps, held-too-long
  alarms, and ``repro_lock_*`` metric export.

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
            "LockStats",
            "TracedLock",
            "TracedRLock",
            "current_lock_names",
            "current_lockset",
            "disable_lock_tracing",
            "enable_lock_tracing",
            "find_deadlock",
            "lock_stats_snapshot",
            "lock_tracing",
            "make_lock",
            "make_rlock",
            "publish_lock_metrics",
            "set_lock_metrics",
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
        ".watchdog": ("DeadlockWatchdog", "LockAlert"),
        ".harness": ("analyze_concurrency", "run_dynamic_exercise"),
    },
)

__all__ = [
    "DeadlockError",
    "DeadlockWatchdog",
    "LOCK_RULES",
    "LockAlert",
    "LockModel",
    "LockStats",
    "RaceDetector",
    "RaceReport",
    "TracedLock",
    "TracedRLock",
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
    "lock_stats_snapshot",
    "lock_tracing",
    "make_lock",
    "make_rlock",
    "publish_lock_metrics",
    "race_detection",
    "run_dynamic_exercise",
    "set_lock_metrics",
    "tracing_enabled",
    "uninstall_detector",
    "uninstrument_class",
]
