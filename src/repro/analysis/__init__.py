"""Static analysis suite for the RRRE reproduction (``repro.analysis``).

Four cooperating passes certify a model/config *before* any training
compute is spent (see ``docs/analysis.md``):

* :mod:`~repro.analysis.shapes` — symbolic shape/dtype inference through
  every :mod:`repro.nn` layer and the full RRRE dataflow
  (:func:`check_shapes`), with errors naming the offending layer and the
  mismatched axes;
* :mod:`~repro.analysis.graph` — autograd-tape validation
  (:func:`validate_graph`): dead parameters, accidental detachment,
  non-finite(-prone) ops, dropout-mode bugs, and in-place mutation of
  tape-recorded arrays via version counters;
* :mod:`~repro.analysis.gradient_check` — finite-difference gradient checking
  (:func:`gradcheck`) with a registered case per shipped layer
  (:func:`run_layer_gradchecks`);
* :mod:`~repro.analysis.lint` — an AST linter (:func:`lint_paths`)
  enforcing RNG/clock/dtype/mutation discipline across the repo;
* :mod:`~repro.analysis.concurrency` — lock-discipline rules
  (``LOCK001``–``LOCK004``), an Eraser-style dynamic race detector over
  :func:`make_lock` traced locks, and wait-for-graph deadlock detection
  for the threaded serving/observability runtime
  (:func:`analyze_concurrency`).

Everything is surfaced on the command line via ``python -m repro
analyze``; :func:`preflight` packages the shape and graph passes as a
check to run on a model before training it.
"""

from __future__ import annotations

from typing import Dict

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".gradient_check": (
            "GradcheckFailure",
            "GradcheckResult",
            "LAYER_CASES",
            "gradcheck",
            "register_layer_case",
            "run_layer_gradchecks",
        ),
        ".graph": (
            "GraphIssue",
            "GraphReport",
            "GraphSnapshot",
            "snapshot_graph",
            "track_mutation_sites",
            "validate_graph",
        ),
        ".lint": ("RULES", "LintReport", "LintViolation", "lint_paths", "lint_source"),
        ".concurrency": (
            "DeadlockError",
            "RaceDetector",
            "RaceReport",
            "TracedLock",
            "analyze_concurrency",
            "disable_lock_tracing",
            "enable_lock_tracing",
            "instrument_class",
            "lock_tracing",
            "make_lock",
            "race_detection",
            "tracing_enabled",
        ),
        ".shapes": (
            "Dim",
            "ShapeCheckReport",
            "ShapeEnv",
            "ShapeError",
            "ShapeSpec",
            "apply_spec",
            "check_shapes",
            "infer_shapes",
            "scoped_env",
        ),
    },
)

__all__ = [
    "Dim",
    "ShapeSpec",
    "ShapeEnv",
    "ShapeError",
    "ShapeCheckReport",
    "scoped_env",
    "apply_spec",
    "infer_shapes",
    "check_shapes",
    "GraphIssue",
    "GraphReport",
    "GraphSnapshot",
    "snapshot_graph",
    "track_mutation_sites",
    "validate_graph",
    "GradcheckFailure",
    "GradcheckResult",
    "LAYER_CASES",
    "gradcheck",
    "register_layer_case",
    "run_layer_gradchecks",
    "RULES",
    "LintReport",
    "LintViolation",
    "lint_source",
    "lint_paths",
    "DeadlockError",
    "RaceDetector",
    "RaceReport",
    "TracedLock",
    "analyze_concurrency",
    "disable_lock_tracing",
    "enable_lock_tracing",
    "instrument_class",
    "lock_tracing",
    "make_lock",
    "race_detection",
    "tracing_enabled",
    "PreflightError",
    "preflight",
]


class PreflightError(RuntimeError):
    """A model failed pre-flight validation before training."""


def preflight(model, slots=None, table=None, mode: str = "shapes") -> Dict[str, object]:
    """Validate a model before spending training compute.

    ``mode="shapes"`` runs the symbolic shape check alone (no forward
    pass).  ``mode="strict"`` additionally executes one tiny real
    forward pass in eval mode (so the model's dropout RNG stream is not
    consumed and training stays bitwise-deterministic) and validates the
    resulting autograd tape — dead parameters, detachment, non-finite
    values, dropout-mode bugs.  ``slots``/``table`` are required for
    strict mode.

    Returns a JSON-able report dict; raises :class:`PreflightError` on
    any failure.
    """
    import numpy as np

    from .graph import snapshot_graph, validate_graph
    from .shapes import ShapeError, check_shapes

    if mode not in ("shapes", "strict"):
        raise ValueError(f"preflight mode must be 'shapes' or 'strict', got {mode!r}")
    report: Dict[str, object] = {"mode": mode}

    try:
        report["shapes"] = check_shapes(model, strict=True).to_dict()
    except ShapeError as err:
        raise PreflightError(f"shape check failed: {err}") from err

    if mode == "strict":
        if slots is None or table is None:
            raise ValueError("preflight mode='strict' requires slots and table")
        from repro.core.losses import joint_loss

        # One real (u, i) pair whose slot rows are non-empty, so every
        # branch of the forward runs on meaningful data.
        user = int(np.argmax(slots.user_slot_mask.any(axis=1)))
        item = int(np.argmax(slots.item_slot_mask.any(axis=1)))
        was_training = model.training
        model.eval()
        try:
            out = model(
                np.asarray([user], dtype=np.int64),
                np.asarray([item], dtype=np.int64),
                slots,
                table,
            )
            parts = joint_loss(
                out.rating,
                out.reliability_logits,
                np.asarray([3.0]),
                np.asarray([1]),
                lambda_weight=model.config.lambda_weight,
                biased=model.config.biased_loss,
            )
            snapshot = snapshot_graph(parts.total)
            graph_report = validate_graph(
                parts.total, model=model, snapshot=snapshot, expect_training=False
            )
        finally:
            if was_training:
                model.train()
        report["graph"] = graph_report.to_dict()
        if not graph_report.ok:
            details = "; ".join(str(issue) for issue in graph_report.errors)
            raise PreflightError(f"graph validation failed: {details}")
        model.zero_grad()
    return report
