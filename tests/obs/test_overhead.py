"""Observability must stay cheap: full telemetry within 1.5x of the off path.

Margins are deliberately generous (ratio plus an absolute slack term) —
this is a guard against pathological regressions (per-batch file I/O,
accidental O(n) span bookkeeping), not a micro-benchmark.
"""

import time

from repro.core import RRRETrainer, fast_config
from repro.data import load_dataset, train_test_split
from repro.obs import Tracer, use_tracer

#: Allowed ratio of instrumented to plain wall time, plus absolute slack
#: (seconds) so tiny baselines on noisy CI boxes don't flake.
MAX_RATIO = 1.5
SLACK_SECONDS = 0.75


def _fit_seconds(dataset, train, test, telemetry):
    trainer = RRRETrainer(fast_config(epochs=2, seed=0))
    start = time.perf_counter()
    trainer.fit(dataset, train, test, telemetry=telemetry)
    return time.perf_counter() - start


def test_tracing_and_metrics_overhead_bounded(tmp_path):
    dataset = load_dataset("yelpchi", seed=0, scale=0.15)
    train, test = train_test_split(dataset, seed=0)

    # Warm-up: JIT-free numpy still benefits from cache/allocator warmth.
    _fit_seconds(dataset, train, test, telemetry=None)

    plain = _fit_seconds(dataset, train, test, telemetry=None)
    # Everything on: layer profiling, span tracing to a real file, metric
    # recording, health monitors.
    with Tracer(tmp_path / "run.jsonl") as tracer, use_tracer(tracer):
        instrumented = _fit_seconds(dataset, train, test, telemetry=True)
    assert instrumented <= plain * MAX_RATIO + SLACK_SECONDS, (
        f"observability overhead too high: instrumented={instrumented:.3f}s "
        f"plain={plain:.3f}s"
    )
    assert (tmp_path / "run.jsonl").exists()
