"""Small statistics and process helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: A run's latency samples are cut into at most MAX_WINDOWS windows.
MAX_WINDOWS = 10
#: Samples a window must hold beyond the tail percentile for the tail
#: to be reported; a run with fewer fails as not comparable.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _rank(n: int, pct: float) -> int:
    """Nearest rank of ``pct`` among ``n`` samples (rounded against float error)."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return float(sorted(values)[_rank(len(values), pct) - 1])


def windows(samples: Sequence[Tuple[float, float]], size: int) -> List[List[Tuple[float, float]]]:
    """Cut ``(done_at, latency_ms)`` samples, in time order, into equal windows.

    Each window holds at least ``size`` samples (unless the run has
    fewer) and there are at most MAX_WINDOWS of them.
    """
    ordered = sorted(samples)
    count = max(1, min(MAX_WINDOWS, len(ordered) // size))
    width = len(ordered) // count
    return [ordered[i * width: (i + 1) * width if i < count - 1 else None] for i in range(count)]


def windowed(parts: Sequence[Sequence[Tuple[float, float]]], pct: float) -> Dict[str, float]:
    """Latency p50 and p``pct`` per window, and their medians over windows.

    Machine speed can drift over tens of seconds (it did by ~15% on the
    2-vCPU virtual machine this was built on), so p50 and tail are
    taken within each window and the median over windows is reported:
    one slow window then moves them little.  The percentile is fixed per
    workload so that two runs compare the same quantity; ``tail_beyond``
    is the fewest samples any window holds beyond it.
    """
    latencies = [[latency for _, latency in part] for part in parts]
    n = min(len(part) for part in latencies)
    return {
        "p50": median([median(part) for part in latencies]),
        "tail": median([percentile(part, pct) for part in latencies]),
        "tail_pct": pct,
        "tail_beyond": n - _rank(n, pct),
        "window_samples": n,
        "windows": len(parts),
    }


def tail_failure(latency: Dict[str, float]) -> Optional[str]:
    """A failure message when the tail rests on too few samples to compare."""
    if latency["tail_beyond"] >= TAIL_BEYOND:
        return None
    return (
        f"p{latency['tail_pct']:g} has {latency['tail_beyond']} samples beyond it in its"
        f" smallest window ({latency['window_samples']} samples), fewer than {TAIL_BEYOND}"
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)  # end to end
    layers: Dict[str, float] = field(default_factory=dict)  # traced run only
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)
