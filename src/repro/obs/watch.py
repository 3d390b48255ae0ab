"""Live terminal rendering of a traced training run.

``python -m repro watch run.jsonl`` consumes the JSONL event stream a
traced run writes (see :mod:`repro.obs.trace`) and renders a compact
status screen: run identity, per-epoch losses and eval metrics, a loss
sparkline, health alerts, and span counts per kind.  One-shot by
default; ``--follow`` tails the file and redraws until a ``run_end``
event arrives.

The renderer is pull-based and stateless about the producer: it only
ever *reads* the event file, skips malformed or truncated lines (the
producer may be mid-write), and works on finished runs just as well as
live ones — so it doubles as a post-hoc run inspector.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Any, Dict, List, Optional

from .report import _sparkline

__all__ = ["WatchState", "render_file", "watch"]

#: ANSI: clear screen and home the cursor (follow-mode redraw).
_CLEAR = "\x1b[2J\x1b[H"


class WatchState:
    """Replayable aggregate of one run's event stream.

    Feed events (in file order) via :meth:`feed`; :meth:`render` turns
    the current aggregate into the status screen.  Unknown event names
    are tolerated and tallied, so the schema can grow without breaking
    old watchers.
    """

    def __init__(self) -> None:
        self.run: Dict[str, Any] = {}
        self.epochs: List[Dict[str, Any]] = []
        self.alerts: List[Dict[str, Any]] = []
        self.final: Dict[str, Any] = {}
        self.span_kinds: TallyCounter = TallyCounter()
        self.open_spans: Dict[str, Dict[str, Any]] = {}
        self.events_seen = 0
        self.last_ts: Optional[float] = None
        self.finished = False

    # -- ingestion -----------------------------------------------------
    def feed_line(self, line: str) -> None:
        """Parse and feed one JSONL line; malformed lines are skipped."""
        line = line.strip()
        if not line:
            return
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            return
        if isinstance(event, dict):
            self.feed(event)

    def feed(self, event: Dict[str, Any]) -> None:
        """Fold one event dict into the aggregate."""
        self.events_seen += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts = float(ts)
        etype = event.get("event")
        name = event.get("name", "")
        attrs = event.get("attrs") or {}
        if etype == "span_begin":
            self.span_kinds[event.get("kind", "span")] += 1
            span_id = event.get("span")
            if span_id is not None:
                self.open_spans[str(span_id)] = event
        elif etype == "span_end":
            self.open_spans.pop(str(event.get("span")), None)
        elif etype == "point":
            if name == "run_start":
                self.run = dict(attrs)
            elif name == "epoch":
                self.epochs.append(dict(attrs))
            elif name == "health":
                self.alerts.append(dict(attrs))
            elif name == "run_end":
                self.final = dict(attrs)
                self.finished = True

    # -- rendering -----------------------------------------------------
    def render(self, max_epochs: int = 12, now: Optional[float] = None) -> str:
        """The status screen as a plain string."""
        lines: List[str] = []
        dataset = self.run.get("dataset", "?")
        total = self.run.get("epochs", "?")
        status = "finished" if self.finished else "running"
        header = (
            f"RRRE run — dataset={dataset}  epoch {len(self.epochs)}/{total}  "
            f"status={status}"
        )
        lines.append(header)
        lines.append("=" * max(40, len(header)))
        shape = "  ".join(
            f"{key}={self.run[key]}"
            for key in ("users", "items", "reviews", "encoder")
            if key in self.run
        )
        if shape:
            lines.append(shape)
        if now is None:
            now = time.time()  # lint: allow[TIME001] — display-only staleness readout
        if self.last_ts is not None and not self.finished:
            lines.append(f"last event: {max(0.0, now - self.last_ts):.0f}s ago")

        if self.epochs:
            lines.append("")
            lines.append("epoch     loss    rel_loss  rating    sec   metrics")
            lines.append("-" * 64)
            for record in self.epochs[-max_epochs:]:
                metrics = {
                    k: v
                    for k, v in record.items()
                    if k
                    not in (
                        "epoch", "train_loss", "reliability_loss",
                        "rating_loss", "seconds", "grad_norm",
                    )
                    and isinstance(v, (int, float))
                }
                metric_text = " ".join(f"{k}={v:.4f}" for k, v in metrics.items())
                lines.append(
                    f"{record.get('epoch', '?'):>5}"
                    f"  {_num(record.get('train_loss')):>8}"
                    f"  {_num(record.get('reliability_loss')):>8}"
                    f"  {_num(record.get('rating_loss')):>8}"
                    f"  {_num(record.get('seconds'), '{:.1f}'):>5}"
                    f"  {metric_text}"
                )
            losses = [
                r["train_loss"]
                for r in self.epochs
                if isinstance(r.get("train_loss"), (int, float))
            ]
            if len(losses) > 1:
                lines.append("loss curve: " + _sparkline(losses))

        lines.append("")
        if self.alerts:
            lines.append(f"health: {len(self.alerts)} alert(s)")
            for alert in self.alerts[-6:]:
                lines.append(
                    f"  [{alert.get('severity', '?')}] epoch "
                    f"{alert.get('epoch', '?')} {alert.get('monitor', '?')}: "
                    f"{alert.get('message', '')}"
                )
        else:
            lines.append("health: ok (no alerts)")

        if self.span_kinds:
            tally = "  ".join(
                f"{kind}={count}" for kind, count in sorted(self.span_kinds.items())
            )
            lines.append(f"spans:  {tally}")
        if self.open_spans and not self.finished:
            names = ", ".join(
                str(e.get("name", "?")) for e in list(self.open_spans.values())[-3:]
            )
            lines.append(f"active: {names}")
        if self.final:
            metric_text = "  ".join(
                f"{k}={v:.4f}"
                for k, v in self.final.items()
                if isinstance(v, (int, float))
            )
            lines.append(f"final:  {metric_text}")
        return "\n".join(lines)


def _num(value: Any, fmt: str = "{:.4f}") -> str:
    if isinstance(value, (int, float)):
        return fmt.format(value)
    return "-"


def render_file(path) -> str:
    """One-shot render of an event file's current contents."""
    state = WatchState()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            state.feed_line(line)
    return state.render()


def watch(
    path,
    follow: bool = False,
    poll: float = 0.5,
    stream=None,
    max_polls: Optional[int] = None,
) -> int:
    """Render ``path``; with ``follow`` keep tailing until ``run_end``.

    ``max_polls`` bounds the follow loop (for tests); returns 0 on
    success, 2 when the file does not exist.
    """
    stream = stream or sys.stdout
    target = Path(path)
    if not target.exists():
        print(f"watch: no such event file: {target}", file=sys.stderr)
        return 2
    state = WatchState()
    with open(target, "r", encoding="utf-8") as fh:
        for line in fh:
            state.feed_line(line)
        print(state.render(), file=stream)
        if not follow:
            return 0
        polls = 0
        while not state.finished:
            if max_polls is not None and polls >= max_polls:
                break
            time.sleep(poll)
            polls += 1
            for line in fh:
                state.feed_line(line)
            # Redraw every poll so the "last event" clock keeps ticking.
            print(_CLEAR + state.render(), file=stream)
    return 0
