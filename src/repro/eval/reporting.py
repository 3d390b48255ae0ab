"""ASCII rendering of result tables and training-curve series."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(
    title: str,
    rows: Sequence[str],
    columns: Sequence[str],
    values: Mapping[str, Mapping[str, float]],
    precision: int = 3,
    highlight_best: str = "",
    best_axis: str = "column",
) -> str:
    """Render ``values[row][column]`` as a fixed-width table.

    ``highlight_best`` marks the best value with ``*`` — ``"min"`` for
    error metrics, ``"max"`` for AUC-like metrics — along ``best_axis``
    (``"column"``: best across rows per column; ``"row"``: best across
    columns per row).
    """
    if best_axis not in ("column", "row"):
        raise ValueError(f"best_axis must be 'column' or 'row', got {best_axis!r}")
    col_width = max(12, max((len(c) for c in columns), default=12) + 2)
    row_width = max(10, max((len(r) for r in rows), default=10) + 2)

    best: Dict[str, float] = {}
    if highlight_best in ("min", "max"):
        pick = min if highlight_best == "min" else max
        if best_axis == "column":
            for col in columns:
                col_vals = [
                    values[row][col] for row in rows if col in values.get(row, {})
                ]
                if col_vals:
                    best[col] = pick(col_vals)
        else:
            for row in rows:
                row_vals = [
                    values[row][col] for col in columns if col in values.get(row, {})
                ]
                if row_vals:
                    best[row] = pick(row_vals)

    lines = [title, "=" * (row_width + col_width * len(columns))]
    header = "".ljust(row_width) + "".join(c.rjust(col_width) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = [row.ljust(row_width)]
        for col in columns:
            value = values.get(row, {}).get(col)
            if value is None:
                cells.append("—".rjust(col_width))
                continue
            text = f"{value:.{precision}f}"
            key = col if best_axis == "column" else row
            if key in best and value == best[key]:
                text += "*"
            cells.append(text.rjust(col_width))
        lines.append("".join(cells))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    precision: int = 4,
) -> str:
    """Render named series over a shared x-axis (the Fig. 2-4 data)."""
    names = list(series)
    width = max(12, max(len(n) for n in names) + 2) if names else 12
    lines = [title, "=" * (12 + width * len(names))]
    lines.append(x_label.ljust(12) + "".join(n.rjust(width) for n in names))
    lines.append("-" * (12 + width * len(names)))
    for i, x in enumerate(x_values):
        cells = [f"{x:g}".ljust(12)]
        for name in names:
            seq = series[name]
            cells.append(
                (f"{seq[i]:.{precision}f}" if i < len(seq) else "—").rjust(width)
            )
        lines.append("".join(cells))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Tiny unicode chart for a numeric sequence (docs and logs)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // width)
    sampled: List[float] = list(values)[::step]
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled)
