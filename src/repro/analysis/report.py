"""Plain-text table rendering for the benchmark harness.

Every figure/table bench prints its data through these helpers so the
regenerated results read like the paper's: one labelled row per series
point, aligned columns, no plotting dependencies.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence


def write_json(obj: Any, path: str) -> Any:
    """``obj`` as indented, key-sorted JSON plus a newline; returns ``obj``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return obj


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str | None = None,
) -> str:
    """Fixed-width table with a title rule, ready to print."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_histogram(
    title: str,
    bins: Sequence[tuple[float, int]],
    bar_unit: int = 1,
    width: int = 50,
) -> str:
    """ASCII histogram (Figure 14 style)."""
    lines = [title, "=" * len(title)]
    peak = max((c for _, c in bins), default=1) or 1
    for edge, count in bins:
        bar = "#" * min(width, round(count * width / peak)) if count else ""
        lines.append(f"{100 * edge:5.1f}%  {count:5d}  {bar}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def human_bytes(n: float) -> str:
    """1234567 -> '1.23 MB'."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1000:
            return f"{n:.3g} {unit}"
        n /= 1000.0
    return f"{n:.3g} PB"
