"""Plain-text table rendering for the experiment harness."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    series: Mapping[object, float],
    key_name: str = "x",
    value_name: str = "y",
    float_format: str = "{:.3f}",
    title: Optional[str] = None,
) -> str:
    """Render an (x -> y) mapping as a two-column table (figure data series)."""
    rows = [{key_name: k, value_name: v} for k, v in series.items()]
    return format_table(rows, columns=[key_name, value_name], float_format=float_format, title=title)
