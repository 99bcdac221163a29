"""Plain-text rendering: aligned tables and CDF quantile rows.

The environment has no plotting stack, so every "figure" bench prints the
underlying series. These helpers keep that output readable.
"""

from __future__ import annotations

from repro.analysis.cdf import Cdf


def format_table(rows: list[dict[str, object]], columns: list[str] | None = None) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return "(empty)"
    if columns is None:
        # Union of keys across all rows, first-seen order: summary rows
        # (e.g. a distribution fit appended to per-region quantiles) often
        # carry extra columns.
        columns = list(dict.fromkeys(key for row in rows for key in row))
    widths = {col: len(col) for col in columns}
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                text = f"{value:.4g}"
            else:
                text = str(value)
            widths[col] = max(widths[col], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[col]) for cell, col in zip(cells, columns)))
    return "\n".join(lines)


def format_cdf_rows(
    cdfs: dict[str, Cdf], quantiles=(0.25, 0.5, 0.75, 0.9, 0.99)
) -> list[dict[str, object]]:
    """Summarise several CDFs as quantile rows for format_table."""
    rows = []
    for name, cdf in cdfs.items():
        row: dict[str, object] = {"series": name, "n": cdf.n}
        for q in quantiles:
            row[f"p{int(q * 100)}"] = cdf.quantile(q)
        rows.append(row)
    return rows


def format_proportions(
    proportions: dict[str, dict[str, float]]
) -> list[dict[str, object]]:
    """Flatten ``fig08_proportions`` output for tabular printing (Fig. 8d–f)."""
    rows = []
    for category in sorted(proportions):
        shares = proportions[category]
        row: dict[str, object] = {"category": category}
        row.update({key: round(value, 4) for key, value in shares.items()})
        rows.append(row)
    return rows
