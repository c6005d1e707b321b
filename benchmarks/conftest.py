"""Shared helper for the nine paper-figure scripts."""

from __future__ import annotations


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a paper-style results table."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    print()
    print(f"== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
