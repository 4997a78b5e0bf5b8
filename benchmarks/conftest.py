"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or Table 1 (see
DESIGN.md §4). Each prints the rows it reproduces via
:func:`report` — run ``pytest benchmarks/ --benchmark-only -s`` to see
them inline; the same text is also appended to
``benchmarks/_reported.txt`` so a plain ``--benchmark-only`` run still
leaves the reproduced tables on disk.

Invariants a benchmark measures (ratios taken within one process, so
immune to runner speed) are asserts in that benchmark. Speed is gated
by the performance ledger (``benchmarks/ledger/``, ``run.py compare``).
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Mapping

_REPORT_PATH = pathlib.Path(__file__).parent / "_reported.txt"


def report(title: str, lines: Iterable[str]) -> None:
    """Print a reproduced table and append it to the report file."""
    text = "\n".join([f"--- {title} ---", *lines, ""])
    print("\n" + text)
    with _REPORT_PATH.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n")


def table(rows: Iterable[Mapping[str, object]]) -> Iterable[str]:
    """Align a list of dict rows into table lines."""
    rows = list(rows)
    if not rows:
        return ["(no rows)"]
    headers = list(rows[0])
    widths = {
        h: max(len(str(h)), *(len(str(r[h])) for r in rows)) for h in headers
    }
    lines = [
        "  ".join(str(h).ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    return lines
