"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or Table 1 (see
DESIGN.md §4). Each prints the rows it reproduces via
:func:`report` — run ``pytest benchmarks/ --benchmark-only -s`` to see
them inline; the same text is also appended to
``benchmarks/_reported.txt`` so a plain ``--benchmark-only`` run still
leaves the reproduced tables on disk.

At session end the harness also dumps ``benchmarks/BENCH_results.json``
— the reproduced tables plus pytest-benchmark's timing stats in one
machine-readable file, so CI (and perf-regression tooling) can diff
runs without scraping stdout — and ``benchmarks/RUN.json``, the
session's ``repro.run/v1`` bundle, so a perf regression arrives with a
breakdown (per-switch evidence counters, verify-cache hit rate, spans)
rather than just a total. Run with ``REPRO_TELEMETRY=1`` to capture
live per-link counters, per-stage spans and the attestation audit
journal too; render the bundle with ``python -m repro.telemetry.report``
(views ``report``, ``timeline``, ``health``, ``chrome``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, List, Mapping

_REPORT_PATH = pathlib.Path(__file__).parent / "_reported.txt"
_RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_results.json"
_RUN_PATH = pathlib.Path(__file__).parent / "RUN.json"

# Version stamp for BENCH_results.json; bump on layout changes.
_BENCH_SCHEMA = "repro.bench/v1"

# Tables reproduced during this session, in report() order.
_reported: List[dict] = []


def report(title: str, lines: Iterable[str]) -> None:
    """Print a reproduced table and append it to the report file."""
    lines = list(lines)
    text = "\n".join([f"--- {title} ---", *lines, ""])
    print("\n" + text)
    with _REPORT_PATH.open("a", encoding="utf-8") as handle:
        handle.write(text + "\n")
    _reported.append({"title": title, "lines": lines})


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


def _benchmark_stats(config) -> List[dict]:
    """Serialize pytest-benchmark's per-test stats, if any ran."""
    session = getattr(config, "_benchmarksession", None)
    if session is None:
        return []
    out = []
    for bench in getattr(session, "benchmarks", []):
        try:
            out.append(bench.as_dict(include_data=False))
        except Exception:  # stats API drift must not fail the run
            out.append({"name": getattr(bench, "name", "?")})
    return out


def _dump_telemetry() -> None:
    """Attach the session's run bundle next to the results.

    With ``REPRO_TELEMETRY`` unset the ambient telemetry is the null
    object; the bundle then still carries the process-wide shared
    state (most usefully the memoized verify-cache hit rate) via the
    global collectors. With it set, the full live registry — per-link
    counters, per-switch gauges, per-stage spans, the audit journal —
    lands here.
    """
    from repro.telemetry import (
        Telemetry,
        default_telemetry,
        run_bundle,
        write_run,
    )

    telemetry = default_telemetry()
    if not telemetry.active:
        telemetry = Telemetry()  # holder for the global collectors only
    write_run(run_bundle(telemetry), _RUN_PATH)


def pytest_sessionfinish(session, exitstatus):
    """Dump everything this run reproduced as one JSON document."""
    benchmarks = _benchmark_stats(session.config)
    if not benchmarks and not _reported:
        return  # collection-only / non-benchmark invocation
    document = {
        "schema": _BENCH_SCHEMA,
        "exit_status": int(exitstatus),
        "reported_tables": _reported,
        "benchmarks": benchmarks,
    }
    with _RESULTS_PATH.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    try:
        _dump_telemetry()
    except Exception as error:  # telemetry must never fail a bench run
        print(f"(telemetry export skipped: {error})")
