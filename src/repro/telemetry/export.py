"""Exports: JSON snapshot, Chrome trace-event file, text summary.

Three consumers, three formats:

- :func:`snapshot` / :func:`dump_json` — the machine-readable dump CI
  diffs and benchmarks attach next to ``BENCH_results.json``.
- :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format understood by ``chrome://tracing`` / Perfetto. Spans become
  complete (``"ph": "X"``) events; each span *track* (switch, node,
  appraiser) becomes a named thread. ``timebase="wall"`` lays spans
  out by what they cost this process (the profiling view);
  ``timebase="sim"`` lays them out on the simulated-network timeline
  (the dataplane view, where same-event work is instantaneous).
- :func:`summary` — the plain-text table a human reads after a run.

Every export calls the global collectors first, so shared state like
the memoized verify cache's hit rate is always current in the output.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.telemetry.audit import AUDIT_SCHEMA
from repro.telemetry.instrument import Telemetry, collect_globals
from repro.telemetry.metrics import Histogram, render_name

Pathish = Union[str, pathlib.Path]

#: Schema tag stamped into chrome-trace exports (bump on layout changes).
TRACE_SCHEMA = "repro.trace/v1"


# --- JSON snapshot --------------------------------------------------------------


def snapshot(telemetry: Telemetry) -> Dict[str, object]:
    """One run's telemetry as a JSON-serializable document."""
    collect_globals(telemetry)
    spans = [
        {
            "name": span.name,
            "track": span.track,
            "depth": span.depth,
            "sim_start_s": span.sim_start,
            "sim_end_s": span.sim_end,
            "wall_duration_s": span.wall_duration,
            **({"args": span.args} if span.args else {}),
        }
        for span in telemetry.spans.records
    ]
    return {
        "active": telemetry.active,
        "metrics": telemetry.metrics.snapshot(),
        "spans": spans,
        "spans_dropped": telemetry.spans.dropped,
        "audit_events": len(telemetry.audit),
        "audit_events_dropped": telemetry.audit.dropped,
    }


def dump_json(telemetry: Telemetry, path: Pathish) -> pathlib.Path:
    """Write :func:`snapshot` to ``path``; returns the path written."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(snapshot(telemetry), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# --- audit journal export ---------------------------------------------------------


def audit_snapshot(telemetry: Telemetry) -> Dict[str, object]:
    """The audit journal as a schema-versioned JSON document.

    Validated against ``docs/schemas/audit_v1.schema.json`` in tier-1
    tests, so downstream tooling can rely on the layout.
    """
    return {
        "schema": AUDIT_SCHEMA,
        "events": [event.as_dict() for event in telemetry.audit],
        "events_dropped": telemetry.audit.dropped,
    }


def dump_audit(telemetry: Telemetry, path: Pathish) -> pathlib.Path:
    """Write :func:`audit_snapshot` to ``path``; returns the path."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(audit_snapshot(telemetry), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# --- Chrome trace-event format ----------------------------------------------------


def chrome_trace(
    telemetry: Telemetry, timebase: str = "wall"
) -> Dict[str, object]:
    """Spans as a ``chrome://tracing`` / Perfetto trace document."""
    if timebase not in ("wall", "sim"):
        raise ValueError(f"timebase must be 'wall' or 'sim', got {timebase!r}")
    collect_globals(telemetry)
    records = telemetry.spans.records
    events: List[Dict[str, object]] = []
    track_ids: Dict[str, int] = {}
    # Spans carrying a trace tag are stitched with flow events: one
    # flow id per packet trace, so the viewer draws an arrow from the
    # pipeline span at hop 1 to the appraisal span at the last hop.
    flow_seen: Dict[str, int] = {}
    origin = min((s.wall_start for s in records), default=0.0)
    for span in records:
        tid = track_ids.get(span.track)
        if tid is None:
            tid = len(track_ids) + 1
            track_ids[span.track] = tid
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": span.track},
            })
        if timebase == "wall":
            ts = (span.wall_start - origin) * 1e6
            dur = span.wall_duration * 1e6
        else:
            ts = span.sim_start * 1e6
            dur = span.sim_duration * 1e6
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": ts,
            "dur": dur,
            "args": dict(span.args) if span.args else {},
        })
        trace_tag = (span.args or {}).get("trace")
        if isinstance(trace_tag, str):
            step = flow_seen.get(trace_tag, 0)
            flow_seen[trace_tag] = step + 1
            events.append({
                "name": "trace",
                "cat": "trace",
                "ph": "s" if step == 0 else "t",
                "id": trace_tag,
                "pid": 1,
                "tid": tid,
                "ts": ts,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "timebase": timebase,
            "spans_dropped": telemetry.spans.dropped,
        },
    }


def write_chrome_trace(
    telemetry: Telemetry, path: Pathish, timebase: str = "wall"
) -> pathlib.Path:
    """Write :func:`chrome_trace` to ``path``; returns the path."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(chrome_trace(telemetry, timebase=timebase), handle)
        handle.write("\n")
    return path


# --- plain-text summary ------------------------------------------------------------


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def summary(telemetry: Telemetry, max_rows: Optional[int] = None) -> str:
    """A human-readable table of counters, gauges, histograms, spans."""
    collect_globals(telemetry)
    lines: List[str] = []
    doc = telemetry.metrics.snapshot()
    for kind in ("counters", "gauges"):
        section = doc[kind]
        if not section:
            continue
        lines.append(f"== {kind} ==")
        rows = list(section.items())
        shown = rows if max_rows is None else rows[:max_rows]
        width = max(len(name) for name, _ in shown)
        for name, value in shown:
            lines.append(f"  {name.ljust(width)}  {_format_value(value)}")
        if len(rows) > len(shown):
            lines.append(f"  ... {len(rows) - len(shown)} more")
    histograms = [m for m in telemetry.metrics if isinstance(m, Histogram)]
    if histograms:
        lines.append("== histograms ==")
        for metric in histograms:
            name = render_name(metric.name, metric.labels)
            lines.append(
                f"  {name}  count={metric.count}  "
                f"mean={metric.mean * 1e6:.1f}us  sum={metric.sum:.6f}s"
            )
    records = telemetry.spans.records
    if records:
        lines.append("== spans (aggregated by name) ==")
        agg: Dict[str, List[float]] = {}
        for span in records:
            agg.setdefault(span.name, []).append(span.wall_duration)
        width = max(len(name) for name in agg)
        for name in sorted(agg):
            durations = agg[name]
            total = sum(durations)
            lines.append(
                f"  {name.ljust(width)}  n={len(durations):<7d} "
                f"total={total * 1e3:9.3f}ms  "
                f"mean={total / len(durations) * 1e6:9.2f}us"
            )
        if telemetry.spans.dropped:
            lines.append(f"  ({telemetry.spans.dropped} spans dropped)")
    evictions = [
        (label, count)
        for label, count in (
            ("spans", telemetry.spans.dropped),
            ("audit events", telemetry.audit.dropped),
        )
        if count
    ]
    if evictions:
        lines.append("== ring evictions ==")
        width = max(len(label) for label, _ in evictions)
        for label, count in evictions:
            lines.append(
                f"  {label.ljust(width)}  {count} evicted "
                "(oldest-first; raise the ring bound to keep more)"
            )
    return "\n".join(lines) if lines else "(no telemetry recorded)"
