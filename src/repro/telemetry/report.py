"""The post-run report CLI: ``python -m repro.telemetry.report``.

Four views, each reading one ``repro.run/v1`` bundle
(:func:`repro.telemetry.export.run_bundle`), so they run long after
the simulating process is gone, or on artifacts downloaded from CI:

- ``report RUN.json`` (the default view): the run overview, with the
  congestion & recovery counters when the bundle carries stats, and
  per-trace narratives (``--trace`` picks one).
- ``timeline RUN.json``: the flight recorder's windowed frame stream
  (see docs/MONITORING.md) as per-metric sparkline rows over sample
  windows (``--metric`` filters, ``--top`` caps the rows).
- ``health RUN.json``: the health rules, a per-rule raised/quiet
  timeline, and the alert event log.
- ``chrome RUN.json``: the bundle's spans as a flow-stitched Chrome
  trace on stdout (wall-clock timebase).

Any missing, unparseable, or wrong-schema input exits with status 2
and a one-line diagnostic on stderr — never a traceback — so CI steps
fail fast and readably.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Mapping, Optional, Sequence

from repro.telemetry.audit import AuditKind, narrative
from repro.telemetry.export import RUN_SCHEMA, chrome_trace
from repro.telemetry.timeseries import cumulative_at


class ReportError(ValueError):
    """A user-facing input problem (bad path, bad JSON, wrong schema).

    ``main`` turns these into exit status 2 plus a one-line stderr
    message; they are never allowed to escape as tracebacks.
    """


def _load_json(path: pathlib.Path) -> object:
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path} is not valid JSON: {exc}")


def load_run(path: pathlib.Path) -> Mapping[str, object]:
    """Load a ``repro.run/v1`` bundle, rejecting any other document."""
    doc = _load_json(path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != RUN_SCHEMA:
        found = f"schema {schema!r}" if schema is not None else "no schema"
        raise ReportError(
            f"{path} has {found}; this tool reads {RUN_SCHEMA!r} run bundles"
        )
    return doc


def _trace_ids(events: Sequence[Mapping[str, object]]) -> List[str]:
    seen: List[str] = []
    for event in events:
        trace = event.get("trace")
        if isinstance(trace, str) and trace not in seen:
            seen.append(trace)
    return seen


#: Congestion & recovery counters ``overview`` surfaces from a bundle's
#: stats, in display order.
_CONGESTION_STATS = (
    ("queue drops", "queue_drops"),
    ("ECN marks", "ecn_marked"),
    ("pause frames", "pause_frames"),
    ("local resends", "local_resends"),
    ("recovery retransmits", "recovery_retransmits"),
    ("recovery held", "recovery_held"),
)


def overview(doc: Mapping[str, object]) -> str:
    """The run-level summary block at the top of every report.

    A bundle with stats (a sharded campaign) also shows the congestion
    & recovery counters — queue drops, ECN marks, PFC pause frames,
    and link-local resend totals (docs/CONGESTION.md).
    """
    run = doc["deterministic"]
    events = run["journal"]
    traces = _trace_ids(events)
    verdicts = [e for e in events if e.get("kind") == AuditKind.VERDICT_ISSUED]
    rejected = sum(
        1 for v in verdicts if not (v.get("detail") or {}).get("accepted")
    )
    failures = [e for e in events if e.get("kind") == AuditKind.CHECK_FAILED]
    lines = [
        f"audit report ({doc['schema']})",
        f"  events:   {len(events)}"
        + (f" (+{run['journal_dropped']} dropped)" if run["journal_dropped"] else ""),
        f"  traces:   {len(traces)}",
        f"  verdicts: {len(verdicts)} ({rejected} rejected)",
        f"  failed checks: {len(failures)}",
    ]
    stats = run["stats"]
    if stats is not None:
        lines.append("  congestion & recovery:")
        width = max(len(label) for label, _ in _CONGESTION_STATS)
        for label, key in _CONGESTION_STATS:
            lines.append(f"    {label.ljust(width)}  {int(stats.get(key, 0))}")
    by_kind: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    if by_kind:
        lines.append("  by kind:")
        width = max(len(kind) for kind in by_kind)
        for kind in sorted(by_kind):
            lines.append(f"    {kind.ljust(width)}  {by_kind[kind]}")
    return "\n".join(lines)


def render_report(doc: Mapping[str, object], trace: Optional[str] = None) -> str:
    """The full text report: overview plus per-trace narratives."""
    events = doc["deterministic"]["journal"]
    sections = [overview(doc)]
    traces = [trace] if trace is not None else _trace_ids(events)
    for trace_id in traces:
        sections.append(narrative(events, trace_id=trace_id))
    untraced = [e for e in events if e.get("trace") is None]
    if trace is None and untraced:
        sections.append(
            f"({len(untraced)} events carry no trace — control-plane or "
            "Copland-side activity; query them by digest)"
        )
    return "\n\n".join(sections)


# --- timeline / health rendering (from a bundle's frames) ---------------------

_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One block glyph per value, scaled to the series maximum."""
    top = max(values, default=0.0)
    if top <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int(round(v / top * (len(_SPARKS) - 1))))]
        for v in values
    )


def _series(frames: Sequence[Mapping[str, object]]) -> Dict[str, List[float]]:
    """Per-key delta series over windows ``0..max(w)`` (dense, zeros
    where a key's frame omitted it)."""
    if not frames:
        return {}
    last_window = max(int(f["w"]) for f in frames)
    deltas = {int(f["w"]): f["v"] for f in frames}
    keys = sorted({k for v in deltas.values() for k in v})
    return {
        key: [
            float(deltas.get(w, {}).get(key, 0.0))
            for w in range(last_window + 1)
        ]
        for key in keys
    }


def render_timeline(
    doc: Mapping[str, object],
    metric: Optional[str] = None,
    top: int = 24,
) -> str:
    """The flight-recorder frame stream as sparkline rows."""
    run = doc["deterministic"]
    interval = float(run["interval_s"] or 0.0)
    frames = run["frames"]
    series = _series(frames)
    if metric:
        series = {k: v for k, v in series.items() if metric in k}
    lines = [
        f"timeline ({doc['schema']})",
        f"  windows:  {max((int(f['w']) for f in frames), default=-1) + 1}"
        f" x {interval:g}s"
        + (
            f" (+{run['frames_dropped']} frames evicted)"
            if run["frames_dropped"]
            else ""
        ),
        f"  metrics:  {len(series)}"
        + (f" matching {metric!r}" if metric else ""),
    ]
    if not series:
        lines.append("  (no matching series)")
        return "\n".join(lines)
    ranked = sorted(
        series.items(), key=lambda item: (-sum(item[1]), item[0])
    )
    shown = ranked[:top]
    width = max(len(key) for key, _ in shown)
    final = cumulative_at(frames, max(int(f["w"]) for f in frames))
    lines.append("")
    for key, values in shown:
        lines.append(
            f"  {key.ljust(width)}  {sparkline(values)}  "
            f"total {final.get(key, 0.0):g}"
        )
    if len(ranked) > len(shown):
        lines.append(f"  ... {len(ranked) - len(shown)} more (use --top)")
    return "\n".join(lines)


def render_health(doc: Mapping[str, object]) -> str:
    """Health rules, per-rule raised/quiet timelines, and the alert log."""
    run = doc["deterministic"]
    frames = run["frames"]
    alerts = run["alerts"]
    rules = run["rules"]
    last_window = max((int(f["w"]) for f in frames), default=-1)
    lines = [
        f"health ({doc['schema']})",
        f"  windows: {last_window + 1} x {float(run['interval_s'] or 0.0):g}s",
        f"  rules:   {len(rules)}",
        f"  alerts:  {len(alerts)} "
        f"({sum(1 for a in alerts if a['kind'] == AuditKind.ALERT_RAISED)} raised, "
        f"{sum(1 for a in alerts if a['kind'] == AuditKind.ALERT_CLEARED)} cleared)",
    ]
    if rules:
        lines.append("")
        width = max(len(rule["name"]) for rule in rules)
        for rule in rules:
            name = rule["name"]
            changes = {
                int(a["detail"]["window"]): a["kind"] == AuditKind.ALERT_RAISED
                for a in alerts
                if a["detail"]["rule"] == name
            }
            row = []
            up = False
            for w in range(last_window + 1):
                up = changes.get(w, up)
                row.append("█" if up else "·")
            state = "RAISED" if up else "ok"
            lines.append(
                f"  {name.ljust(width)}  |{''.join(row)}|  "
                f"{rule['type']}  {state}"
            )
    if alerts:
        lines.append("")
        for alert in alerts:
            detail = alert["detail"]
            extras = ", ".join(
                f"{k}={detail[k]}"
                for k in sorted(detail)
                if k not in ("rule", "window")
            )
            lines.append(
                f"  t={alert['time_s']:g}s w={detail['window']} "
                f"{alert['kind']} {detail['rule']}"
                + (f" ({extras})" if extras else "")
            )
    return "\n".join(lines)


# --- entry point --------------------------------------------------------------

_VIEWS = ("report", "timeline", "health", "chrome")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    view = argv.pop(0) if argv and argv[0] in _VIEWS else "report"
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.telemetry.report {view}",
        description="Render one view of a repro.run/v1 run bundle.",
    )
    parser.add_argument("run", type=pathlib.Path, help="run bundle (RUN.json)")
    if view == "report":
        parser.add_argument(
            "--trace", help="render only this trace id's narrative"
        )
    elif view == "timeline":
        parser.add_argument(
            "--metric",
            help="show only series whose key contains this substring",
        )
        parser.add_argument(
            "--top", type=int, default=24, help="show at most N series"
        )
    args = parser.parse_args(argv)
    try:
        doc = load_run(args.run)
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if view == "report":
        print(render_report(doc, trace=args.trace))
    elif view == "timeline":
        print(render_timeline(doc, metric=args.metric, top=args.top))
    elif view == "health":
        print(render_health(doc))
    else:
        print(json.dumps(chrome_trace(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
