"""The run bundle: one ``repro.run/v1`` document per run.

A run leaves one file. :func:`run_bundle` builds it from the run's
:class:`~repro.telemetry.instrument.Telemetry`, plus its
:class:`~repro.net.shardrun.ShardedResult` and
:class:`~repro.telemetry.health.HealthReport` when it has them;
:func:`write_run` writes it and :func:`repro.telemetry.report.load_run`
reads it back. The document has three parts:

- ``deterministic`` — the merged ``SimStats`` (``stats``), the audit
  journal with folded health alerts (``journal``) and the
  flight-recorder ``frames`` with their ``interval_s``,
  ``frames_dropped``, health ``rules`` and ``alerts``. Byte-identical
  across shard counts and backends: ``stats``, ``journal`` and
  ``frames`` serialised with ``sort_keys=True`` are the bytes the
  run-signature goldens hash.
- ``runtime`` — what this process measured: the metrics snapshot,
  spans with wall-clock offsets, per-shard busy seconds and recorder
  runtime.
- ``provenance`` — seed, shard layout, backend, Python version, CPU
  count and the git revision the run came from.

:func:`chrome_trace` renders a bundle's spans in the Trace Event
Format understood by ``chrome://tracing`` / Perfetto. Spans become
complete (``"ph": "X"``) events; each span *track* (switch, node,
appraiser) becomes a named thread. ``timebase="wall"`` lays spans out
by what they cost this process (the profiling view); ``timebase="sim"``
lays them out on the simulated-network timeline (the dataplane view,
where same-event work is instantaneous).
"""

from __future__ import annotations

import functools
import json
import math
import os
import pathlib
import sys
from typing import Dict, List, Optional, Union

from repro.telemetry.instrument import Telemetry, collect_verify_cache

Pathish = Union[str, pathlib.Path]

#: Schema tag stamped into run bundles (bump on layout changes).
RUN_SCHEMA = "repro.run/v1"

#: Schema tag stamped into chrome-trace renderings (bump on layout changes).
TRACE_SCHEMA = "repro.trace/v1"


@functools.lru_cache(maxsize=None)
def _git_revision() -> Optional[str]:
    """``git rev-parse HEAD`` of the checkout this package sits in."""
    # Imported here: every layer imports repro.telemetry, and only a
    # finished run writing its bundle needs a child process.
    import subprocess

    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_bundle(telemetry: Telemetry, run=None, health=None) -> Dict[str, object]:
    """One run as a ``repro.run/v1`` document.

    ``run`` is the run's :class:`~repro.net.shardrun.ShardedResult`
    (stats, frames, shard layout), ``health`` its health pass; a run
    without them (a plain ``Simulator``) leaves those sections empty.
    """
    collect_verify_cache(telemetry)
    records = telemetry.spans.records
    origin = min((span.wall_start for span in records), default=0.0)
    spans = [
        {
            "name": span.name,
            "track": span.track,
            "depth": span.depth,
            "sim_start_s": span.sim_start,
            "sim_end_s": span.sim_end,
            "wall_start_s": span.wall_start - origin,
            "wall_duration_s": span.wall_duration,
            **({"args": dict(span.args)} if span.args else {}),
        }
        for span in records
    ]
    doc = {
        "schema": RUN_SCHEMA,
        "deterministic": {
            "stats": None,
            "journal": [event.as_dict() for event in telemetry.audit],
            "journal_dropped": telemetry.audit.dropped,
            "interval_s": None,
            "frames": [],
            "frames_dropped": 0,
            "rules": list(health.rules) if health is not None else [],
            "alerts": list(health.alerts) if health is not None else [],
        },
        "runtime": {
            "metrics": telemetry.metrics.snapshot(),
            "spans": spans,
            "spans_dropped": telemetry.spans.dropped,
            "shard_busy_s": [],
            "frames_runtime": [],
        },
        "provenance": {
            "seed": None,
            "shards": None,
            "backend": None,
            "windows": None,
            "lookahead_s": None,
            "python": ".".join(map(str, sys.version_info[:3])),
            "cpu_count": os.cpu_count(),
            "git_revision": _git_revision(),
        },
    }
    if run is not None:
        doc["deterministic"].update(
            stats=run.stats.as_dict(),
            interval_s=run.sample_interval_s,
            frames=list(run.frames),
            frames_dropped=run.frames_dropped,
        )
        doc["runtime"].update(
            shard_busy_s=list(run.shard_busy_s),
            frames_runtime=list(run.frames_runtime),
        )
        doc["provenance"].update(
            seed=run.seed,
            shards=run.shards,
            backend=run.backend,
            windows=run.windows,
            # One shard has no cut, so no finite lookahead.
            lookahead_s=(
                run.lookahead_s if math.isfinite(run.lookahead_s) else None
            ),
        )
    return doc


def write_run(doc: Dict[str, object], path: Pathish) -> pathlib.Path:
    """Write a :func:`run_bundle` document to ``path``; returns the path."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def chrome_trace(doc: Dict[str, object], timebase: str = "wall") -> Dict[str, object]:
    """A bundle's spans as a ``chrome://tracing`` / Perfetto document."""
    if timebase not in ("wall", "sim"):
        raise ValueError(f"timebase must be 'wall' or 'sim', got {timebase!r}")
    runtime = doc["runtime"]
    events: List[Dict[str, object]] = []
    track_ids: Dict[str, int] = {}
    # Spans carrying a trace tag are stitched with flow events: one
    # flow id per packet trace, so the viewer draws an arrow from the
    # pipeline span at hop 1 to the appraisal span at the last hop.
    flow_seen: Dict[str, int] = {}
    for span in runtime["spans"]:
        tid = track_ids.get(span["track"])
        if tid is None:
            tid = len(track_ids) + 1
            track_ids[span["track"]] = tid
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": span["track"]},
            })
        if timebase == "wall":
            ts = span["wall_start_s"] * 1e6
            dur = span["wall_duration_s"] * 1e6
        else:
            ts = span["sim_start_s"] * 1e6
            dur = (span["sim_end_s"] - span["sim_start_s"]) * 1e6
        args = span.get("args", {})
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": ts,
            "dur": dur,
            "args": dict(args),
        })
        trace_tag = args.get("trace")
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
            "spans_dropped": runtime["spans_dropped"],
        },
    }
