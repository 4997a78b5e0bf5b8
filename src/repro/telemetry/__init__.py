"""Observability for the simulated dataplane and the RA pipeline.

The paper's argument is that operators need visibility into what a
programmable dataplane is actually running; this subsystem gives the
*reproduction* the same property about itself. One
:class:`~repro.telemetry.instrument.Telemetry` object bundles

- a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with per-switch / per-link /
  per-policy labeled children (cheap enough for per-packet use),
- a :class:`~repro.telemetry.spans.SpanRecorder` of nestable timed
  spans over both the simulated clock and the wall clock,

- a :class:`~repro.telemetry.tracing.TraceContext` per packet plus an
  append-only :class:`~repro.telemetry.audit.AuditJournal` of
  attestation events, joining every span/counter/verdict back to the
  causal chain that produced it (see ``docs/TRACING.md``),

- a :class:`~repro.telemetry.timeseries.FlightRecorder` of windowed,
  delta-encoded time-series frames sampled on a deterministic sim-time
  cadence, with a declarative health/SLO rule engine
  (:mod:`~repro.telemetry.health`) raising typed alerts at window
  close (see ``docs/MONITORING.md``),

and :mod:`~repro.telemetry.export` writes a run as one schema-versioned
``repro.run/v1`` bundle, which the four views of
:mod:`~repro.telemetry.report` (report, timeline, health, chrome) read
back. Instrumented layers (net, pisa, pera, ra, core) bind to the
telemetry passed to them, and to the no-op
:data:`~repro.telemetry.instrument.NULL_TELEMETRY` when none is —
disabled observability costs one branch per site. See
``docs/TELEMETRY.md``.
"""

from repro.telemetry.audit import (
    AuditEvent,
    AuditJournal,
    AuditKind,
    Check,
    NULL_JOURNAL,
    explain_verdict,
    narrative,
)
from repro.telemetry.export import (
    RUN_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    run_bundle,
    write_run,
)
from repro.telemetry.instrument import (
    NULL_TELEMETRY,
    Telemetry,
    collect_node,
    collect_simulator,
    collect_verify_cache,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.health import (
    AbsenceRule,
    HealthReport,
    RatioRule,
    ThresholdRule,
    evaluate_health,
    label_filter,
)
from repro.telemetry.spans import Span, SpanRecorder
from repro.telemetry.timeseries import (
    FlightRecorder,
    SamplingSpec,
    install_recorder,
    merge_frame_streams,
)
from repro.telemetry.tracing import (
    TraceContext,
    new_trace_id,
    reset_trace_ids,
    start_trace,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "SpanRecorder",
    "Span",
    "collect_simulator",
    "collect_node",
    "collect_verify_cache",
    "RUN_SCHEMA",
    "run_bundle",
    "write_run",
    "chrome_trace",
    "TraceContext",
    "start_trace",
    "new_trace_id",
    "reset_trace_ids",
    "AuditJournal",
    "AuditEvent",
    "AuditKind",
    "Check",
    "NULL_JOURNAL",
    "TRACE_SCHEMA",
    "narrative",
    "explain_verdict",
    "FlightRecorder",
    "SamplingSpec",
    "install_recorder",
    "merge_frame_streams",
    "AbsenceRule",
    "HealthReport",
    "RatioRule",
    "ThresholdRule",
    "evaluate_health",
    "label_filter",
]
