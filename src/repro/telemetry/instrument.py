"""The glue between the telemetry registry and the rest of the stack.

Layering rule: ``repro.telemetry.metrics``/``spans`` import nothing
outside :mod:`repro.util`, and every *other* layer imports telemetry —
never the reverse at module scope. The collectors below reach into
simulator/switch/appraiser state purely by ``getattr`` duck typing, so
no import cycle can form.

Two ways instrumentation reaches a :class:`Telemetry`:

1. **Explicit**: pass ``telemetry=`` to ``Simulator`` / appraisers.
   Nothing passed means the inert :data:`NULL_TELEMETRY`; with the
   null object, the entire subsystem costs one predictable branch per
   hot-path site.
2. **Collectors**: counts kept where the engine keeps them (the
   simulator's per-port, per-node and per-pair tallies; ``SimStats``,
   ``RaStats``, cache stats, the shared verify cache) are written into
   the registry at collection points instead of counted twice on the
   hot path — :func:`collect_simulator` runs automatically at the end
   of every ``Simulator.run`` when telemetry is active, and the flight
   recorder reads the network tallies at each tick.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional, Tuple

from repro.telemetry.audit import (
    AuditJournal,
    DEFAULT_MAX_EVENTS,
    NULL_JOURNAL,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.telemetry.spans import DEFAULT_MAX_SPANS, NULL_SPAN, SpanRecorder
from repro.util.clock import SimClock

class Telemetry:
    """One observability domain: metrics, spans, and the audit journal.

    ``active=False`` builds the permanently-inert variant every
    accessor of which returns a shared null object; the hot paths in
    the simulator and switches check ``telemetry.active`` once and
    skip even label construction when it is off.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        active: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
        max_audit_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.active = active
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock, max_spans=max_spans)
        self.audit: AuditJournal = (
            AuditJournal(self.spans.clock, max_events=max_audit_events)
            if active
            else NULL_JOURNAL
        )

    # --- clock ----------------------------------------------------------------

    def bind_clock(self, clock: SimClock) -> None:
        """Adopt a simulator's clock for span/audit sim-timestamps."""
        self.spans.bind_clock(clock)
        if self.audit is not NULL_JOURNAL:
            self.audit.bind_clock(clock)

    # --- gated accessors --------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        if not self.active:
            return NULL_COUNTER
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        if not self.active:
            return NULL_GAUGE
        return self.metrics.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        if not self.active:
            return NULL_HISTOGRAM
        return self.metrics.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, track: str = "main", **args: object):
        if not self.active:
            return NULL_SPAN
        return self.spans.span(name, track=track, **args)

    def audit_event(
        self,
        kind: str,
        actor: str,
        trace=None,
        digest: Optional[bytes] = None,
        **detail: object,
    ):
        """Record an audit event, tagging it with a trace context.

        ``trace`` is a :class:`~repro.telemetry.tracing.TraceContext`
        (or ``None``); callers on hot paths should still gate on
        :attr:`active` themselves to skip building ``detail`` kwargs.
        """
        if not self.active:
            return None
        trace_id = trace.trace_id if trace is not None else None
        hop = trace.hop if trace is not None else None
        return self.audit.record(
            kind, actor, trace=trace_id, hop=hop, digest=digest, **detail
        )

    def __repr__(self) -> str:
        return (
            f"Telemetry(active={self.active}, metrics={len(self.metrics)}, "
            f"spans={len(self.spans)}, audit={len(self.audit)})"
        )


#: The inert instance everything uses when observability is off.
NULL_TELEMETRY = Telemetry(active=False)


# --- collectors: stats structs -> labeled gauges -------------------------------


def _gauge_fields(telemetry: Telemetry, prefix: str, record, **labels) -> None:
    """One gauge per field of the stats dataclass ``record``, named
    ``prefix`` + the field name."""
    for f in fields(record):
        telemetry.gauge(prefix + f.name, **labels).set(getattr(record, f.name))


def collect_simulator(telemetry: Telemetry, sim) -> None:
    """Write a simulator's counts and every bound node into the registry.

    Runs automatically at the end of ``Simulator.run`` (and in a
    shard's ``finalize``) when telemetry is active. The labelled
    network counters are set from the records that hold them
    (``sim.counter_tallies()``); the ``net.sim.*``, ``faults.*`` and
    node values are gauges. Both are point-in-time copies, last writer
    wins per label set, so a process that runs many simulators reports
    each one's final state without double counting.
    """
    if not telemetry.active:
        return
    for name, labels, value in sim.counter_tallies():
        telemetry.counter(name, **dict(labels)).value = float(value)
    _gauge_fields(telemetry, "net.sim.", sim.stats)
    if sim.faults is not None:
        _gauge_fields(telemetry, "faults.", sim.faults.stats)
    for name in sim.bound_nodes:
        # Sharded runs bind foreign *replicas* for world visibility;
        # only the owner shard reports a node, so per-node gauges
        # appear exactly once in the merged snapshot.
        if sim.owns(name):
            collect_node(telemetry, sim.node(name))


def collect_node(telemetry: Telemetry, node) -> None:
    """Snapshot one node behaviour (duck-typed, any layer)."""
    if not telemetry.active:
        return
    g = telemetry.gauge
    switch = node.name
    if hasattr(node, "packets_processed"):  # PisaSwitch and up
        g("pisa.packets_processed", switch=switch).set(node.packets_processed)
        g("pisa.packets_dropped", switch=switch).set(node.packets_dropped)
        g("pisa.packets_to_cpu", switch=switch).set(node.packets_to_cpu)
        g("pisa.total_cost", switch=switch).set(node.total_cost)
    ra_stats = getattr(node, "ra_stats", None)
    if ra_stats is not None:  # PeraSwitch and up
        _gauge_fields(telemetry, "pera.", ra_stats, switch=switch)
        g("pera.ra_cost", switch=switch).set(node.ra_cost)
        cache = node.cache.stats
        _gauge_fields(telemetry, "pera.cache.", cache, switch=switch)
        g("pera.cache.hit_rate", switch=switch).set(cache.hit_rate)


def collect_verify_cache(telemetry: Telemetry) -> None:
    """Snapshot the shared memoized-verification cache's hit rate."""
    if not telemetry.active:
        return
    from repro.evidence.verify import shared_cache  # lazy: higher layer

    stats = shared_cache.stats
    _gauge_fields(telemetry, "evidence.verify_cache.", stats)
    telemetry.gauge("evidence.verify_cache.hit_rate").set(stats.hit_rate)
    telemetry.gauge("evidence.verify_cache.size").set(len(shared_cache))


__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "collect_simulator",
    "collect_node",
    "collect_verify_cache",
]
