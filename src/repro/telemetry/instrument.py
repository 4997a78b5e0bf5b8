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
2. **Collectors**: existing stats structs (``SimStats``, ``RaStats``,
   cache stats, the shared verify cache) are snapshotted into labeled
   gauges at collection points instead of double-counting on the hot
   path — :func:`collect_simulator` runs automatically at the end of
   every ``Simulator.run`` when telemetry is active.
"""

from __future__ import annotations

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


def collect_simulator(telemetry: Telemetry, sim) -> None:
    """Snapshot a simulator and every bound node into the registry.

    Runs automatically at the end of ``Simulator.run`` when telemetry
    is active. Values are *gauges* — point-in-time copies of the
    owning stats structs, last writer wins per label set — so a
    process that runs many simulators reports each one's final state
    without double counting.
    """
    if not telemetry.active:
        return
    stats = sim.stats
    g = telemetry.gauge
    g("net.sim.packets_transmitted").set(stats.packets_transmitted)
    g("net.sim.bytes_transmitted").set(stats.bytes_transmitted)
    g("net.sim.packets_dropped").set(stats.packets_dropped)
    g("net.sim.control_messages").set(stats.control_messages)
    g("net.sim.control_bytes").set(stats.control_bytes)
    g("net.sim.control_dropped").set(stats.control_dropped)
    g("net.sim.events_processed").set(stats.events_processed)
    g("net.sim.local_resends").set(getattr(stats, "local_resends", 0))
    g("net.sim.queue_drops").set(getattr(stats, "queue_drops", 0))
    g("net.sim.ecn_marked").set(getattr(stats, "ecn_marked", 0))
    g("net.sim.pause_frames").set(getattr(stats, "pause_frames", 0))
    g("net.sim.recovery_retransmits").set(
        getattr(stats, "recovery_retransmits", 0)
    )
    g("net.sim.recovery_held").set(getattr(stats, "recovery_held", 0))
    faults = getattr(sim, "faults", None)
    fault_stats = getattr(faults, "stats", None)
    if fault_stats is not None:
        g("faults.injected").set(fault_stats.injected)
        g("faults.cleared").set(fault_stats.cleared)
        g("faults.extra_losses").set(fault_stats.extra_losses)
        g("faults.link_down_drops").set(fault_stats.link_down_drops)
        g("faults.packets_corrupted").set(fault_stats.packets_corrupted)
        g("faults.records_stripped").set(fault_stats.records_stripped)
        g("faults.control_stripped").set(fault_stats.control_stripped)
        g("faults.control_tampered").set(fault_stats.control_tampered)
    owns = getattr(sim, "owns", None)
    for name in getattr(sim, "bound_nodes", []):
        # Sharded runs bind foreign *replicas* for world visibility;
        # only the owner shard reports a node, so per-node gauges
        # appear exactly once in the merged snapshot.
        if owns is not None and not owns(name):
            continue
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
        g("pera.packets_attested", switch=switch).set(ra_stats.packets_attested)
        g("pera.packets_skipped_by_sampling", switch=switch).set(
            ra_stats.packets_skipped_by_sampling
        )
        g("pera.measurements_taken", switch=switch).set(
            ra_stats.measurements_taken
        )
        g("pera.records_created", switch=switch).set(ra_stats.records_created)
        g("pera.records_from_cache", switch=switch).set(
            ra_stats.records_from_cache
        )
        g("pera.signatures_produced", switch=switch).set(
            ra_stats.signatures_produced
        )
        g("pera.out_of_band_sent", switch=switch).set(ra_stats.out_of_band_sent)
        g("pera.oob_send_failures", switch=switch).set(
            getattr(ra_stats, "oob_send_failures", 0)
        )
        g("pera.oob_retries", switch=switch).set(
            getattr(ra_stats, "oob_retries", 0)
        )
        g("pera.oob_recovered", switch=switch).set(
            getattr(ra_stats, "oob_recovered", 0)
        )
        g("pera.oob_gave_up", switch=switch).set(
            getattr(ra_stats, "oob_gave_up", 0)
        )
        g("pera.undecodable_evidence", switch=switch).set(
            getattr(ra_stats, "undecodable_evidence", 0)
        )
        g("pera.evidence_bytes_added", switch=switch).set(
            ra_stats.evidence_bytes_added
        )
        g("pera.epochs_sealed", switch=switch).set(
            getattr(ra_stats, "epochs_sealed", 0)
        )
        g("pera.records_batched", switch=switch).set(
            getattr(ra_stats, "records_batched", 0)
        )
        g("pera.gated_drops", switch=switch).set(ra_stats.gated_drops)
        g("pera.ra_cost", switch=switch).set(node.ra_cost)
        cache = node.cache
        g("pera.cache.hits", switch=switch).set(cache.stats.hits)
        g("pera.cache.misses", switch=switch).set(cache.stats.misses)
        g("pera.cache.invalidations", switch=switch).set(
            cache.stats.invalidations
        )
        g("pera.cache.hit_rate", switch=switch).set(cache.stats.hit_rate)


def collect_verify_cache(telemetry: Telemetry) -> None:
    """Snapshot the shared memoized-verification cache's hit rate."""
    if not telemetry.active:
        return
    from repro.evidence.verify import shared_cache  # lazy: higher layer

    stats = shared_cache.stats
    g = telemetry.gauge
    g("evidence.verify_cache.hits").set(stats.hits)
    g("evidence.verify_cache.misses").set(stats.misses)
    g("evidence.verify_cache.hit_rate").set(stats.hit_rate)
    g("evidence.verify_cache.size").set(len(shared_cache))


__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "collect_simulator",
    "collect_node",
    "collect_verify_cache",
]
