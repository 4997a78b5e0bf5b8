"""``core.path_verdicts`` counts the verdict the journal records.

The chaos ``verdict-failures`` rule reads this counter to catch evidence
tampering, so a verdict overturned after the counter was bumped (the
traffic-path binding check) must be counted as what it became, and a
verdict journaled without appraising a stack (no shim, no evidence) must
be counted at all.
"""

from collections import Counter
from dataclasses import replace

from repro.core.chaos import run_chaos_athens
from repro.core.fleet import attested_chain
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode
from repro.pisa.programs import ipv4_forwarding_program
from repro.telemetry import AuditKind, Telemetry
from repro.telemetry.metrics import parse_name


def _verdict_counts(counters):
    """``{(appraiser, accepted): count}`` from a counter snapshot."""
    counts = Counter()
    for key, value in counters.items():
        name, labels = parse_name(key)
        if name == "core.path_verdicts":
            labels = dict(labels)
            counts[(labels["appraiser"], labels["accepted"] == "True")] += value
    return counts


def _journaled_verdicts(events):
    return Counter(
        (event.actor, event.detail["accepted"])
        for event in events
        if event.kind == AuditKind.VERDICT_ISSUED
    )


def test_a_binding_rejection_is_counted_as_a_rejection():
    telemetry = Telemetry()
    sim = Simulator(linear_topology(2), telemetry=telemetry)
    chain = attested_chain(sim, [ipv4_forwarding_program()] * 2)
    compiled, shim = chain.ap1(composition=CompositionMode.TRAFFIC_PATH)
    packet = chain.probe(sim, shim, b"transfer", 4000, 443)
    tampered = replace(packet, payload=b"X" + packet.payload[1:])
    verdict = chain.appraiser(telemetry=telemetry).appraise_packet(
        tampered, compiled=compiled
    )
    assert not verdict.accepted
    assert "packet digest" in verdict.failures[-1]
    counts = _verdict_counts(telemetry.metrics.snapshot()["counters"])
    assert counts == {("Appraiser", False): 1}


def test_chaos_verdict_counter_matches_the_journal():
    run = run_chaos_athens(seed=7)
    journaled = _journaled_verdicts(run.sharded.telemetry.audit.events)
    assert journaled
    assert _verdict_counts(run.sharded.metrics["counters"]) == journaled
