"""UC1 acceptance: the Athens rejection is fully explainable post-hoc.

Running the attack must leave, for the first rejected packet, ONE
trace id whose audit events span every switch on the 3-hop path,
evidence digests that match the very records the packet delivered, and
an ``explain()`` narrative naming the failing hop and check.

The whole story — dataplane and the harvest-time appraiser — is in the
run's own journal (``result.sharded.telemetry``).
"""

from repro.core.fleet import attested_chain
from repro.core.usecases import run_config_assurance
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack
from repro.pisa.programs import firewall_program
from repro.telemetry import AuditKind, Telemetry

#: What the appraiser journals about a packet it appraises.
APPRAISAL_KINDS = {
    AuditKind.SIGNATURE_VERIFIED,
    AuditKind.CHECK_FAILED,
    AuditKind.VERDICT_ISSUED,
}


class TestAthensAcceptance:
    def test_rejection_is_traced_across_all_three_switches(self):
        result = run_config_assurance(packets=4, swap_at=1, switch_count=3)
        assert result.first_rejection == 1

        verdict = result.verdicts[result.first_rejection]
        assert not verdict.accepted
        assert verdict.trace_id is not None and len(verdict.trace_id) == 12

        events = result.sharded.telemetry.audit.for_trace(verdict.trace_id)
        assert events, "the rejected packet must have audit events"
        appraisal = [e for e in events if e.kind in APPRAISAL_KINDS]
        assert {e.actor for e in appraisal} == {"Appraiser"}
        # One trace id spans the packet's whole life: origin, every
        # switch on the path, delivery, and the appraiser's verdict.
        actors = {event.actor for event in events}
        assert {"s1", "s2", "s3"} <= actors
        kinds = {event.kind for event in events}
        assert AuditKind.TRACE_STARTED in kinds
        assert AuditKind.MEASUREMENT_TAKEN in kinds
        assert AuditKind.EVIDENCE_CREATED in kinds
        assert AuditKind.VERDICT_ISSUED in kinds

        # The appraiser verified exactly the evidence nodes the
        # switches created — content digests join the two sides.
        created = {
            e.digest for e in events if e.kind == AuditKind.EVIDENCE_CREATED
        }
        verified = {
            e.digest for e in events
            if e.kind == AuditKind.SIGNATURE_VERIFIED
        }
        assert len(verified) == 3
        assert verified <= created

        # The narrative names the failing hop (s1 ran the rogue
        # program) and the failing check.
        text = verdict.explain(events)
        assert f"trace {verdict.trace_id}:" in text
        assert "conclusion: REJECTED" in text
        assert "'measurement' failed" in text
        assert "s1" in text

    def test_audit_digests_match_the_delivered_records(self):
        """Digest linkage, checked against the packet's own bytes."""
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        program = firewall_program()
        telemetry = Telemetry()
        sim = Simulator(linear_topology(3), telemetry=telemetry)
        chain = attested_chain(sim, [program] * 3, config=config)
        policy, shim = chain.ap1()
        sent = chain.send(shim, b"probe", 1000, 2000)
        sim.run()

        packet = chain.dst.received_packets[0]
        records = decode_record_stack(packet.ra_shim.body)
        assert len(records) == 3
        events = telemetry.audit.for_trace(sent.trace.trace_id)
        created = {
            e.digest for e in events if e.kind == AuditKind.EVIDENCE_CREATED
        }
        assert created == {r.content_digest.hex() for r in records}

        verdict = chain.appraiser(telemetry=telemetry).appraise_packet(
            packet, compiled=policy
        )
        assert verdict.accepted
        assert verdict.trace_id == sent.trace.trace_id
        assert "conclusion: ACCEPTED" in verdict.explain(telemetry)
