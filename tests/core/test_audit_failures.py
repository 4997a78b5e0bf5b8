"""Every path-appraisal failure kind leaves exactly one matching audit event.

The matrix drives one honest delivered packet through tampered
appraisals — a bad signature, a stripped hop, reordered (spliced)
records, a stale nonce — and asserts each rejection is mirrored by
exactly one ``check.failed`` journal entry naming the right check.
"""

import pytest

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain
from repro.core.policies import ap1_bank_path_attestation
from repro.crypto.keys import KeyRegistry
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack
from repro.pisa.programs import firewall_program
from repro.ra.nonce import NonceManager
from repro.telemetry import AuditKind, Check, Telemetry, TraceContext

TRACE = TraceContext(trace_id="abcdef012345", hop=3, origin="h-src")


@pytest.fixture(scope="module")
def delivered():
    """One honest 2-switch CHAINED run: (records, hop_count, switches)."""
    config = EvidenceConfig(composition=CompositionMode.CHAINED)
    program = firewall_program()
    sim = Simulator(linear_topology(2))
    chain = attested_chain(sim, [program] * 2, config=config)
    shim = chain.probe(sim, chain.ap1()[1], b"probe", 1000, 2000).ra_shim
    return (
        decode_record_stack(shim.body), shim.hop_count, chain.switches, program
    )


def _appraiser(switches, program, telemetry, **kwargs):
    return PathAppraiser(
        "Appraiser",
        PathAppraisalPolicy.for_fleet(switches, [program] * len(switches)),
        telemetry=telemetry,
        **kwargs,
    )


def _check_failures(telemetry):
    return [
        e for e in telemetry.audit.events if e.kind == AuditKind.CHECK_FAILED
    ]


class TestFailureMatrix:
    def test_bad_signature(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        # Drop s1's trust anchor: record 0's signer becomes untrusted.
        anchors = KeyRegistry()
        anchors.register_pair(switches[1].keys)
        appraiser.policy = PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements=appraiser.policy.reference_measurements,
            program_names=appraiser.policy.program_names,
        )
        verdict = appraiser.appraise_records(records, hop_count, trace=TRACE)
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert events[0].detail["message"] in verdict.failures
        assert events[0].trace == TRACE.trace_id

    def test_forged_record_signature_names_the_exact_record(self, delivered):
        """One forged signature in the stack: the batched verify path
        must isolate it to exactly the right record and journal exactly
        one ``check.failed`` naming it."""
        from dataclasses import replace

        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        signature = records[1].signature
        forged = replace(
            records[1],
            signature=signature[:-1] + bytes((signature[-1] ^ 0xFF,)),
        )
        verdict = appraiser.appraise_records(
            [records[0], forged], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert events[0].detail["message"].startswith("record 1 (s2):")
        assert "signature invalid" in events[0].detail["message"]

    def test_stripped_hop(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        verdict = appraiser.appraise_records(
            records[:-1], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.COVERAGE
        assert "stripped" in events[0].detail["message"]

    def test_reordered_records(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        verdict = appraiser.appraise_records(
            [records[1], records[0]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.CHAIN
        assert "reordered or spliced" in events[0].detail["message"]

    def test_stale_nonce(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        nonces = NonceManager(seed="matrix")
        nonce = nonces.issue()
        nonces.consume(nonce)  # the relying party already used it
        compiled = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={"client": "h-dst"},
            composition=CompositionMode.CHAINED,
            nonce=nonce,
        )
        appraiser = _appraiser(switches, program, tel, nonces=nonces)
        verdict = appraiser.appraise_records(
            records, hop_count, compiled=compiled, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.NONCE
        assert events[0].detail["message"] == "nonce replayed"

    def test_missing_shim(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        from repro.net.packet import Packet

        bare = Packet.udp_packet(
            src_mac=1, dst_mac=2,
            src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.1.1"),
            src_port=1, dst_port=2,
        ).with_trace(TRACE)
        verdict = appraiser.appraise_packet(bare)
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SHIM

    @pytest.mark.parametrize("code", [0, 6, 255])
    def test_undefined_inertia_code_in_the_stack(self, delivered, code):
        """A measurement class code outside ``InertiaClass`` makes the
        stack undecodable: one ``check.failed`` (shim), one rejecting
        verdict, no crash."""
        from dataclasses import replace

        from repro.net.packet import Packet

        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        bad = replace(
            records[1],
            measurements=records[1].measurements + ((code, b"\x01" * 32),),
        )
        packet = Packet.udp_packet(
            src_mac=1, dst_mac=2,
            src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.1.1"),
            src_port=1, dst_port=2,
            ra_shim=RaShimHeader(
                hop_count=hop_count, body=records[0].wire + bad.wire
            ),
        ).with_trace(TRACE)
        verdict = appraiser.appraise_packet(packet)
        assert not verdict.accepted
        assert verdict.hop_count == hop_count
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SHIM
        assert events[0].detail["message"].startswith(
            "evidence stack undecodable: unknown inertia class"
        )
        assert verdict.failures == (events[0].detail["message"],)
        verdicts = [
            e for e in tel.audit.events if e.kind == AuditKind.VERDICT_ISSUED
        ]
        assert len(verdicts) == 1
        assert verdicts[0].detail["accepted"] is False

    def test_each_rejection_issues_one_verdict_event(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        appraiser.appraise_records(records[:-1], hop_count, trace=TRACE)
        verdicts = [
            e for e in tel.audit.events
            if e.kind == AuditKind.VERDICT_ISSUED
        ]
        assert len(verdicts) == 1
        assert verdicts[0].detail["accepted"] is False
        assert verdicts[0].detail["failures"] == 1

    def test_honest_records_accept_with_no_failure_events(self, delivered):
        records, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        verdict = appraiser.appraise_records(records, hop_count, trace=TRACE)
        assert verdict.accepted
        assert _check_failures(tel) == []
