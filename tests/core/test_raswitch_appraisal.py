"""Integration tests: policy-driven switches + path appraisal."""

import pytest

from repro.core.appraisal import (
    PathAppraisalPolicy,
    PathAppraiser,
    hardware_reference,
    program_reference,
)
from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain
from repro.core.policies import ap1_bank_path_attestation, ap3_path_check
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.crypto.keys import KeyRegistry
from repro.evidence.codec import POLICY_TLV_TYPE
from repro.evidence.nodes import HopEvidence
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, DetailLevel, EvidenceConfig
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pisa.programs import acl_program, firewall_program, ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry import AuditKind, Check, Telemetry
from repro.util.tlv import Tlv, TlvCodec


def build_network(programs, config=None):
    count = len(programs)
    topo = linear_topology(count)
    sim = Simulator(topo)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches = []
    for i, program in enumerate(programs, start=1):
        switch = NetworkAwarePeraSwitch(f"s{i}", config=config)
        sim.bind(switch)
        switch.runtime.arbitrate("ctl", 1)
        switch.runtime.set_forwarding_pipeline_config("ctl", program)
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        switches.append(switch)
    return sim, src, dst, switches


def make_appraiser(switches, programs, **policy_overrides):
    anchors = KeyRegistry()
    references = {}
    program_names = {}
    for switch, program in zip(switches, programs):
        anchors.register_pair(switch.keys)
        references[switch.name] = {
            InertiaClass.HARDWARE: hardware_reference(
                switch.engine.hardware_identity
            ),
            InertiaClass.PROGRAM: program_reference(program),
        }
        program_names[program_reference(program)] = program.full_name
    return PathAppraiser("Appraiser", PathAppraisalPolicy(
        anchors=anchors,
        reference_measurements=references,
        program_names=program_names,
        **policy_overrides,
    ))


def compiled_ap1(path, **kwargs):
    return compile_policy_for_path(
        ap1_bank_path_attestation(), path=path,
        bindings={"client": path[-1]}, **kwargs,
    )


def send_with_policy(src, dst, compiled, payload=b"data"):
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
        payload=payload,
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(compiled),
        ),
    )


class TestPolicyDrivenAttestation:
    def test_honest_path_accepted(self):
        programs = [ipv4_forwarding_program(), ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        compiled = compiled_ap1(
            ["h-src", "s1", "s2", "h-dst"],
            composition=CompositionMode.CHAINED,
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
        assert verdict.accepted, verdict.failures
        assert verdict.records_checked == 2

    def test_policy_composition_respected(self):
        programs = [ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        compiled = compiled_ap1(
            ["h-src", "s1", "h-dst"],
            composition=CompositionMode.TRAFFIC_PATH,
            detail=DetailLevel.CONFIG,
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        record = decode_record_stack(dst.received_packets[0].ra_shim.body)[0]
        assert record.packet_digest is not None
        classes = {inertia for inertia, _ in record.measurements}
        assert InertiaClass.TABLES in classes

    def test_rogue_program_rejected(self):
        genuine = firewall_program()
        programs = [genuine, genuine]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        # s2 secretly runs something else.
        from repro.pisa.programs import athens_rogue_program

        switches[1].runtime.arbitrate("attacker", 99)
        switches[1].runtime.set_forwarding_pipeline_config(
            "attacker", athens_rogue_program()
        )
        switches[1].runtime.write("attacker", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        compiled = compiled_ap1(["h-src", "s1", "s2", "h-dst"])
        send_with_policy(src, dst, compiled)
        sim.run()
        verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
        assert not verdict.accepted
        assert any("PROGRAM" in f for f in verdict.failures)

    def test_stripped_evidence_detected(self):
        programs = [ipv4_forwarding_program(), ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        compiled = compiled_ap1(["h-src", "s1", "s2", "h-dst"])
        send_with_policy(src, dst, compiled)
        sim.run()
        packet = dst.received_packets[0]
        # A middle adversary strips the second record but cannot adjust
        # the authenticated hop count consistently.
        records = decode_record_stack(packet.ra_shim.body)
        stripped_body = (
            encode_compiled_policy(compiled) + encode_record_stack(records[:1])
        )
        tampered = packet.with_shim(RaShimHeader(
            flags=packet.ra_shim.flags,
            hop_count=packet.ra_shim.hop_count,
            body=stripped_body,
        ))
        verdict = appraiser.appraise_packet(tampered, compiled)
        assert not verdict.accepted
        assert any("stripped" in f for f in verdict.failures)

    def test_reordered_chain_detected(self):
        programs = [ipv4_forwarding_program(), ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(
            programs, config=EvidenceConfig(composition=CompositionMode.CHAINED)
        )
        appraiser = make_appraiser(switches, programs, strict_places=False)
        compiled = compiled_ap1(
            ["h-src", "s1", "s2", "h-dst"],
            composition=CompositionMode.CHAINED,
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        packet = dst.received_packets[0]
        records = decode_record_stack(packet.ra_shim.body)
        swapped = [records[1], records[0]]
        tampered = packet.with_shim(RaShimHeader(
            flags=packet.ra_shim.flags,
            hop_count=packet.ra_shim.hop_count,
            body=encode_compiled_policy(compiled) + encode_record_stack(swapped),
        ))
        verdict = appraiser.appraise_packet(tampered, compiled)
        assert not verdict.accepted
        assert any("chain" in f for f in verdict.failures)

    def test_forged_record_rejected(self):
        programs = [ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        compiled = compiled_ap1(["h-src", "s1", "h-dst"])
        send_with_policy(src, dst, compiled)
        sim.run()
        packet = dst.received_packets[0]
        real = decode_record_stack(packet.ra_shim.body)[0]
        from repro.crypto.keys import KeyPair

        forged = HopEvidence(
            place="s1", measurements=real.measurements,
            sequence=real.sequence, chain_head=real.chain_head,
        ).sign_with(KeyPair.generate("not-s1"))
        tampered = packet.with_shim(RaShimHeader(
            flags=packet.ra_shim.flags,
            hop_count=1,
            body=encode_compiled_policy(compiled) + encode_record_stack([forged]),
        ))
        verdict = appraiser.appraise_packet(tampered, compiled)
        assert not verdict.accepted
        assert any("signature" in f for f in verdict.failures)

    def test_sampling_tolerated_when_allowed(self):
        config = EvidenceConfig(
            sampling=SamplingSpec(mode=SamplingMode.ONE_IN_N, n=2)
        )
        programs = [ipv4_forwarding_program(), ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs, config=config)
        appraiser = make_appraiser(switches, programs, allow_sampling=True)
        compiled = compiled_ap1(["h-src", "s1", "s2", "h-dst"])
        for _ in range(2):
            send_with_policy(src, dst, compiled)
        sim.run()
        verdicts = [
            appraiser.appraise_packet(p, compiled) for p in dst.received_packets
        ]
        assert all(v.accepted for v in verdicts)
        assert any(v.records_checked < 2 for v in verdicts)

    def test_failing_guard_skips_attestation(self):
        programs = [ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        compiled = compiled_ap1(["h-src", "s1", "h-dst"])
        # Make the hop guard fail by overriding the test environment.
        from dataclasses import replace as dc_replace

        compiled = dc_replace(
            compiled, hop=dc_replace(compiled.hop, test_text="attests = 0")
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        packet = dst.received_packets[0]
        assert decode_record_stack(packet.ra_shim.body) == []
        assert packet.ra_shim.hop_count == 1  # coverage still counted
        assert switches[0].tests_failed == 1

    def test_nonce_replay_rejected(self):
        from repro.ra.nonce import NonceManager

        programs = [ipv4_forwarding_program()]
        sim, src, dst, switches = build_network(programs)
        nonces = NonceManager("rp")
        nonce = nonces.issue()
        anchors_appraiser = make_appraiser(switches, programs)
        appraiser = PathAppraiser(
            "Appraiser", anchors_appraiser.policy, nonces=nonces
        )
        compiled = compiled_ap1(["h-src", "s1", "h-dst"], nonce=nonce)
        send_with_policy(src, dst, compiled)
        send_with_policy(src, dst, compiled)
        sim.run()
        first = appraiser.appraise_packet(dst.received_packets[0], compiled)
        second = appraiser.appraise_packet(dst.received_packets[1], compiled)
        assert first.accepted
        assert not second.accepted
        assert any("replayed" in f for f in second.failures)

    def test_ap3_function_sequence_enforced(self):
        firewall = firewall_program()
        acl = acl_program()
        programs = [firewall, acl]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        compiled = compile_policy_for_path(
            ap3_path_check(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={
                "F1": firewall.full_name, "F2": acl.full_name,
                "peer1": "h-src", "peer2": "h-dst",
            },
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
        assert verdict.accepted, verdict.failures
        assert verdict.functions_seen == (firewall.full_name, acl.full_name)

    def test_ap3_wrong_order_rejected(self):
        firewall = firewall_program()
        acl = acl_program()
        # Deploy in the WRONG order: ACL first, firewall second.
        programs = [acl, firewall]
        sim, src, dst, switches = build_network(programs)
        appraiser = make_appraiser(switches, programs)
        compiled = compile_policy_for_path(
            ap3_path_check(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={
                "F1": firewall.full_name, "F2": acl.full_name,
                "peer1": "h-src", "peer2": "h-dst",
            },
        )
        send_with_policy(src, dst, compiled)
        sim.run()
        verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
        assert not verdict.accepted
        assert any("required function" in f for f in verdict.failures)


def _policy_shim(*elements):
    """An RA shim whose body is one policy TLV holding ``elements``."""
    body = Tlv(POLICY_TLV_TYPE, TlvCodec.encode(list(elements))).encode()
    return RaShimHeader(flags=RaShimHeader.FLAG_POLICY, body=body)


class TestUndecodablePolicyShim:
    """A crafted policy TLV fails closed at the first switch: counted,
    journaled once as a shim check, dropped — never a crashed run."""

    @pytest.mark.parametrize("elements", [
        pytest.param((Tlv(1, b"p"), Tlv(7, b"")), id="empty-detail"),
        pytest.param((Tlv(1, b"\xff\xfe"),), id="non-utf8-policy-id"),
        pytest.param((Tlv(2, b"rp"),), id="no-policy-id"),
    ])
    def test_crafted_policy_is_dropped_and_journaled(self, elements):
        telemetry = Telemetry()
        sim = Simulator(linear_topology(2), telemetry=telemetry)
        chain = attested_chain(sim, [ipv4_forwarding_program()] * 2)
        chain.send(_policy_shim(*elements), b"x", 1, 2)
        sim.run()
        assert chain.dst.received_packets == []
        s1, s2 = chain.switches
        assert s1.ra_stats.undecodable_evidence == 1
        assert s1.packets_dropped == 1
        assert s2.packets_processed == 0
        events = telemetry.audit.events
        failed = [e for e in events if e.kind == AuditKind.CHECK_FAILED]
        assert [e.detail["check"] for e in failed] == [Check.SHIM]
        assert [e.kind for e in events].count(AuditKind.PACKET_DROPPED) == 1
