"""Tests for the RelyingParty orchestration API."""

import pytest

from repro.core.appraisal import (
    PathAppraisalPolicy,
    hardware_reference,
    program_reference,
)
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.relying_party import RelyingParty
from repro.crypto.keys import KeyRegistry
from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode
from repro.pera.inertia import InertiaClass
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.util.errors import ConfigError


def build_network(switch_count=2):
    topo = linear_topology(switch_count)
    sim = Simulator(topo)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches, programs = [], []
    for i in range(1, switch_count + 1):
        switch = NetworkAwarePeraSwitch(f"s{i}")
        sim.bind(switch)
        switch.runtime.arbitrate("ctl", 1)
        program = ipv4_forwarding_program()
        switch.runtime.set_forwarding_pipeline_config("ctl", program)
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        switches.append(switch)
        programs.append(program)
    return sim, src, dst, switches, programs


def appraisal_for(switches, programs):
    anchors = KeyRegistry()
    references, names = {}, {}
    for switch, program in zip(switches, programs):
        anchors.register_pair(switch.keys)
        references[switch.name] = {
            InertiaClass.HARDWARE: hardware_reference(
                switch.engine.hardware_identity
            ),
            InertiaClass.PROGRAM: program_reference(program),
        }
        names[program_reference(program)] = program.full_name
    return PathAppraisalPolicy(
        anchors=anchors, reference_measurements=references,
        program_names=names,
    )


def make_rp(switches, programs):
    return RelyingParty(
        policy=ap1_bank_path_attestation(),
        appraisal=appraisal_for(switches, programs),
        composition=CompositionMode.CHAINED,
    )


class TestRelyingParty:
    def test_single_send_accepted(self):
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        rp.send(b"hello")
        sim.run()
        assert rp.sent == 1
        assert len(rp.verdicts) == 1
        assert rp.verdicts[0].accepted, rp.verdicts[0].failures

    def test_path_computed_from_topology(self):
        sim, src, dst, switches, programs = build_network(3)
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        assert rp.path == ["h-src", "s1", "s2", "s3", "h-dst"]

    def test_fresh_nonce_per_send(self):
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        a = rp.send()
        b = rp.send()
        assert a.nonce != b.nonce
        sim.run()
        assert len(rp.verdicts) == 2
        assert all(verdict.accepted for verdict in rp.verdicts)

    def test_send_before_attach_rejected(self):
        _, _, _, switches, programs = build_network()
        rp = make_rp(switches, programs)
        with pytest.raises(ConfigError, match="attach"):
            rp.send()

    def test_rogue_switch_rejected(self):
        from repro.pisa.programs import athens_rogue_program

        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        switches[0].runtime.arbitrate("attacker", 99)
        switches[0].runtime.set_forwarding_pipeline_config(
            "attacker", athens_rogue_program()
        )
        switches[0].runtime.write("attacker", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        rp.send()
        sim.run()
        assert not rp.verdicts[0].accepted
        assert any("PROGRAM" in f for f in rp.verdicts[0].failures)

    def test_foreign_nonce_flagged(self):
        """Evidence carrying a nonce this RP never issued is rejected."""
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        # Another sender replays a stolen policy header with its own
        # nonce through the same destination.
        from repro.core.compiler import compile_policy_for_path
        from repro.core.wire import encode_compiled_policy
        from repro.net.headers import RaShimHeader

        foreign = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={"client": "h-dst"},
            nonce=b"\xee" * 16,
            composition=CompositionMode.CHAINED,
        )
        src.send_udp(
            dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
            ra_shim=RaShimHeader(
                flags=RaShimHeader.FLAG_POLICY,
                body=encode_compiled_policy(foreign),
            ),
        )
        sim.run()
        assert len(rp.verdicts) == 1
        assert not rp.verdicts[0].accepted
        assert any("never issued" in f for f in rp.verdicts[0].failures)

    def test_plain_traffic_ignored(self):
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
                     payload=b"no-ra")
        sim.run()
        assert rp.verdicts == []
        assert len(dst.received_packets) == 1

    def test_existing_callback_preserved(self):
        sim, src, dst, switches, programs = build_network()
        seen = []
        dst.on_packet = seen.append
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        rp.send()
        sim.run()
        assert len(seen) == 1  # the app callback still fires
        assert len(rp.verdicts) == 1

    def test_lint_clean_deployment(self):
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        findings = rp.lint()
        assert not any(f.startswith("[error]") for f in findings)

    def test_lint_flags_missing_references(self):
        sim, src, dst, switches, programs = build_network()
        # Appraisal only knows s1; s2's evidence is uncheckable.
        rp = make_rp(switches[:1], programs[:1])
        rp.attach(sim, src, dst)
        findings = rp.lint()
        assert any("s2" in f and f.startswith("[error]") for f in findings)

    def test_lint_requires_attach(self):
        _, _, _, switches, programs = build_network()
        rp = make_rp(switches, programs)
        with pytest.raises(ConfigError):
            rp.lint()

    def test_summary_readable(self):
        sim, src, dst, switches, programs = build_network()
        rp = make_rp(switches, programs)
        rp.attach(sim, src, dst)
        rp.send()
        sim.run()
        text = rp.summary()
        assert "1 sent" in text and "1 accepted" in text
