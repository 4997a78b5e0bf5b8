"""System-scale integration: attestation across a k=4 fat-tree.

Exercises the whole stack at once: topology builder, routing
controller (P4Runtime over 20 switches), network-aware PERA switches,
policy compilation per path, multiple concurrent flows, and per-flow
appraisal — the closest thing to the paper's datacenter deployment
story (UC1's "tenants of a datacenter").
"""

import pytest

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.net.controller import RoutingController
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.routing import shortest_path
from repro.net.simulator import Simulator
from repro.net.topology import fat_tree as build_fat_tree
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack
from repro.pisa.programs import ipv4_forwarding_program


@pytest.fixture(scope="module")
def fat_tree():
    """A provisioned k=4 fat-tree with attesting switches everywhere."""
    topo = build_fat_tree(4)
    sim = Simulator(topo)
    base_ip = ip_to_int("10.0.0.0")
    hosts = {}
    for index, name in enumerate(topo.nodes_of_kind("host"), start=1):
        host = Host(name, mac=index, ip=base_ip + index)
        sim.bind(host)
        hosts[name] = host
    switches = {}
    for name in topo.nodes_of_kind("switch"):
        switch = NetworkAwarePeraSwitch(
            name, config=EvidenceConfig(composition=CompositionMode.CHAINED)
        )
        sim.bind(switch)
        switches[name] = switch
    controller = RoutingController(sim)
    controller.take_mastership()
    programs = controller.install_programs(ipv4_forwarding_program)
    controller.install_host_routes()

    appraiser = PathAppraiser("Appraiser", PathAppraisalPolicy.for_fleet(
        switches.values(), [programs[name] for name in switches]
    ))
    return sim, topo, hosts, switches, appraiser


def send_attested(sim, topo, src, dst):
    path = shortest_path(topo, src.name, dst.name)
    compiled = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=path,
        bindings={"client": dst.name},
        composition=CompositionMode.CHAINED,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=7000, dst_port=7001,
        payload=b"dc-flow",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(compiled),
        ),
    )
    return path, compiled


class TestFatTreeAttestation:
    def test_cross_pod_flow_fully_attested(self, fat_tree):
        sim, topo, hosts, switches, appraiser = fat_tree
        src = hosts["h-p00e00-0"]
        dst = hosts["h-p03e01-1"]
        dst.clear()
        path, compiled = send_attested(sim, topo, src, dst)
        sim.run()
        assert len(dst.received_packets) == 1
        packet = dst.received_packets[0]
        switch_hops = len(path) - 2
        # Every switch on the (cross-pod) path attested: edge, agg,
        # core, agg, edge.
        assert switch_hops == 5
        records = decode_record_stack(packet.ra_shim.body)
        assert len(records) == switch_hops
        verdict = appraiser.appraise_packet(packet, compiled)
        assert verdict.accepted, verdict.failures

    def test_same_edge_flow_short_path(self, fat_tree):
        sim, topo, hosts, switches, appraiser = fat_tree
        src = hosts["h-p00e00-0"]
        dst = hosts["h-p00e00-1"]
        dst.clear()
        path, compiled = send_attested(sim, topo, src, dst)
        sim.run()
        records = decode_record_stack(dst.received_packets[0].ra_shim.body)
        assert len(records) == 1  # same edge switch
        verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
        assert verdict.accepted

    def test_many_concurrent_flows_all_appraise(self, fat_tree):
        sim, topo, hosts, switches, appraiser = fat_tree
        names = sorted(hosts)
        pairs = list(zip(names[:6], reversed(names[-6:])))
        compileds = {}
        for src_name, dst_name in pairs:
            if src_name == dst_name:
                continue
            hosts[dst_name].clear()
        for src_name, dst_name in pairs:
            if src_name == dst_name:
                continue
            _, compiled = send_attested(
                sim, topo, hosts[src_name], hosts[dst_name]
            )
            compileds[dst_name] = compiled
        sim.run()
        appraised = 0
        for dst_name, compiled in compileds.items():
            for packet in hosts[dst_name].received_packets:
                if packet.ra_shim is None:
                    continue
                verdict = appraiser.appraise_packet(packet, compiled)
                assert verdict.accepted, verdict.failures
                appraised += 1
        assert appraised == len(compileds)

    def test_one_rogue_core_switch_poisons_only_crossing_flows(self, fat_tree):
        sim, topo, hosts, switches, appraiser = fat_tree
        # Swap the program on the core switch the cross-pod flow crosses
        # (host, edge, agg, core, agg, edge, host).
        from repro.pisa.programs import athens_rogue_program
        from repro.pisa.runtime import TableEntry
        from repro.pisa.tables import MatchKey, MatchKind

        src, dst = hosts["h-p00e00-0"], hosts["h-p03e01-1"]
        rogue_name = shortest_path(topo, src.name, dst.name)[3]
        assert rogue_name.startswith("zcore")
        rogue = switches[rogue_name]
        rogue.runtime.arbitrate("attacker", 99)
        rogue.runtime.set_forwarding_pipeline_config(
            "attacker", athens_rogue_program()
        )
        # Reinstall this switch's routes under the attacker identity.
        for host in hosts.values():
            path = shortest_path(topo, rogue_name, host.name)
            if len(path) < 2:
                continue
            port = topo.port_towards(rogue_name, path[1])
            rogue.runtime.write("attacker", TableEntry(
                table="ipv4_lpm",
                keys=(MatchKey(MatchKind.LPM, host.ip, prefix_len=32),),
                action="forward", params=(port,),
            ))

        dst.clear()
        path, compiled = send_attested(sim, topo, src, dst)
        sim.run()
        packet = dst.received_packets[-1]
        verdict = appraiser.appraise_packet(packet, compiled)
        assert rogue_name in path
        assert not verdict.accepted
        assert any("PROGRAM" in f for f in verdict.failures)
        # A same-pod flow that avoids the core is unaffected.
        src2, dst2 = hosts["h-p01e00-0"], hosts["h-p01e01-0"]
        dst2.clear()
        path2, compiled2 = send_attested(sim, topo, src2, dst2)
        assert rogue_name not in path2
        sim.run()
        verdict2 = appraiser.appraise_packet(
            dst2.received_packets[-1], compiled2
        )
        assert verdict2.accepted, verdict2.failures
