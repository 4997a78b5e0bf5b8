"""Tests for the central routing controller."""

import pytest

from repro.net.controller import RoutingController
from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import fat_tree, linear_topology, ring_topology
from repro.pera.switch import PeraSwitch
from repro.pisa.switch import PisaSwitch


def bind_hosts_and_switches(topo, switch_cls=PisaSwitch):
    sim = Simulator(topo)
    base_ip = ip_to_int("10.0.0.0")
    for index, name in enumerate(topo.nodes_of_kind("host"), start=1):
        sim.bind(Host(name, mac=index, ip=base_ip + index))
    for name in topo.nodes_of_kind("switch"):
        sim.bind(switch_cls(name))
    return sim


class TestRoutingController:
    def test_provision_linear(self):
        sim = bind_hosts_and_switches(linear_topology(3))
        controller = RoutingController(sim)
        routes = controller.provision()
        assert routes == 3 * 2  # 3 switches x 2 hosts

    def test_end_to_end_after_provision(self):
        sim = bind_hosts_and_switches(linear_topology(3))
        RoutingController(sim).provision()
        src = sim.node("h-src")
        dst = sim.node("h-dst")
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
                     payload=b"routed")
        sim.run()
        assert len(dst.received_packets) == 1

    def test_ring_any_pair(self):
        sim = bind_hosts_and_switches(ring_topology(4))
        RoutingController(sim).provision()
        h1, h3 = sim.node("h1"), sim.node("h3")
        h1.send_udp(dst_mac=h3.mac, dst_ip=h3.ip, src_port=1, dst_port=2)
        sim.run()
        assert len(h3.received_packets) == 1

    def test_fat_tree_cross_pod(self):
        topo = fat_tree(4)
        sim = bind_hosts_and_switches(topo)
        RoutingController(sim).provision()
        hosts = topo.nodes_of_kind("host")
        src = sim.node(hosts[0])  # pod 0
        dst = sim.node(hosts[-1])  # pod 3
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2)
        sim.run()
        assert len(dst.received_packets) == 1

    def test_works_with_pera_switches(self):
        sim = bind_hosts_and_switches(linear_topology(2), switch_cls=PeraSwitch)
        RoutingController(sim).provision()
        src, dst = sim.node("h-src"), sim.node("h-dst")
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2)
        sim.run()
        assert len(dst.received_packets) == 1

    def test_mastership_conflict_detected(self):
        from repro.util.errors import NetworkError

        sim = bind_hosts_and_switches(linear_topology(1))
        switch = sim.node("s1")
        switch.runtime.arbitrate("rogue", 100)
        controller = RoutingController(sim, election_id=1)
        with pytest.raises(NetworkError, match="arbitration"):
            controller.take_mastership()

    def test_control_writes_invalidate_pera_cache(self):
        """P4Runtime writes must invalidate cached evidence (Fig. 4)."""
        from repro.net.headers import RaShimHeader
        from repro.pera.config import DetailLevel, EvidenceConfig

        bind_hosts_and_switches(linear_topology(1))
        # Rebind: need a config-detail PERA switch.
        sim2 = Simulator(linear_topology(1))
        src = Host("h-src", mac=1, ip=ip_to_int("10.0.0.1"))
        dst = Host("h-dst", mac=2, ip=ip_to_int("10.0.0.2"))
        switch = PeraSwitch("s1", config=EvidenceConfig(detail=DetailLevel.CONFIG))
        for node in (src, dst, switch):
            sim2.bind(node)
        controller = RoutingController(sim2)
        controller.provision()
        shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY)
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
                     ra_shim=shim)
        sim2.run()
        assert switch.ra_stats.signatures_produced == 1
        # A new route write invalidates the cached signed record.
        controller.install_host_routes()  # rewrites -> duplicate-safe?
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
                     ra_shim=shim)
        sim2.run()
        assert switch.ra_stats.signatures_produced == 2
