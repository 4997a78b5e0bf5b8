"""Tests for the discrete-event simulator, routing, hosts and flows."""

import pytest

from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.routing import all_pairs_next_hops, shortest_path
from repro.net.simulator import Node, Simulator
from repro.net.topology import Topology, linear_topology
from repro.util.errors import NetworkError


class Repeater(Node):
    """Forwards every packet out the other port (2-port node)."""

    def handle_packet(self, packet, in_port):
        out = 2 if in_port == 1 else 1
        self.sim.transmit(self.name, out, packet)


def two_hosts_one_switch():
    topo = Topology()
    topo.add_node("h1", kind="host")
    topo.add_node("h2", kind="host")
    topo.add_node("s1")
    topo.add_link("h1", 1, "s1", 1, latency_s=1e-6)
    topo.add_link("s1", 2, "h2", 1, latency_s=1e-6)
    sim = Simulator(topo)
    h1 = Host("h1", mac=0x1, ip=ip_to_int("10.0.0.1"))
    h2 = Host("h2", mac=0x2, ip=ip_to_int("10.0.0.2"))
    sim.bind(h1)
    sim.bind(h2)
    sim.bind(Repeater("s1"))
    return sim, h1, h2


class TestSimulatorCore:
    def test_end_to_end_delivery(self):
        sim, h1, h2 = two_hosts_one_switch()
        h1.send_udp(dst_mac=h2.mac, dst_ip=h2.ip, src_port=1000, dst_port=2000,
                    payload=b"ping")
        sim.run()
        assert len(h2.received_packets) == 1
        assert h2.received_packets[0].payload == b"ping"

    def test_latency_accumulates(self):
        sim, h1, h2 = two_hosts_one_switch()
        h1.send_udp(dst_mac=h2.mac, dst_ip=h2.ip, src_port=1, dst_port=2)
        sim.run()
        arrival = h2.received[0][0]
        assert arrival >= 2e-6  # two link propagation delays

    def test_unbound_node_drops(self):
        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("dark")
        topo.add_link("h1", 1, "dark", 1)
        sim = Simulator(topo)
        h1 = Host("h1", mac=1, ip=2)
        sim.bind(h1)
        h1.send_udp(dst_mac=9, dst_ip=9, src_port=1, dst_port=2)
        sim.run()
        assert sim.stats.packets_dropped == 1

    def test_unwired_port_drops(self):
        sim, h1, h2 = two_hosts_one_switch()
        assert not sim.transmit("s1", 99, Packet.udp_packet(1, 2, 3, 4, 5, 6))
        assert sim.stats.packets_dropped == 1

    def test_bind_validations(self):
        sim, h1, _ = two_hosts_one_switch()
        with pytest.raises(NetworkError):
            sim.bind(Host("h1", mac=1, ip=1))  # already bound
        with pytest.raises(NetworkError):
            sim.bind(Host("ghost", mac=1, ip=1))  # not in topology

    def test_schedule_negative_rejected(self):
        sim, _, _ = two_hosts_one_switch()
        with pytest.raises(NetworkError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_bounds_time(self):
        sim, h1, h2 = two_hosts_one_switch()
        sim.schedule(10.0, lambda: h1.send_udp(dst_mac=2, dst_ip=2, src_port=1, dst_port=2))
        processed = sim.run(until=5.0)
        assert processed == 0
        assert sim.clock.now == 5.0

    def test_event_ordering_deterministic(self):
        sim, _, _ = two_hosts_one_switch()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule(0.5, lambda: order.append("c"))
        sim.run()
        assert order == ["c", "a", "b"]  # ties break by insertion order

    def test_control_channel(self):
        sim, h1, h2 = two_hosts_one_switch()
        sim.send_control("h1", "h2", {"kind": "evidence"}, size_hint=100)
        sim.run()
        assert len(h2.control_received) == 1
        assert h2.control_received[0][1] == "h1"
        assert sim.stats.control_bytes == 100

    def test_control_unknown_recipient_counts_drop(self):
        """Control drops are accounted symmetrically with dataplane
        drops: observable in stats, not an exception, not silence."""
        sim, _, _ = two_hosts_one_switch()
        assert sim.send_control("h1", "ghost", "x") is False
        assert sim.stats.control_dropped == 1
        assert sim.stats.control_messages == 0
        assert sim.stats.control_bytes == 0

    def test_control_drop_at_delivery_counts(self):
        """A recipient that vanishes between send and delivery is a
        counted control drop, never a crash mid-event-loop."""
        sim, h1, h2 = two_hosts_one_switch()
        assert sim.send_control("h1", "h2", "evidence", size_hint=10) is True
        del sim._nodes["h2"]  # unbind between send and delivery
        sim.run()
        assert sim.stats.control_dropped == 1
        assert sim.stats.control_messages == 1  # the send itself counted

    def test_stats_accumulate(self):
        sim, h1, h2 = two_hosts_one_switch()
        for _ in range(3):
            h1.send_udp(dst_mac=h2.mac, dst_ip=h2.ip, src_port=1, dst_port=2)
        sim.run()
        assert sim.stats.packets_transmitted == 6  # 3 pkts x 2 links
        assert sim.stats.bytes_transmitted > 0


class TestStatsAccounting:
    """SimStats must account every byte and every drop, on every path:
    transmit, link loss, dark ports, policy drops and the control
    channel (satellite: symmetric drop accounting)."""

    def test_transmit_counts_packets_and_bytes(self):
        sim, h1, h2 = two_hosts_one_switch()
        h1.send_udp(dst_mac=h2.mac, dst_ip=h2.ip, src_port=1, dst_port=2,
                    payload=b"x" * 10)
        sim.run()
        assert sim.stats.packets_transmitted == 2  # two links
        wire = h2.received_packets[0].wire_length
        assert sim.stats.bytes_transmitted == 2 * wire
        assert sim.stats.packets_dropped == 0

    def test_link_loss_counts_drops_not_transmits(self):
        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1, drop_rate=0.999999)
        sim = Simulator(topo, seed=7)
        h1 = Host("h1", mac=1, ip=1)
        h2 = Host("h2", mac=2, ip=2)
        sim.bind(h1)
        sim.bind(h2)
        for _ in range(20):
            h1.send_udp(dst_mac=2, dst_ip=2, src_port=1, dst_port=2)
        sim.run()
        assert sim.stats.packets_dropped > 0
        assert (sim.stats.packets_transmitted + sim.stats.packets_dropped
                == 20)
        assert len(h2.received_packets) == sim.stats.packets_transmitted

    def test_dark_port_drop_counted(self):
        sim, _, _ = two_hosts_one_switch()
        sim.transmit("s1", 42, Packet.udp_packet(1, 2, 3, 4, 5, 6))
        assert sim.stats.packets_dropped == 1
        assert sim.stats.packets_transmitted == 0

    def test_policy_drop_counted(self):
        sim, _, _ = two_hosts_one_switch()
        sim.drop("s1", Packet.udp_packet(1, 2, 3, 4, 5, 6))
        assert sim.stats.packets_dropped == 1

    def test_control_accounting_symmetric_with_dataplane(self):
        """Delivered and dropped control messages are both visible."""
        sim, h1, h2 = two_hosts_one_switch()
        assert sim.send_control("h1", "h2", "ok", size_hint=5) is True
        assert sim.send_control("h1", "ghost", "lost", size_hint=5) is False
        sim.run()
        assert sim.stats.control_messages == 1
        assert sim.stats.control_bytes == 5
        assert sim.stats.control_dropped == 1
        assert len(h2.control_received) == 1


class TestRouting:
    def test_shortest_path_linear(self):
        topo = linear_topology(3)
        assert shortest_path(topo, "h-src", "h-dst") == [
            "h-src", "s1", "s2", "s3", "h-dst",
        ]

    def test_same_node(self):
        topo = linear_topology(2)
        assert shortest_path(topo, "s1", "s1") == ["s1"]

    def test_no_path(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(NetworkError, match="no path"):
            shortest_path(topo, "a", "b")

    def test_unknown_node(self):
        topo = linear_topology(2)
        with pytest.raises(NetworkError):
            shortest_path(topo, "ghost", "s1")

    def test_prefers_low_latency(self):
        topo = Topology()
        for name in ["a", "b", "fast", "slow"]:
            topo.add_node(name)
        topo.add_link("a", 1, "slow", 1, latency_s=10e-6)
        topo.add_link("slow", 2, "b", 1, latency_s=10e-6)
        topo.add_link("a", 2, "fast", 1, latency_s=1e-6)
        topo.add_link("fast", 2, "b", 2, latency_s=1e-6)
        assert shortest_path(topo, "a", "b") == ["a", "fast", "b"]

    def test_equal_cost_next_hops_on_a_chain(self):
        topo = linear_topology(2)
        table = all_pairs_next_hops(topo)
        assert table[("s1", "h-dst")] == (2,)
        assert table[("s2", "h-src")] == (1,)
        assert ("s1", "s1") not in table
