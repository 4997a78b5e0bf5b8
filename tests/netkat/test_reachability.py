"""Tests for topology encoding and reachability queries."""


from repro.net.routing import all_pairs_next_hops
from repro.net.topology import Topology, linear_topology, ring_topology
from repro.netkat.ast import Filter, seq, test as tst
from repro.netkat.reachability import (
    PORT_FIELD,
    SWITCH_FIELD,
    forwarding_hop_policy,
    network_policy,
    reachable,
    reachable_set,
    topology_policy,
)
from repro.netkat.semantics import NkPacket, run


def at(switch, port, **extra):
    return NkPacket({SWITCH_FIELD: switch, PORT_FIELD: port, **extra})


def next_hop_ports(topo):
    """One egress port per (node, destination): the lowest member."""
    return {pair: ports[0] for pair, ports in all_pairs_next_hops(topo).items()}


class TestTopologyPolicy:
    def test_link_teleports_both_ways(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", 1, "b", 2)
        t = topology_policy(topo)
        assert run(t, at("a", 1)) == {at("b", 2)}
        assert run(t, at("b", 2)) == {at("a", 1)}

    def test_unlinked_position_drops(self):
        topo = Topology()
        topo.add_node("a")
        t = topology_policy(topo)
        assert run(t, at("a", 1)) == set()

    def test_empty_topology_is_drop(self):
        t = topology_policy(Topology())
        assert run(t, at("a", 1)) == set()


class TestReachability:
    def hop_and_topo(self, switch_count=3):
        topo = linear_topology(switch_count)
        hop = forwarding_hop_policy(
            topo, next_hop_ports(topo), destination_field="dst"
        )
        return topo, hop, topology_policy(topo)

    def test_linear_end_to_end(self):
        _, hop, t = self.hop_and_topo()
        start = at("h-src", 1, dst="h-dst")
        assert reachable(hop, t, start, tst(SWITCH_FIELD, "h-dst"))

    def test_unroutable_destination_unreachable(self):
        _, hop, t = self.hop_and_topo()
        start = at("h-src", 1, dst="nowhere")
        assert not reachable(hop, t, start, tst(SWITCH_FIELD, "h-dst"))

    def test_reachable_set_contains_intermediate_hops(self):
        _, hop, t = self.hop_and_topo()
        start = at("h-src", 1, dst="h-dst")
        switches_seen = {p.get(SWITCH_FIELD) for p in reachable_set(hop, t, start)}
        assert {"s1", "s2", "s3", "h-dst"} <= switches_seen

    def test_filtering_hop_blocks_path(self):
        # A hop policy that drops everything at s2 partitions the chain.
        topo = linear_topology(3)
        hop = forwarding_hop_policy(topo, next_hop_ports(topo), "dst")
        blocked = seq(Filter(~tst(SWITCH_FIELD, "s2")), hop)
        t = topology_policy(topo)
        start = at("h-src", 1, dst="h-dst")
        assert not reachable(blocked, t, start, tst(SWITCH_FIELD, "h-dst"))

    def test_ring_reaches_all_hosts(self):
        topo = ring_topology(4)
        hop = forwarding_hop_policy(topo, next_hop_ports(topo), "dst")
        t = topology_policy(topo)
        start = at("h1", 1, dst="h3")
        assert reachable(hop, t, start, tst(SWITCH_FIELD, "h3"))

    def test_network_policy_delivers_exact_packet(self):
        _, hop, t = self.hop_and_topo(2)
        start = at("h-src", 1, dst="h-dst")
        finals = run(network_policy(hop, t), start)
        assert any(p.get(SWITCH_FIELD) == "h-dst" for p in finals)
