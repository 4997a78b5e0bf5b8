"""Tests for topology construction and canned topologies."""

import pytest

from repro.net.topology import (
    Link,
    Topology,
    fat_tree,
    linear_topology,
    ring_topology,
)
from repro.util.errors import NetworkError


class TestTopologyBasics:
    def test_add_and_query_nodes(self):
        topo = Topology()
        topo.add_node("s1")
        topo.add_node("h1", kind="host")
        assert topo.node_names == ["h1", "s1"]
        assert topo.kind_of("h1") == "host"
        assert topo.nodes_of_kind("switch") == ["s1"]

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("s1")
        with pytest.raises(NetworkError):
            topo.add_node("s1")

    def test_link_wiring(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", 1, "b", 2)
        assert topo.neighbor("a", 1) == ("b", 2)
        assert topo.neighbor("b", 2) == ("a", 1)

    def test_link_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(NetworkError):
            topo.add_link("a", 1, "ghost", 1)

    def test_port_reuse_rejected(self):
        topo = Topology()
        for name in "abc":
            topo.add_node(name)
        topo.add_link("a", 1, "b", 1)
        with pytest.raises(NetworkError, match="already wired"):
            topo.add_link("a", 1, "c", 1)

    def test_port_towards(self):
        topo = Topology()
        for name in "abc":
            topo.add_node(name)
        topo.add_link("a", 5, "b", 1)
        topo.add_link("a", 7, "c", 1)
        assert topo.port_towards("a", "c") == 7

    def test_port_towards_missing(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(NetworkError):
            topo.port_towards("a", "b")

    def test_neighbors_sorted(self):
        topo = Topology()
        for name in ["a", "z", "m"]:
            topo.add_node(name)
        topo.add_link("a", 1, "z", 1)
        topo.add_link("a", 2, "m", 1)
        assert topo.neighbors_of("a") == ["m", "z"]


class TestLink:
    def test_transit_delay(self):
        link = Link("a", 1, "b", 1, latency_s=1e-6, bandwidth_bps=1e9)
        # 1000-byte frame: 8 us serialization + 1 us propagation.
        assert link.transit_delay(1000) == pytest.approx(9e-6)

    def test_other_end_validates(self):
        link = Link("a", 1, "b", 2)
        with pytest.raises(NetworkError):
            link.other_end("c")

    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            Link("a", 1, "b", 1, latency_s=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            Link("a", 1, "b", 1, bandwidth_bps=0)


class TestCannedTopologies:
    def test_linear_structure(self):
        topo = linear_topology(3)
        assert topo.nodes_of_kind("switch") == ["s1", "s2", "s3"]
        assert topo.nodes_of_kind("host") == ["h-dst", "h-src"]
        assert topo.neighbor("h-src", 1) == ("s1", 1)
        assert topo.neighbor("s1", 2) == ("s2", 1)
        assert topo.neighbor("s3", 2) == ("h-dst", 1)

    def test_linear_no_hosts(self):
        topo = linear_topology(2, hosts=False)
        assert topo.nodes_of_kind("host") == []

    def test_linear_minimum(self):
        with pytest.raises(NetworkError):
            linear_topology(0)

    def test_ring_structure(self):
        topo = ring_topology(4)
        # Each switch has exactly 2 switch neighbors + 1 host.
        for i in range(1, 5):
            neighbors = topo.neighbors_of(f"s{i}")
            assert len(neighbors) == 3

    def test_ring_minimum(self):
        with pytest.raises(NetworkError):
            ring_topology(2)

    def test_fat_tree_counts(self):
        k = 4
        topo = fat_tree(k)
        switches = topo.nodes_of_kind("switch")
        hosts = topo.nodes_of_kind("host")
        assert len(switches) == (k // 2) ** 2 + k * k  # core + (agg+edge) per pod
        assert len(hosts) == k**3 // 4

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(NetworkError):
            fat_tree(3)

    def test_fat_tree_connected(self):
        from repro.net.routing import shortest_path

        topo = fat_tree(4)
        hosts = topo.nodes_of_kind("host")
        path = shortest_path(topo, hosts[0], hosts[-1])
        assert path[0] == hosts[0] and path[-1] == hosts[-1]
