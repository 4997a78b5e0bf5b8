"""The fat-tree generator and pod-aware shard partitioning."""

import pytest

from repro.net.sharding import partition_topology
from repro.net.topology import fabric_pod_map, fat_tree, linear_topology
from repro.util.errors import NetworkError


class TestFatTreeGenerator:
    def test_k4_counts(self):
        topo = fat_tree(4)
        names = topo.node_names
        switches = [n for n in names if topo.kind_of(n) != "host"]
        hosts = [n for n in names if topo.kind_of(n) == "host"]
        assert len(switches) == 20  # 4 pods x (2+2) + 4 cores
        assert len(hosts) == 16  # 2 hosts on each of 8 edges

    def test_names_sort_pod_contiguously(self):
        topo = fat_tree(4)
        switches = sorted(
            n for n in topo.node_names if topo.kind_of(n) != "host"
        )
        # p00a00 p00a01 p00e00 p00e01 p01... cores last under 'z'.
        assert switches[:4] == ["p00a00", "p00a01", "p00e00", "p00e01"]
        assert switches[-4:] == ["zcore00", "zcore01", "zcore02", "zcore03"]

    def test_port_conventions(self):
        topo = fat_tree(4)  # hosts_per_edge defaults to k/2 = 2
        # Edge: hosts on 1..2, aggregation uplinks on 3..4.
        assert topo.neighbor("p00e00", 1)[0] == "h-p00e00-0"
        assert topo.neighbor("p00e00", 3)[0] == "p00a00"
        assert topo.neighbor("p00e00", 4)[0] == "p00a01"
        # Aggregation: edges on 1..2, core uplinks on 3..4.
        assert topo.neighbor("p00a01", 1)[0] == "p00e00"
        assert topo.neighbor("p00a01", 3)[0] == "zcore02"
        # Core ai*half+j faces pod p on port 1+p.
        for pod in range(4):
            assert topo.neighbor("zcore00", 1 + pod)[0] == f"p{pod:02d}a00"

    def test_hosts_per_edge_override(self):
        topo = fat_tree(4, hosts_per_edge=1)
        hosts = [n for n in topo.node_names if topo.kind_of(n) == "host"]
        assert len(hosts) == 8
        # Uplinks shift down with fewer access ports.
        assert topo.neighbor("p00e00", 2)[0] == "p00a00"

    def test_odd_k_rejected(self):
        with pytest.raises(NetworkError):
            fat_tree(5)
        with pytest.raises(NetworkError):
            fat_tree(0)


class TestFabricPodMap:
    def test_fat_tree_maps_every_switch(self):
        topo = fat_tree(4)
        pods = fabric_pod_map(topo)
        assert pods["p02e01"] == "p02"
        assert pods["p02a00"] == "p02"
        assert pods["zcore03"] == "zcore"
        assert "h-p00e00-0" not in pods
        switches = [n for n in topo.node_names if topo.kind_of(n) != "host"]
        assert set(pods) == set(switches)

    def test_all_or_nothing(self):
        topo = fat_tree(4)
        topo.add_node("oddball")  # one off-convention switch: no map
        assert fabric_pod_map(topo) == {}


class TestPodAwarePartitioning:
    def test_no_pod_is_ever_split(self):
        topo = fat_tree(4)
        pods = fabric_pod_map(topo)
        for shards in (2, 3, 4, 5):
            part = partition_topology(topo, shards)
            owner_of_pod = {}
            for switch, tag in pods.items():
                owner_of_pod.setdefault(tag, set()).add(part.owner[switch])
            assert all(len(v) == 1 for v in owner_of_pod.values()), (
                shards,
                owner_of_pod,
            )

    def test_cuts_are_pod_core_only_and_set_lookahead(self):
        topo = fat_tree(4)
        part = partition_topology(topo, 4)
        pods = fabric_pod_map(topo)
        for link in part.cut_links:
            tags = {pods[link.node_a], pods[link.node_b]}
            assert "zcore" in tags and len(tags) == 2
        # Pod-core fabric links carry the 2us default; that's the window.
        assert part.lookahead_s == pytest.approx(2e-6)

    def test_balanced_within_one_group(self):
        topo = fat_tree(4)  # five groups of four switches each
        part = partition_topology(topo, 2)
        sizes = [
            sum(
                1
                for n, owner in part.owner.items()
                if owner == shard and topo.kind_of(n) != "host"
            )
            for shard in range(part.shard_count)
        ]
        assert sum(sizes) == 20
        assert max(sizes) - min(sizes) <= 4

    def test_hosts_follow_their_edge_switch(self):
        topo = fat_tree(4)
        part = partition_topology(topo, 4)
        for name in topo.node_names:
            if topo.kind_of(name) == "host":
                edge = name.split("-")[1]
                assert part.owner[name] == part.owner[edge]

    def test_shards_capped_at_group_count(self):
        part = partition_topology(fat_tree(4), 10)
        assert part.shard_count <= 5  # 4 pods + the core block

    def test_explicit_pods_override(self):
        topo = linear_topology(4)  # alone it chunks s1 s2 | s3 s4
        pods = {"s1": "g0", "s3": "g0", "s2": "g1", "s4": "g1"}
        part = partition_topology(topo, 2, pods=pods)
        assert part.owner["s1"] == part.owner["s3"]
        assert part.owner["s2"] == part.owner["s4"]
        assert part.owner["s1"] != part.owner["s2"]

    def test_legacy_chunking_preserved_without_pods(self):
        topo = linear_topology(6)
        part = partition_topology(topo, 2)
        anchors = sorted(
            n for n in topo.node_names if topo.kind_of(n) != "host"
        )
        # Plain contiguous divmod split: 3 + 3 over six switches.
        assert [part.owner[n] for n in anchors] == [0, 0, 0, 1, 1, 1]
