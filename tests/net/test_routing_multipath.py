"""Multipath routing: tie-breaks, flow hashing, ECMP and flowlets."""

import pytest

from repro.net.routing import (
    EcmpSelector,
    FlowletTable,
    all_pairs_next_hops,
    predict_multipath_path,
    shortest_path,
    stable_flow_hash,
)
from repro.net.topology import Topology, fat_tree
from repro.util.errors import NetworkError


def diamond(latencies):
    """s -> {a, b} -> d with per-edge latencies (sa, ad, sb, bd)."""
    sa, ad, sb, bd = latencies
    topo = Topology()
    for name in ("s", "a", "b", "d"):
        topo.add_node(name)
    topo.add_link("s", 1, "b", 1, latency_s=sb)
    topo.add_link("s", 2, "a", 1, latency_s=sa)
    topo.add_link("b", 2, "d", 1, latency_s=bd)
    topo.add_link("a", 2, "d", 2, latency_s=ad)
    return topo


class TestShortestPathTieBreak:
    def test_equal_cost_tie_breaks_lexicographically(self):
        # Both paths cost 4us, but the path through "b" reaches "d"
        # first (b is only 1us out). Only the <=-re-push lets the
        # later, lexicographically smaller path through "a" compete —
        # a strict < would silently return s-b-d.
        topo = diamond((2e-6, 2e-6, 1e-6, 3e-6))
        assert shortest_path(topo, "s", "d") == ["s", "a", "d"]

    def test_tie_break_is_on_path_not_port_order(self):
        # Mirror case: the cheaper first hop goes through "a" already;
        # the tie-break must not flip the answer.
        topo = diamond((1e-6, 3e-6, 2e-6, 2e-6))
        assert shortest_path(topo, "s", "d") == ["s", "a", "d"]

    def test_strictly_cheaper_path_beats_lexicographic_order(self):
        topo = diamond((2e-6, 3e-6, 1e-6, 1e-6))
        assert shortest_path(topo, "s", "d") == ["s", "b", "d"]


class TestStableFlowHash:
    def test_deterministic_across_calls(self):
        key = ("10.0.0.1", "10.0.0.2", 17, 1234, 4433)
        assert stable_flow_hash(7, *key) == stable_flow_hash(7, *key)

    def test_seed_changes_hash(self):
        key = ("10.0.0.1", "10.0.0.2", 17, 1234, 4433)
        assert stable_flow_hash(1, *key) != stable_flow_hash(2, *key)

    def test_field_boundaries_matter(self):
        assert stable_flow_hash(0, "ab", "c") != stable_flow_hash(0, "a", "bc")

    def test_known_value_is_pinned(self):
        # Process-stability is the whole point: pin one value so an
        # accidental switch to randomized hash() fails loudly.
        assert stable_flow_hash(0) == 0xCBF29CE484222325
        assert stable_flow_hash(7, "a") == 0x08986907B541EE72


class TestEcmpSelector:
    def test_same_seed_same_pick(self):
        members = (2, 3, 5, 7)
        a, b = EcmpSelector(42), EcmpSelector(42)
        for i in range(100):
            key = ("10.0.0.1", f"10.0.1.{i}", 17, 1000 + i, 9000)
            assert a.pick(members, key) == b.pick(members, key)

    def test_different_seeds_disagree_somewhere(self):
        members = (1, 2, 3, 4)
        a, b = EcmpSelector(1), EcmpSelector(2)
        keys = [("h", f"d{i}", 17, i, 80) for i in range(50)]
        assert any(a.pick(members, k) != b.pick(members, k) for k in keys)

    def test_spread_covers_all_members(self):
        members = (1, 2, 3, 4)
        selector = EcmpSelector(9)
        counts = {m: 0 for m in members}
        for i in range(4000):
            key = (f"10.0.{i % 16}.1", f"10.1.{i}.2", 17, i, 443)
            counts[selector.pick(members, key)] += 1
        mean = 4000 / len(members)
        # FNV over distinct keys should land well within 20% of even.
        assert all(abs(c - mean) / mean < 0.2 for c in counts.values())

    def test_empty_members_rejected(self):
        with pytest.raises(NetworkError):
            EcmpSelector(0).pick((), ("a", "b"))


class TestFlowletTable:
    KEY = ("10.0.0.1", "10.0.0.2", 17, 1000, 2000)
    MEMBERS = (1, 2, 3, 4, 5, 6, 7, 8)

    def test_pinned_within_gap(self):
        table = FlowletTable(seed=3, idle_gap_s=50e-6)
        first = table.pick(self.MEMBERS, self.KEY, 0.0)
        for i in range(1, 20):
            assert table.pick(self.MEMBERS, self.KEY, i * 10e-6) == first
        assert table.repicks == 0
        assert table.serial_of(self.KEY) == 0

    def test_repick_only_after_idle_gap(self):
        table = FlowletTable(seed=3, idle_gap_s=50e-6)
        table.pick(self.MEMBERS, self.KEY, 0.0)
        table.pick(self.MEMBERS, self.KEY, 50e-6)  # exactly at gap: no
        assert table.repicks == 0
        table.pick(self.MEMBERS, self.KEY, 101e-6)  # > gap since last
        assert table.repicks == 1
        assert table.serial_of(self.KEY) == 1

    def test_gap_rotation_changes_member_eventually(self):
        table = FlowletTable(seed=5, idle_gap_s=10e-6)
        seen = set()
        now = 0.0
        for _ in range(16):
            seen.add(table.pick(self.MEMBERS, self.KEY, now))
            now += 20e-6  # every packet opens a new flowlet
        assert len(seen) > 1

    def test_packet_budget_rotates(self):
        table = FlowletTable(seed=1, idle_gap_s=1.0, flowlet_n_packets=4)
        for i in range(12):
            table.pick(self.MEMBERS, self.KEY, i * 1e-6)
        assert table.repicks == 2  # after packets 4 and 8
        assert table.serial_of(self.KEY) == 2

    def test_same_seed_replays_identically(self):
        args = dict(seed=11, idle_gap_s=20e-6, flowlet_n_packets=3)
        a, b = FlowletTable(**args), FlowletTable(**args)
        times = [0.0, 5e-6, 40e-6, 41e-6, 42e-6, 43e-6, 90e-6]
        picks_a = [a.pick(self.MEMBERS, self.KEY, t) for t in times]
        picks_b = [b.pick(self.MEMBERS, self.KEY, t) for t in times]
        assert picks_a == picks_b
        assert a.repicks == b.repicks

    def test_invalid_parameters(self):
        with pytest.raises(NetworkError):
            FlowletTable(seed=0, idle_gap_s=0.0)
        with pytest.raises(NetworkError):
            FlowletTable(seed=0, flowlet_n_packets=-1)
        with pytest.raises(NetworkError):
            FlowletTable(seed=0).pick((), self.KEY, 0.0)

    def test_congestion_signal_forces_boundary(self):
        table = FlowletTable(seed=3, idle_gap_s=50e-6)
        table.pick(self.MEMBERS, self.KEY, 0.0)
        # Well within the gap, but the packet carries a congestion
        # signal: the flowlet ends early and the serial bumps.
        table.pick(self.MEMBERS, self.KEY, 10e-6, congested=True)
        assert table.repicks == 1
        assert table.congestion_repicks == 1
        assert table.serial_of(self.KEY) == 1

    def test_congestion_repick_cooldown(self):
        table = FlowletTable(seed=3, idle_gap_s=50e-6)
        table.pick(self.MEMBERS, self.KEY, 0.0)
        for i in range(1, 10):
            table.pick(
                self.MEMBERS, self.KEY, i * 1e-6, congested=True
            )
        # A whole marked burst within one idle gap re-picks once, not
        # once per packet — the cooldown stops path thrashing.
        assert table.congestion_repicks == 1
        table.pick(self.MEMBERS, self.KEY, 100e-6, congested=True)
        assert table.congestion_repicks <= 2

    def test_congestion_never_changes_member_hash(self):
        """The signal only changes *when* the serial bumps, never how
        the member is chosen — the determinism pin."""
        a = FlowletTable(seed=11, idle_gap_s=50e-6)
        b = FlowletTable(seed=11, idle_gap_s=50e-6)
        a.pick(self.MEMBERS, self.KEY, 0.0)
        b.pick(self.MEMBERS, self.KEY, 0.0)
        congested = a.pick(self.MEMBERS, self.KEY, 10e-6, congested=True)
        idle = b.pick(self.MEMBERS, self.KEY, 70e-6)  # idle-gap repick
        # Both tables sit at serial 1 for this flow; the pick is a pure
        # function of (seed, flow key, serial), so they agree exactly.
        assert a.serial_of(self.KEY) == b.serial_of(self.KEY) == 1
        assert congested == idle

    def test_congested_replay_is_deterministic(self):
        args = dict(seed=7, idle_gap_s=20e-6)
        a, b = FlowletTable(**args), FlowletTable(**args)
        schedule = [
            (0.0, False), (5e-6, True), (6e-6, True),
            (30e-6, False), (31e-6, True), (80e-6, False),
        ]
        picks_a = [
            a.pick(self.MEMBERS, self.KEY, t, congested=c)
            for t, c in schedule
        ]
        picks_b = [
            b.pick(self.MEMBERS, self.KEY, t, congested=c)
            for t, c in schedule
        ]
        assert picks_a == picks_b
        assert (a.repicks, a.congestion_repicks) == (
            b.repicks, b.congestion_repicks
        )


class TestAllPairsNextHops:
    def test_fat_tree_equal_cost_uplinks(self):
        topo = fat_tree(4)
        table = all_pairs_next_hops(topo)
        # Cross-pod: both aggregation uplinks tie; ports come back sorted.
        assert table[("p00e00", "h-p01e00-0")] == (3, 4)
        # Local host: single access port.
        assert table[("p00e00", "h-p00e00-0")] == (1,)
        # A core sees each pod's host on exactly one downlink.
        assert table[("zcore00", "h-p01e00-0")] == (2,)

    def test_destinations_subset(self):
        topo = fat_tree(4)
        table = all_pairs_next_hops(topo, destinations=["h-p00e00-0"])
        assert all(dst == "h-p00e00-0" for _, dst in table)

    def test_unknown_destination_rejected(self):
        topo = fat_tree(4)
        with pytest.raises(NetworkError):
            all_pairs_next_hops(topo, destinations=["nope"])


class TestPredictMultipathPath:
    def test_walk_matches_selector_choices(self):
        topo = fat_tree(4)
        table = all_pairs_next_hops(topo)
        selectors = {}

        def selector_for(node):
            return selectors.setdefault(node, EcmpSelector(1234))

        key = ("10.0.0.1", "10.0.2.1", 17, 5555, 80)
        path = predict_multipath_path(
            topo, table, "h-p00e00-0", "h-p02e00-0", key, selector_for
        )
        assert path[0] == "h-p00e00-0" and path[-1] == "h-p02e00-0"
        assert len(path) == 7  # host, edge, agg, core, agg, edge, host
        # Re-walk: stateless selection is reproducible.
        again = predict_multipath_path(
            topo, table, "h-p00e00-0", "h-p02e00-0", key, selector_for
        )
        assert again == path
        # The agg actually chosen is the one the edge's selector picks.
        members = table[("p00e00", "h-p02e00-0")]
        port = selector_for("p00e00").pick(members, key)
        assert topo.neighbor("p00e00", port)[0] == path[2]

    def test_no_next_hop_raises(self):
        topo = Topology()
        topo.add_node("x")
        topo.add_node("y")
        topo.add_link("x", 1, "y", 1)
        with pytest.raises(NetworkError):
            predict_multipath_path(
                topo, {}, "x", "y", ("k",), lambda n: EcmpSelector(0)
            )
