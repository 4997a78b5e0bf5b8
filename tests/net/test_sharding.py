"""Unit tests for the sharded simulation core.

Covers the partitioner (balanced contiguous anchor chunks, host
adoption, lookahead derivation), the
windowed shard engine with its ownership gates and lookahead guard,
``SimStats.merge`` algebra, and the canonical audit-journal merge.
The end-to-end byte-identity contract lives in
``tests/core/test_sharded_determinism.py``.
"""

import multiprocessing
import os
import random

import pytest

from repro.net.headers import EthernetHeader, ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.sharding import (
    KIND_CONTROL,
    Partition,
    ShardSimulator,
    partition_topology,
)
from repro.net.shardrun import ScenarioSpec, run_sharded
from repro.net.simulator import Node, SimStats, Simulator
from repro.net.topology import Topology, fat_tree
from repro.telemetry.audit import merge_audit_events
from repro.util.errors import NetworkError


def chain(n=4, latency_s=1e-6):
    """n switches in a line, one host on each end."""
    topo = Topology()
    for i in range(n):
        topo.add_node(f"s{i}")
    topo.add_node("h-a", kind="host")
    topo.add_node("h-b", kind="host")
    for i in range(n - 1):
        topo.add_link(f"s{i}", 2, f"s{i+1}", 1, latency_s=latency_s)
    topo.add_link("h-a", 1, "s0", 1, latency_s=latency_s)
    topo.add_link(f"s{n-1}", 3, "h-b", 1, latency_s=latency_s)
    return topo


class TestPartitionTopology:
    def test_balanced_contiguous_split(self):
        part = partition_topology(chain(4), shards=2)
        assert part.shard_count == 2
        assert part.owner == {
            "h-a": 0, "s0": 0, "s1": 0, "h-b": 1, "s2": 1, "s3": 1,
        }

    def test_uneven_split_front_loads_remainder(self):
        part = partition_topology(chain(5), shards=2)
        # 5 anchors over 2 shards: 3 + 2.
        assert sorted(
            n for n, shard in part.owner.items() if shard == 0 and n.startswith("s")
        ) == ["s0", "s1", "s2"]

    def test_hosts_adopt_their_switch_shard(self):
        part = partition_topology(chain(4), shards=4)
        assert part.owner["h-a"] == part.owner["s0"]
        assert part.owner["h-b"] == part.owner["s3"]

    def test_effective_count_capped_at_anchor_count(self):
        part = partition_topology(chain(2), shards=8)
        assert part.shard_count == 2

    def test_lookahead_is_min_cut_latency(self):
        part = partition_topology(chain(4, latency_s=3e-6), shards=2)
        # control_latency_s default (50e-6) exceeds the 3µs cut link.
        assert part.lookahead_s == pytest.approx(3e-6)
        assert len(part.cut_links) == 1

    def test_lookahead_capped_by_control_latency(self):
        part = partition_topology(
            chain(4, latency_s=3e-6), shards=2, control_latency_s=1e-6
        )
        assert part.lookahead_s == pytest.approx(1e-6)

    def test_single_shard_has_infinite_lookahead(self):
        part = partition_topology(chain(4), shards=1)
        assert part.lookahead_s == float("inf")
        assert part.cut_links == ()

    def test_zero_latency_cut_rejected(self):
        topo = Topology()
        topo.add_node("s0")
        topo.add_node("s1")
        topo.add_link("s0", 1, "s1", 1, latency_s=0.0)
        with pytest.raises(NetworkError, match="lookahead"):
            partition_topology(topo, shards=2)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(NetworkError):
            partition_topology(chain(2), shards=0)

    def test_partition_is_deterministic(self):
        a = partition_topology(fat_tree(4), shards=4)
        b = partition_topology(fat_tree(4), shards=4)
        assert a.owner == b.owner
        assert a.lookahead_s == b.lookahead_s


def make_packet():
    return Packet(eth=EthernetHeader(dst=2, src=1))


def two_host_spec(s2=None, drain=None):
    """h-a on shard 0 sends one packet to h-b on shard 1. ``s2`` swaps
    the behaviour of that shard-1 switch, ``drain`` is the scenario's
    drain hook (``ctx["send"]`` sends the packet again)."""
    def build(sim):
        a = Host("h-a", mac=1, ip=ip_to_int("10.0.0.1"))
        b = Host("h-b", mac=2, ip=ip_to_int("10.0.1.1"))
        sim.bind(a)
        sim.bind(b)
        for name in ("s0", "s1", "s3"):
            sim.bind(_ForwardRight(name))
        sim.bind((s2 or _ForwardRight)("s2"))

        def send():
            a.send_udp(
                dst_mac=2, dst_ip=b.ip, src_port=1, dst_port=2, payload=b"x",
            )

        sim.schedule_on("h-a", 0.0, send)
        return {"a": a, "b": b, "send": send}

    def harvest(sim, ctx):
        return {
            "delivered": len(ctx["b"].received) if sim.owns("h-b") else 0,
        }

    return ScenarioSpec(
        topology=lambda: chain(4), build=build, harvest=harvest, drain=drain
    )


class _ForwardRight(Node):
    """Minimal switch behaviour: everything goes out the next port."""

    def handle_packet(self, packet, in_port):
        out = 3 if self.name == "s3" else 2
        self.sim.transmit(self.name, out, packet)


class TestWindowedEngine:
    def test_cross_shard_delivery(self):
        result = run_sharded(two_host_spec(), shards=2)
        assert sum(out["delivered"] for out in result.outputs) == 1
        assert result.windows > 1

    def test_events_match_monolith(self):
        mono = run_sharded(two_host_spec(), shards=1)
        duo = run_sharded(two_host_spec(), shards=2)
        assert duo.stats.as_dict() == mono.stats.as_dict()
        assert mono.windows == 1  # infinite lookahead: one window

    def test_shard_busy_time_recorded(self):
        result = run_sharded(two_host_spec(), shards=2)
        assert len(result.shard_busy_s) == 2
        assert result.critical_path_s == max(result.shard_busy_s)

    def test_injected_entry_fires_at_its_exact_arrival_time(self):
        # 0.2 + (0.9 - 0.2) == 0.8999999999999999: re-deriving the
        # arrival from a delay drifts one ulp off the time the sending
        # shard computed (and the one-shard run uses).
        now, arrival = 0.2, 0.9
        assert now + (arrival - now) != arrival
        part = partition_topology(chain(4), shards=2)
        sim = ShardSimulator(chain(4), part, shard_id=1)
        seen = []

        class Recorder(Node):
            def handle_control(self, sender, message):
                seen.append((sender, message, self.sim.clock.now))

        sim.bind(Recorder("s3"))
        sim.clock.advance_to(now)
        sim.inject([(arrival, KIND_CONTROL, "s0", "s3", "hello", None)])
        assert sim.next_event_time() == arrival
        assert sim.run_window(1.0) == 1
        assert seen == [("s0", "hello", arrival)]

    def test_inject_orders_entries_canonically(self):
        # Buckets arrive in any source-shard order. Same-time deliveries
        # with different keys fire in (kind, a, b) key order; same-key
        # entries all come from one sending node, in the order it posted
        # them, and fire in that order.
        part = partition_topology(chain(4), shards=2)
        from_s0 = [
            (0.5, KIND_CONTROL, "s0", "s3", "s0-first", None),
            (0.5, KIND_CONTROL, "s0", "s3", "s0-second", None),
        ]
        from_s1 = [
            (0.25, KIND_CONTROL, "s1", "s3", "early", None),
            (0.5, KIND_CONTROL, "s1", "s3", "from-s1", None),
        ]
        for buckets in ((from_s0, from_s1), (from_s1, from_s0)):
            sim = ShardSimulator(chain(4), part, shard_id=1)
            seen = []

            class Recorder(Node):
                def handle_control(self, sender, message):
                    seen.append(message)

            sim.bind(Recorder("s3"))
            sim.inject([entry for bucket in buckets for entry in bucket])
            sim.run_window(1.0)
            assert seen == ["early", "s0-first", "s0-second", "from-s1"]

    def test_outbox_is_bucketed_by_destination_with_earliest_arrival(self):
        part = partition_topology(chain(4), shards=4)
        sim = ShardSimulator(chain(4), part, shard_id=0)
        sim._schedule_control_delivery("s0", "s2", "later", None)
        sim._schedule_packet_delivery("s1", 1, make_packet(), delay=1e-6)
        sim._schedule_control_delivery("s0", "s2", "again", None)
        outbox = sim.take_outbox()
        assert sorted(outbox) == [part.owner["s1"], part.owner["s2"]]
        earliest, entries = outbox[part.owner["s2"]]
        assert [entry[4] for entry in entries] == ["later", "again"]
        assert earliest == sim.control_latency_s
        assert outbox[part.owner["s1"]][0] == 1e-6
        assert sim.take_outbox() == {}

    def test_lookahead_violation_raises(self):
        part = partition_topology(chain(4), shards=2)
        sim = ShardSimulator(chain(4), part, shard_id=0)
        sim._window_end = 1.0  # open window [0, 1)
        with pytest.raises(NetworkError, match="lookahead violation"):
            sim._schedule_packet_delivery("s2", 1, make_packet(), delay=0.1)

    def test_direct_run_is_refused_at_any_shard_count(self):
        # The runner owns the window/barrier protocol; even a 1-shard
        # partition runs under run_sharded, never by draining itself.
        part = partition_topology(chain(4), shards=1)
        sim = ShardSimulator(chain(4), part, shard_id=0)
        with pytest.raises(NetworkError, match="run_sharded"):
            sim.run()

    def test_bad_shard_id_rejected(self):
        part = partition_topology(chain(4), shards=2)
        with pytest.raises(NetworkError):
            ShardSimulator(chain(4), part, shard_id=2)


class _Crash(Node):
    """A behaviour that fails on its first packet: raises ``crash``
    when it is an exception, else kills its process without a word."""

    def __init__(self, name, crash):
        super().__init__(name)
        self.crash = crash

    def handle_packet(self, packet, in_port):
        if isinstance(self.crash, Exception):
            raise self.crash
        os._exit(self.crash)


def _resend_once_after(delay_s):
    """A drain hook whose first round schedules the packet again."""
    def drain(sim, ctx):
        if "resent" not in ctx:
            ctx["resent"] = True
            sim.schedule_on("h-a", delay_s, ctx["send"])
    return drain


MP = pytest.param(
    "mp",
    marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the mp backend forks its workers",
    ),
)
BOTH_BACKENDS = ["inline", MP]


class TestBarrierProtocolSafetyPaths:
    """The runner's failure and cut-off paths, once for both ports at
    two shards."""

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_behaviour_raising_mid_window_surfaces(self, backend):
        spec = two_host_spec(
            s2=lambda name: _Crash(name, RuntimeError("s2 blew up"))
        )
        expected = (
            pytest.raises(RuntimeError, match="s2 blew up")
            if backend == "inline"
            else pytest.raises(
                NetworkError, match=r"shard worker failed:[\s\S]*s2 blew up"
            )
        )
        with expected:
            run_sharded(spec, shards=2, backend=backend)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", [MP])
    def test_worker_dying_silently_is_reported(self, backend):
        spec = two_host_spec(s2=lambda name: _Crash(name, 3))
        with pytest.raises(NetworkError, match="died without reporting"):
            run_sharded(spec, shards=2, backend=backend)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_drain_hook_that_never_settles_trips_the_guard(self, backend):
        spec = two_host_spec(
            drain=lambda sim, ctx: sim.schedule(1e-6, lambda: None)
        )
        with pytest.raises(NetworkError, match="kept scheduling work after 64"):
            run_sharded(spec, shards=2, backend=backend)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_until_between_drain_rounds_cuts_both_backends_alike(self, backend):
        # The first drain round schedules a second packet one second
        # out; until=0.5 lands between that round and the next.
        resending = two_host_spec(drain=_resend_once_after(1.0))
        one_packet = run_sharded(two_host_spec(), shards=1)
        both_packets = run_sharded(resending, shards=1)
        assert both_packets.stats.events_processed == (
            2 * one_packet.stats.events_processed
        )
        cut = run_sharded(resending, shards=2, backend=backend, until=0.5)
        assert cut.stats.as_dict() == one_packet.stats.as_dict()
        uncut = run_sharded(resending, shards=2, backend=backend)
        assert uncut.stats.as_dict() == both_packets.stats.as_dict()


class TestOwnershipGates:
    def make(self, shard_id=0):
        topo = chain(4)
        part = partition_topology(topo, shards=2)
        return ShardSimulator(topo, part, shard_id=shard_id)

    def test_owns(self):
        sim = self.make(0)
        assert sim.owns("s0") and sim.owns("h-a")
        assert not sim.owns("s3") and not sim.owns("h-b")

    def test_foreign_bind_is_replica(self):
        sim = self.make(0)
        b = Host("h-b", mac=2, ip=ip_to_int("10.0.1.1"))
        sim.bind(b)
        # Resolvable (controllers need the full world) but not owned.
        assert sim.node("h-b") is b
        assert "h-b" in sim.bound_nodes
        assert not sim.owns("h-b")

    def test_foreign_transmit_is_gated(self):
        sim = self.make(0)
        sim.bind(_ForwardRight("s3"))
        assert sim.transmit("s3", 2, make_packet()) is True
        assert sim.stats.packets_transmitted == 0

    def test_foreign_control_send_is_gated(self):
        sim = self.make(0)
        assert sim.send_control("s3", "s0", {"m": 1}) is True
        assert sim.stats.control_messages == 0

    def test_schedule_on_foreign_node_is_noop(self):
        sim = self.make(0)
        fired = []
        sim.schedule_on("s3", 0.0, lambda: fired.append(1))
        sim.schedule_on("s0", 0.0, lambda: fired.append(2))
        sim.run_window(1.0)
        assert fired == [2]

    def test_schedule_replicated_fires_everywhere(self):
        fired = []
        for shard_id in (0, 1):
            sim = self.make(shard_id)
            sim.schedule_replicated("h-a", 0.0, lambda s=shard_id: fired.append(s))
            sim.run_window(1.0)
        assert fired == [0, 1]

    def test_double_bind_rejected(self):
        sim = self.make(0)
        sim.bind(Host("h-b", mac=2, ip=ip_to_int("10.0.1.1")))
        with pytest.raises(NetworkError):
            sim.bind(Host("h-b", mac=2, ip=ip_to_int("10.0.1.1")))

    def test_monolith_simulator_gate_compat(self):
        # The shared scenario builds rely on the monolith answering
        # the same protocol: owns() is always true, schedule_on /
        # schedule_replicated degrade to plain schedule.
        sim = Simulator(chain(4))
        assert sim.owns("s3")
        fired = []
        sim.schedule_on("s3", 0.0, lambda: fired.append(1))
        sim.schedule_replicated("h-a", 0.0, lambda: fired.append(2))
        sim.run()
        assert sorted(fired) == [1, 2]


class TestSimStatsMerge:
    def random_stats(self, rng):
        from dataclasses import fields
        return SimStats(**{f.name: rng.randrange(1000) for f in fields(SimStats)})

    def test_merge_round_trip_property(self):
        """Splitting counts across shards and merging in any grouping
        reproduces the monolith totals — 50 random trials."""
        from dataclasses import fields
        rng = random.Random(1234)
        for _ in range(50):
            parts = [self.random_stats(rng) for _ in range(rng.randrange(2, 6))]
            expected = {
                f.name: sum(getattr(p, f.name) for p in parts)
                for f in fields(SimStats)
            }
            # Left fold.
            folded = parts[0]
            for p in parts[1:]:
                folded = folded.merge(p)
            assert folded.as_dict() == expected
            # Random grouping (tree fold over a shuffled order).
            shuffled = parts[:]
            rng.shuffle(shuffled)
            while len(shuffled) > 1:
                i = rng.randrange(len(shuffled) - 1)
                shuffled[i : i + 2] = [shuffled[i].merge(shuffled[i + 1])]
            assert shuffled[0].as_dict() == expected

    def test_merge_identity(self):
        stats = SimStats(packets_transmitted=7, events_processed=3)
        merged = stats.merge(SimStats())
        assert merged.as_dict() == stats.as_dict()

    def test_merge_does_not_mutate(self):
        a = SimStats(packets_transmitted=1)
        b = SimStats(packets_transmitted=2)
        a.merge(b)
        assert a.packets_transmitted == 1
        assert b.packets_transmitted == 2


def _event(time_s, actor, seq, trace=None, kind="k"):
    return {
        "seq": seq,
        "time_s": time_s,
        "kind": kind,
        "actor": actor,
        "trace": trace,
        "hop": None,
        "digest": None,
        "detail": {},
    }


class TestAuditMerge:
    def test_orders_by_time_then_trace_then_actor(self):
        merged = merge_audit_events([
            [_event(2.0, "b", 1), _event(1.0, "b", 2, trace="t2")],
            [_event(1.0, "a", 1, trace="t1")],
        ])
        assert [(e["time_s"], e["actor"]) for e in merged] == [
            (1.0, "a"), (1.0, "b"), (2.0, "b"),
        ]
        assert [e["seq"] for e in merged] == [1, 2, 3]

    def test_per_actor_order_preserved(self):
        # One actor's events keep their journal (causal) order even
        # when timestamps tie.
        merged = merge_audit_events([
            [_event(1.0, "a", 1, kind="first"), _event(1.0, "a", 2, kind="second")],
        ])
        assert [e["kind"] for e in merged] == ["first", "second"]

    def test_partition_invariance(self):
        """The merged journal is identical no matter how actors are
        distributed over shards."""
        a = [_event(1.0, "a", 1), _event(1.5, "a", 2)]
        b = [_event(1.0, "b", 1), _event(2.0, "b", 2)]
        one_shard = merge_audit_events([
            sorted(a + b, key=lambda e: (e["time_s"], e["actor"]))
        ])
        # Renumber the single-journal seqs the way one shard would
        # have assigned them.
        for seq, event in enumerate(one_shard, start=1):
            event["seq"] = seq
        two_shards = merge_audit_events([a, b])
        assert one_shard == two_shards
