"""A stateful model of one node's egress queues and their PFC watermarks.

Hypothesis builds a switch ``s`` with one to three queued ports (each
with its own capacities, ECN mark and PFC thresholds, some without
PFC) and then drives, in any interleaving: offers of packets onto any
port, serialization completions, and pause / resume
frames arriving from downstream. Nothing else runs — the simulator's
clock never moves, so the model alone decides when a port frees up.

After every step the engine must agree with a ten-line reference — a
FIFO of wire lengths, a busy and a paused flag per port, and one
pause-outstanding flag per PFC port — on every queue's depth, the
node's aggregate depth, which pauses are outstanding (the hysteresis
is re-evaluated after every single depth change), tail drops (only at
capacity), ECN marks and pause frames sent.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.net.packet import Packet
from repro.net.qdisc import QueueConfig
from repro.net.simulator import Simulator
from repro.net.topology import Topology

#: Ethernet + IPv4 + UDP headers: a packet's wire length over its payload.
HEADERS = 42
#: Wire lengths and thresholds are drawn on one 64-byte grid, so depths
#: land exactly on every threshold and each ``>`` / ``<=`` is exercised.
GRID = 64


def grid(low, high):
    return st.integers(low, high).map(lambda n: n * GRID)


@st.composite
def queue_configs(draw):
    pause = draw(st.none() | grid(1, 18))
    resume = None if pause is None else draw(st.none() | grid(1, pause // GRID))
    return QueueConfig(
        capacity_bytes=draw(grid(3, 24)),
        capacity_packets=draw(st.integers(1, 6)),
        ecn_threshold_bytes=draw(st.none() | grid(1, 12)),
        pause_threshold_bytes=pause,
        resume_threshold_bytes=resume,
    )


class Reference:
    """Per port: FIFO of wire lengths, busy, paused; per PFC port: sent."""

    def __init__(self, configs):
        self.configs = configs
        self.fifo = {port: [] for port in configs}
        self.busy = {port: False for port in configs}
        self.paused = {port: False for port in configs}
        self.sent = {p: False for p, c in configs.items() if c.pause_threshold_bytes}
        self.drops = self.marks = self.pauses = 0

    def depth(self):
        return sum(sum(fifo) for fifo in self.fifo.values())

    def watermarks(self):
        for port in sorted(self.sent):
            config, depth = self.configs[port], self.depth()
            if not self.sent[port] and depth > config.pause_threshold_bytes:
                self.sent[port] = True
                self.pauses += 1
            elif self.sent[port] and depth <= config.resume_below_bytes:
                self.sent[port] = False

    def serve(self, port):
        if self.fifo[port] and not self.busy[port] and not self.paused[port]:
            self.fifo[port].pop(0)
            self.watermarks()
            self.busy[port] = True

    def offer(self, port, wire):
        config, fifo = self.configs[port], self.fifo[port]
        if len(fifo) + 1 > config.capacity_packets or sum(fifo) + wire > config.capacity_bytes:
            self.drops += 1
            return
        if config.ecn_threshold_bytes is not None and sum(fifo) >= config.ecn_threshold_bytes:
            self.marks += 1
        fifo.append(wire)
        self.watermarks()
        self.serve(port)


class EgressQueueMachine(RuleBasedStateMachine):
    @initialize(configs=st.lists(queue_configs(), min_size=1, max_size=3))
    def build(self, configs):
        topo = Topology()
        topo.add_node("s")
        for port, config in enumerate(configs, start=1):
            topo.add_node(f"u{port}", kind="host")
            topo.add_link("s", port, f"u{port}", 1, queue=config)
        self.sim = Simulator(topo)
        self.ports = list(range(1, len(configs) + 1))
        self.ref = Reference(dict(zip(self.ports, configs)))
        self.sent = 0

    def engine(self):
        return self.sim._qdisc()

    def queue(self, port):
        return self.engine().queues.get(("s", port))

    @rule(data=st.data(), wire=grid(1, 6))
    def offer(self, data, wire):
        port = data.draw(st.sampled_from(self.ports))
        self.sent += 1
        packet = Packet.udp_packet(
            1, 2, 0x0A000001, 0x0A000002, self.sent % 65536, 9,
            payload=bytes(wire - HEADERS),
        )
        self.sim.transmit("s", port, packet)
        self.ref.offer(port, wire)

    @rule(data=st.data())
    def complete(self, data):
        port = data.draw(st.sampled_from(self.ports))
        queue = self.queue(port)
        if queue is None or not queue.busy:
            return
        self.engine()._complete(queue)
        self.ref.busy[port] = False
        self.ref.serve(port)

    @rule(data=st.data(), paused=st.booleans())
    def pause_frame(self, data, paused):
        port = data.draw(st.sampled_from(self.ports))
        self.engine().on_pause("s", port, paused)
        self.ref.paused[port] = paused
        if not paused:
            self.ref.serve(port)

    @precondition(lambda self: hasattr(self, "ref"))
    @invariant()
    def agrees_with_reference(self):
        ref, engine = self.ref, self.engine()
        for port in self.ports:
            queue = self.queue(port)
            fifo = [] if queue is None else [p.wire_length for p, _ in queue.fifo]
            assert fifo == ref.fifo[port]
            if queue is not None:
                assert queue.depth_bytes == sum(fifo)
                assert queue.depth_packets == len(fifo)
                assert (queue.busy, queue.paused) == (ref.busy[port], ref.paused[port])
        assert engine.node_depth.get("s", 0) == ref.depth()
        watermarks = engine._watermarks.get("s")
        sent = set() if watermarks is None else watermarks.sent
        assert sent == {port for port, flag in ref.sent.items() if flag}
        stats = self.sim.stats
        assert (stats.queue_drops, stats.ecn_marked, stats.pause_frames) == (
            ref.drops, ref.marks, ref.pauses,
        )
        assert stats.packets_dropped == ref.drops


TestEgressQueueModel = EgressQueueMachine.TestCase
TestEgressQueueModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
