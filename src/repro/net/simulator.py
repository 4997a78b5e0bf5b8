"""A deterministic discrete-event network simulator.

Nodes implement :class:`Node`; the simulator owns the clock and the
event queue. Packet hand-off between nodes goes through
:meth:`Simulator.transmit`, which applies link latency and
serialization delay. Determinism: same-time events break ties on a
canonical key, then on a monotonically increasing sequence number,
never on object identity.

The simulator also offers an out-of-band *control channel*
(:meth:`send_control`) used for evidence sent "directly to the
appraiser" (paper Fig. 2, out-of-band variant) — modelled as a
message with its own latency, not as dataplane packets, matching the
common deployment where the control network is separate. Control
deliveries to absent nodes are *counted* (``SimStats.control_dropped``)
symmetrically with dataplane drops, never silently lost and never a
crash — an unobservable control plane is exactly what the paper
argues against.

Observability: each network count is kept once, on the record the
engine resolves for the event (:meth:`Simulator.counter_tallies`).
:attr:`Simulator.stats` sums them; the flight recorder reads them at
each tick, and the end of every :meth:`run` writes them into the
:class:`~repro.telemetry.instrument.Telemetry` domain (inert unless
enabled). Audit events are pushed as they happen: the journal is the
one record of what a run did; the simulator keeps no private trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.qdisc import QdiscEngine
from repro.net.topology import Topology
from repro.telemetry.audit import AuditKind
from repro.telemetry.instrument import (
    NULL_TELEMETRY,
    Telemetry,
    collect_simulator,
)
from repro.telemetry.metrics import LabelItems
from repro.telemetry.tracing import TraceContext
from repro.util.clock import SimClock
from repro.util.errors import NetworkError
from repro.util.ids import spawn_seed

#: Delivery kinds (they sort lexicographically: control before packets
#: before pause frames on same-time ties).
KIND_CONTROL = "ctl"
KIND_PACKET = "pkt"
KIND_PAUSE = "pse"

#: Heap key of every event that is not a delivery. Delivery keys are
#: ``(0, kind, a, b)``, so at one instant the deliveries run first, in
#: canonical order, then the other events in scheduling order.
_LOCAL: Tuple[int] = (1,)


class Node:
    """Behaviour attached to a topology node.

    Subclasses override :meth:`handle_packet` (dataplane) and
    :meth:`handle_control` (out-of-band channel).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None  # bound by Simulator.bind

    def on_bind(self, sim: "Simulator") -> None:
        """Hook called when the node is attached to a simulator."""

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        """Receive a dataplane packet on ``in_port``. Default: drop."""

    def handle_control(self, sender: str, message: Any) -> None:
        """Receive an out-of-band control message. Default: drop."""


# Events live on the heap as bare (time, key, seq, action) tuples: seq
# is unique, so comparisons resolve before reaching the (incomparable)
# action, and tuple ordering is several times cheaper than a dataclass
# __lt__ on the ~1 heap op per simulated event the run loop performs.
#
# ``key`` orders same-time events. A delivery's key is ``(0, kind, a,
# b)``: ``(a, b)`` is the directed endpoint it arrives over (link end,
# or control sender/recipient), which only one node ever sends to, so
# ``seq`` breaks the remaining ties in that sender's causal order. This is the
# ``(arrival, kind, a, b, index)`` order a sharded run gives deliveries
# it injects across a cut, so same-time deliveries interleave alike
# whether their sender is local or not — and at any shard count.


@dataclass(frozen=True)
class SimStats:
    """Aggregate counters the benchmarks read off after a run: a frozen
    view that :attr:`Simulator.stats` builds from the tallies."""

    packets_transmitted: int = 0
    bytes_transmitted: int = 0
    packets_dropped: int = 0
    control_messages: int = 0
    control_bytes: int = 0
    control_dropped: int = 0
    events_processed: int = 0
    #: Lost transmit attempts recovered by a sender's local resend
    #: budget (LinkGuardian-style); not counted in packets_dropped.
    local_resends: int = 0
    #: Tail drops at a full egress queue (repro.net.qdisc); also
    #: counted in packets_dropped (reason ``queue_full``).
    queue_drops: int = 0
    #: Packets ECN-marked above an egress queue's marking threshold.
    ecn_marked: int = 0
    #: PFC-style pause frames sent upstream (resumes not counted).
    pause_frames: int = 0
    #: Link-local recovery retransmissions (a subset of
    #: local_resends: the attempts driven by a RecoveryConfig).
    recovery_retransmits: int = 0
    #: Packets delayed by in-order release behind a recovered packet.
    recovery_held: int = 0

    def merge(self, other: "SimStats") -> "SimStats":
        """Combine two shards' stats. Every field is a pure per-shard
        count (no averages, no shared globals), so merge is field-wise
        addition — commutative and associative, which is what lets the
        sharded runner fold any number of shards in any grouping and
        get the same totals."""
        return SimStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def as_dict(self) -> Dict[str, int]:
        """Picklable/JSON export form (field order is declaration order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The ``SimStats`` field each labelled network count itemises; the
#: ``queue_full`` drops also sum into ``queue_drops``.
_TOTALS = {
    "net.link.tx_packets": "packets_transmitted",
    "net.link.tx_bytes": "bytes_transmitted",
    "net.link.dropped": "packets_dropped",
    "net.control.messages": "control_messages",
    "net.control.bytes": "control_bytes",
    "net.control.dropped": "control_dropped",
    "net.qdisc.ecn_marked": "ecn_marked",
    "net.qdisc.pause_frames": "pause_frames",
}


class _Egress:
    """One directed port (``node``'s ``port``), resolved once: link, peer
    end, delivery key, ``node:port->peer:port`` label, the port's tx
    packet and byte counts, whether this simulator owns the peer, and
    the port's egress queue once it has one (:mod:`repro.net.qdisc`).

    ``loss`` is the directed link's own stream, seeded from (seed,
    "loss", "node:port"): its transmissions happen in the sender's
    causal order however the fabric is partitioned, so every drop
    decision is invariant under sharding.
    """

    __slots__ = (
        "node", "port", "link", "peer", "peer_port", "key", "label",
        "loss", "local", "tx_packets", "tx_bytes", "queue",
    )

    def __init__(self, sim: "Simulator", node: str, port: int, link) -> None:
        self.node, self.port, self.link = node, port, link
        self.peer, self.peer_port = link.other_end(node)
        self.key = (0, KIND_PACKET, self.peer, self.peer_port)
        self.label = f"{node}:{port}->{self.peer}:{self.peer_port}"
        self.loss = None
        if link.drop_rate > 0:
            self.loss = random.Random(spawn_seed(sim.seed, "loss", f"{node}:{port}"))
        self.local = sim.owns(self.peer)
        self.tx_packets = self.tx_bytes = 0
        self.queue = None


class Simulator:
    """Event loop binding node behaviours onto a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        control_latency_s: float = 50e-6,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topology = topology
        self.clock = SimClock()
        # Tallies (see counter_tallies), each entry from its first count.
        self._drops: Dict[Tuple[str, str], int] = {}
        self._control: Dict[Tuple[str, str], List[int]] = {}
        self._control_drops: Dict[Tuple[str, str], int] = {}
        self.events_processed = 0
        self.local_resends = 0
        self.recovery_retransmits = 0
        self.recovery_held = 0
        self.control_latency_s = control_latency_s
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.bind_clock(self.clock)
        self.seed = seed
        # (node, port) -> _Egress, read by both transmit paths.
        self._egress: Dict[Tuple[str, int], _Egress] = {}
        self._nodes: Dict[str, Node] = {}
        self._queue: List[Tuple[float, tuple, int, Callable[[], None]]] = []
        self._seq = 0
        self._barrier_hooks: List[Callable[[], None]] = []
        # Fault-injection hook (see repro.faults); None = no faults, and
        # the dataplane fast path costs exactly one is-None branch.
        self.faults = None
        # Egress-queue engine (see repro.net.qdisc); created lazily on
        # the first transmit over a link carrying a QueueConfig, so
        # queue-less worlds pay one is-None branch and nothing else.
        self._qdisc_engine: Optional[QdiscEngine] = None
        # Flight recorder (see repro.telemetry.timeseries); None = no
        # sampling. Ticks are virtual — fired by the run loop before
        # the first event at or past each tick time — so the recorder
        # never perturbs the event queue or the processed count.
        self._recorder = None

    def install_faults(self, hook) -> None:
        """Install a fault-injection hook (duck-typed; see
        :class:`~repro.faults.injector.FaultInjector`). The hook is
        consulted on every transmission, delivery and control send."""
        if self.faults is not None:
            raise NetworkError("a fault hook is already installed")
        self.faults = hook

    def install_recorder(self, recorder) -> None:
        """Install a flight recorder (see
        :func:`repro.telemetry.timeseries.install_recorder`)."""
        if self._recorder is not None:
            raise NetworkError("a flight recorder is already installed")
        self._recorder = recorder

    @property
    def recorder(self):
        return self._recorder

    def pump_recorder(self) -> None:
        """Fire every recorder tick due at or before the current clock.

        The run loop pumps automatically; campaign code calls this
        around out-of-loop mutations (drain flushes, barrier sweeps) so
        their deltas land in the window the monolith would put them in.
        """
        if self._recorder is not None:
            self._recorder.advance_to(self.clock.now)

    def recorder_runtime(self) -> Tuple[float, float]:
        """``(backlog, busy_seconds)`` for the runtime export section."""
        return (float(len(self._queue)), 0.0)

    # --- counts ---------------------------------------------------------------

    @property
    def stats(self) -> SimStats:
        """The run's totals: each labelled count summed into the field it
        itemises (``_TOTALS``), plus the plain event counts."""
        totals = dict.fromkeys([*_TOTALS.values(), "queue_drops"], 0)
        for name, labels, value in self.counter_tallies():
            field = _TOTALS.get(name)
            if field is not None:
                totals[field] += value
            if name == "net.link.dropped" and labels[1] == ("reason", "queue_full"):
                totals["queue_drops"] += value
        return SimStats(
            events_processed=self.events_processed,
            local_resends=self.local_resends,
            recovery_retransmits=self.recovery_retransmits,
            recovery_held=self.recovery_held,
            **totals,
        )

    def counter_tallies(self) -> Iterator[Tuple[str, LabelItems, int]]:
        """Every labelled network count, ``(name, sorted label items,
        value)``, from its first increment on: tx per port, drops per
        ``(node, reason)``, control traffic per ``(sender, recipient)``,
        control drops per ``(recipient, reason)``, and the qdisc's."""
        for egress in self._egress.values():
            if egress.tx_packets:
                labels = (("link", egress.label),)
                yield "net.link.tx_packets", labels, egress.tx_packets
                yield "net.link.tx_bytes", labels, egress.tx_bytes
        for (node, reason), count in self._drops.items():
            yield "net.link.dropped", (("node", node), ("reason", reason)), count
        for (sender, recipient), (messages, size) in self._control.items():
            labels = (("recipient", recipient), ("sender", sender))
            yield "net.control.messages", labels, messages
            yield "net.control.bytes", labels, size
        for (recipient, reason), count in self._control_drops.items():
            yield (
                "net.control.dropped",
                (("reason", reason), ("recipient", recipient)),
                count,
            )
        if self._qdisc_engine is not None:
            yield from self._qdisc_engine.counter_tallies()

    # --- setup ------------------------------------------------------------

    def bind(self, node: Node) -> None:
        """Attach a behaviour object to its topology node."""
        if not self.topology.has_node(node.name):
            raise NetworkError(f"topology has no node named {node.name!r}")
        if node.name in self._nodes:
            raise NetworkError(f"node {node.name!r} already bound")
        node.sim = self
        self._nodes[node.name] = node
        node.on_bind(self)

    def node(self, name: str) -> Node:
        behaviour = self._nodes.get(name)
        if behaviour is None:
            raise NetworkError(f"no behaviour bound for node {name!r}")
        return behaviour

    @property
    def bound_nodes(self) -> List[str]:
        return sorted(self._nodes)

    # --- event queue --------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise NetworkError(f"cannot schedule in the past (delay {delay})")
        # _push inlined: this runs once per simulated event.
        self._seq += 1
        heapq.heappush(
            self._queue, (self.clock.now + delay, _LOCAL, self._seq, action)
        )

    def _push(self, delay: float, key: tuple, action: Callable[[], None]) -> None:
        """Queue a delivery at ``now + delay`` under its canonical
        same-time ``key``."""
        self._seq += 1
        heapq.heappush(
            self._queue, (self.clock.now + delay, key, self._seq, action)
        )

    def owns(self, name: str) -> bool:
        """Whether this simulator is responsible for node ``name``.

        The monolithic simulator owns everything; a
        :class:`~repro.net.sharding.ShardSimulator` owns only its
        partition's nodes. Scenario code and node behaviours consult
        this to stay single-writer under sharding (a foreign replica
        of a host must not originate the traffic its owner sends).
        """
        return True

    def schedule_on(
        self, node_name: str, delay: float, action: Callable[[], None]
    ) -> None:
        """Schedule scenario-driving work attributed to ``node_name``.

        Same as :meth:`schedule` on the monolith; under sharding the
        action runs only in the shard that owns ``node_name``, so a
        scripted send fires exactly once no matter how many shards
        replay the scenario build.
        """
        self.schedule(delay, action)

    def schedule_replicated(
        self, owner_hint: str, delay: float, action: Callable[[], None]
    ) -> None:
        """Schedule state-sync work that must run in *every* shard.

        ``owner_hint`` names the node whose shard counts the event in
        ``SimStats.events_processed`` (all other shards process it
        uncounted), keeping the merged count invariant under
        re-partitioning. The fault injector uses this for activations:
        a link-down toggle must flip state wherever either endpoint
        lives, but is one logical event.
        """
        self.schedule(delay, action)

    def run_barrier_hooks(self) -> None:
        """Fire every registered barrier hook (window boundaries)."""
        for hook in self._barrier_hooks:
            hook()

    def add_barrier_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook run at every window barrier.

        The monolithic engine has no windows, so hooks registered here
        never fire in a plain :meth:`run` — but node behaviours (epoch
        batchers, telemetry flushers) register unconditionally and get
        barrier-synced sealing for free when the same scenario runs
        under :class:`~repro.net.sharding.ShardSimulator`.
        """
        self._barrier_hooks.append(hook)

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the event queue; returns the number of events processed.

        ``until`` bounds simulated time; ``max_events`` guards against
        runaway loops in buggy node behaviours.
        """
        processed = 0
        recorder = self._recorder
        due = recorder.next_tick_s if recorder is not None else float("inf")
        try:
            while self._queue and processed < max_events:
                if until is not None and self._queue[0][0] > until:
                    break
                time, _key, _seq, action = heapq.heappop(self._queue)
                if time >= due:
                    # A tick at exactly `time` fires first: frame w
                    # covers [w·Δ, (w+1)·Δ), so this event's effects
                    # belong to the next window.
                    recorder.advance_to(time)
                    due = recorder.next_tick_s
                self.clock.advance_to(time)
                action()
                processed += 1
            if until is not None:
                self.clock.advance_to(until)
                if recorder is not None:
                    recorder.advance_to(until)
        finally:
            # Account for what DID happen even when a node behaviour
            # raised mid-event.
            self.events_processed += processed
            if self.telemetry.active:
                collect_simulator(self.telemetry, self)
        return processed

    # --- dataplane ----------------------------------------------------------

    def transmit(
        self,
        from_node: str,
        out_port: int,
        packet: Packet,
        resend_budget: int = 0,
    ) -> bool:
        """Send ``packet`` out of ``from_node``'s ``out_port``.

        Returns ``False`` (and counts a drop) when the port is unwired,
        mirroring a real switch forwarding to a dark port.

        ``resend_budget`` is a LinkGuardian-style local recovery knob:
        a sender that can see the loss (link-level ack/corruption
        detection) immediately re-offers the packet up to that many
        times. Resent losses count in ``SimStats.local_resends``, not
        ``packets_dropped``; a down link is never retryable.
        """
        egress = self._egress.get((from_node, out_port))
        if egress is None:
            if not self.owns(from_node):
                return True  # the owner shard performs (and accounts) it
            egress = self._egress_for(from_node, out_port)
            if egress is None:
                self._count_drop(from_node, "dark_port", packet)
                return False
        if egress.link.queue is not None:
            # Queued link: contention, congestion signals and recovery
            # live in the qdisc engine (repro.net.qdisc).
            return self._qdisc().offer(egress, packet, resend_budget)
        attempts = 0
        if self.faults is not None or egress.loss is not None:
            reason, packet, attempts = self._attempt(
                egress, packet, resend_budget, False
            )
            if reason is not None:
                self._count_drop(from_node, reason, packet)
                return False
        delay = egress.link.transit_delay(packet.wire_length)
        self._put_on_wire(egress, packet, attempts, delay)
        return True

    def _egress_for(self, node: str, port: int) -> Optional["_Egress"]:
        """``node``'s ``port`` record, built on first use (None if unwired;
        the topology is fixed once traffic flows)."""
        egress = self._egress.get((node, port))
        if egress is None:
            link = self.topology.link_at(node, port)
            if link is None:
                return None
            egress = self._egress[(node, port)] = _Egress(self, node, port, link)
        return egress

    def _attempt(
        self, egress: "_Egress", packet: Packet, limit: int, detect: bool
    ) -> Tuple[Optional[str], Packet, int]:
        """Pass ``packet`` through the link's faults and loss stream,
        retrying a lost attempt up to ``limit`` times (a down link never).
        Returns ``(None, outgoing copy, attempts)`` or ``(drop reason,
        packet, attempts)``. ``detect``: the receiver checks CRCs (qdisc
        recovery), so corruption is a loss and a retry a retransmit.
        """
        faults, loss, rate = self.faults, egress.loss, egress.link.drop_rate
        attempts = 0
        while True:
            reason: Optional[str] = None
            outgoing = packet
            if faults is not None:
                reason, outgoing = faults.filter_transmit(
                    egress.node, egress.peer, packet, detect_corruption=detect
                )
            if reason is None and loss is not None and loss.random() < rate:
                reason = "link_loss"
            if reason is None:
                return None, outgoing, attempts
            if reason == "fault_link_down" or attempts >= limit:
                return reason, packet, attempts
            attempts += 1
            self.local_resends += 1
            if detect:
                self.recovery_retransmits += 1

    def _put_on_wire(
        self, egress: "_Egress", packet: Packet, attempts: int, delay: float,
        seq: Optional[int] = None,
    ) -> None:
        """Count one transmission out of ``egress`` and deliver ``packet``
        ``delay`` seconds from now: the wire-out step of both transmit
        paths (queued ones pass their link-local sequence number ``seq``).
        """
        node, label = egress.node, egress.label
        egress.tx_packets += 1
        egress.tx_bytes += packet.wire_length
        if packet.trace is not None:
            # Each link crossing advances the causal context: hop+1,
            # the forwarding node appended to the lineage.
            packet = packet.with_trace(packet.trace.hopped(node))
        tel = self.telemetry
        if tel.active:
            if packet.trace is not None:
                tel.audit_event(
                    AuditKind.PACKET_FORWARDED, node, trace=packet.trace, link=label
                )
            if attempts:
                detail = {} if seq is None else {"seq": seq}
                tel.audit_event(
                    AuditKind.RECOVERY_RESENT, node, trace=packet.trace,
                    attempts=attempts, link=label, **detail,
                )
        peer, peer_port = egress.peer, egress.peer_port
        if egress.local:
            self._push(
                delay, egress.key, lambda: self._deliver_packet(peer, peer_port, packet)
            )
        else:
            # Only a ShardSimulator has foreign peers: its barrier outbox.
            self._schedule_packet_delivery(peer, peer_port, packet, delay)

    # --- egress queues (repro.net.qdisc) ------------------------------------

    def _qdisc(self) -> QdiscEngine:
        engine = self._qdisc_engine
        if engine is None:
            engine = QdiscEngine(self)
            self._qdisc_engine = engine
        return engine

    def qdisc_queue_depths(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(node, port, depth_bytes)`` for every egress queue
        this simulator owns — the flight-recorder probe input."""
        if self._qdisc_engine is None:
            return []
        return self._qdisc_engine.owned_depths()

    def queue_depth_bytes(self, node: str, port: int) -> int:
        """Current buffered bytes on one egress queue (0 if none)."""
        if self._qdisc_engine is None:
            return 0
        queue = self._qdisc_engine.queues.get((node, port))
        return queue.depth_bytes if queue is not None else 0

    def _schedule_pause_delivery(
        self, to_node: str, to_port: int, paused: bool, delay: float
    ) -> None:
        """Arrange for a PFC pause/resume frame to reach ``to_node``.

        Split out so the sharded engine can route frames aimed at
        foreign-owned upstream nodes through the barrier outboxes.
        """
        self._push(
            delay,
            (0, KIND_PAUSE, to_node, to_port),
            lambda: self._deliver_pause(to_node, to_port, paused),
        )

    def _deliver_pause(self, to_node: str, to_port: int, paused: bool) -> None:
        self._qdisc().on_pause(to_node, to_port, paused)

    def _deliver_packet(self, peer: str, peer_port: int, packet: Packet) -> None:
        behaviour = self._nodes.get(peer)
        if behaviour is None:
            self._count_drop(peer, "unbound_node", packet)
            return
        if self.faults is not None and self.faults.node_is_down(peer):
            self._count_drop(peer, "node_down", packet)
            return
        behaviour.handle_packet(packet, peer_port)

    def drop(self, at_node: str, packet: Packet) -> None:
        """Record an intentional drop (policy decision, TTL expiry...)."""
        self._count_drop(at_node, "policy", packet)

    def _count_drop(
        self, at_node: str, reason: str, packet: Optional[Packet] = None
    ) -> None:
        key = (at_node, reason)
        self._drops[key] = self._drops.get(key, 0) + 1
        if (
            self.telemetry.active
            and packet is not None
            and packet.trace is not None
        ):
            self.telemetry.audit_event(
                AuditKind.PACKET_DROPPED, at_node, trace=packet.trace,
                reason=reason,
            )

    # --- control channel ------------------------------------------------------

    def send_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        size_hint: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> bool:
        """Deliver an out-of-band message after the control-plane latency.

        Returns ``False`` (and counts a control drop, symmetrically
        with dataplane drops) when the recipient has no behaviour bound
        at send *or* at delivery time — an evidence stream aimed at an
        absent appraiser must be observable as loss, not an exception
        and not silence.
        """
        faults = self.faults
        if faults is not None:
            if faults.node_is_down(recipient):
                self._count_control_drop(recipient, "node_down", trace=trace)
                return False
            reason, message = faults.filter_control(
                sender, recipient, message, trace
            )
            if reason is not None:
                self._count_control_drop(recipient, reason, trace=trace)
                return False
        if not self._is_bound_anywhere(recipient):
            self._count_control_drop(recipient, "unbound_at_send", trace=trace)
            return False
        sent = self._control.setdefault((sender, recipient), [0, 0])
        sent[0] += 1
        sent[1] += size_hint
        if self.telemetry.active and trace is not None:
            self.telemetry.audit_event(
                AuditKind.CONTROL_SENT, sender, trace=trace,
                recipient=recipient,
            )
        self._schedule_control_delivery(sender, recipient, message, trace)
        return True

    def _is_bound_anywhere(self, name: str) -> bool:
        """Whether ``name`` has a behaviour in this world (any shard)."""
        return name in self._nodes

    def _schedule_control_delivery(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        """Arrange control delivery after the control-plane latency.

        Split out of :meth:`send_control` so a sharded engine can
        override this to route cross-shard messages through barrier
        outboxes.
        """
        self._push(
            self.control_latency_s,
            (0, KIND_CONTROL, sender, recipient),
            lambda: self._deliver_control(sender, recipient, message, trace),
        )

    def _deliver_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        behaviour = self._nodes.get(recipient)
        if behaviour is None:
            self._count_control_drop(
                recipient, "unbound_at_delivery", trace=trace
            )
            return
        if self.faults is not None and self.faults.node_is_down(recipient):
            self._count_control_drop(
                recipient, "node_down_at_delivery", trace=trace
            )
            return
        behaviour.handle_control(sender, message)

    def _count_control_drop(
        self,
        recipient: str,
        reason: str,
        trace: Optional[TraceContext] = None,
    ) -> None:
        key = (recipient, reason)
        self._control_drops[key] = self._control_drops.get(key, 0) + 1
        if self.telemetry.active:
            self.telemetry.audit_event(
                AuditKind.CONTROL_DROPPED, recipient, trace=trace, reason=reason
            )
