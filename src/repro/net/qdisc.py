"""Finite egress queues, congestion signals, and link-local recovery.

Links in :mod:`repro.net.topology` model latency, bandwidth and loss
but (without this module) not *contention*: every transmission departs
immediately, so buffers never fill and attestation overhead never
competes with user traffic for queue space. Attaching a
:class:`QueueConfig` to a link changes that. The sending endpoint
grows a per-egress-port :class:`EgressQueue` driven by
:class:`QdiscEngine`:

* **Finite buffers, deterministic tail-drop.** A packet that would
  push the queue past ``capacity_bytes`` or ``capacity_packets`` is
  dropped at enqueue (reason ``queue_full``) — no RED, no RNG, so
  sharded runs stay byte-identical.
* **Serialization occupancy.** A packet holds the port for its
  transfer time (``wire_bytes * 8 / bandwidth_bps``); queued arrivals
  wait their turn in FIFO order.
* **ECN-style marking.** When the queue's depth at enqueue is at or
  above ``ecn_threshold_bytes`` the packet is marked
  congestion-experienced. The mark is ancillary packet metadata
  (:attr:`repro.net.packet.Packet.ecn`), mirroring how trace context
  is carried — congestion-aware sinks and flowlet tables read it,
  the wire form never changes.
* **PFC-style pause/resume.** When a node's *aggregate* egress
  occupancy crosses a link's ``pause_threshold_bytes`` the node sends
  a pause frame up that link's reverse direction; the upstream
  endpoint's egress queue toward the requester stops starting new
  serializations until a resume frame (sent when occupancy falls to
  ``resume_below_bytes``) releases it. Frames travel with the link's
  propagation latency, which on shard-cut links is at least the
  conservative lookahead window — so pause frames cross shard
  boundaries through the typed outboxes like any other event.
* **Link-local recovery (LinkGuardian-style).** With a
  :class:`RecoveryConfig`, corruption or loss detected on the link
  (receiver-side CRC, modelled by the fault hook's
  ``detect_corruption`` mode and the link's seeded loss stream)
  triggers retransmission from the sender's holding buffer: each
  failed attempt costs one serialization plus a NACK round-trip
  (``transfer + 2 * latency``), the recovered packet re-establishes
  the link's in-order *release floor*, and later packets that would
  overtake it are held back (``SimStats.recovery_held``) up to
  ``holding_packets`` deep. Downstream — and the attestation
  appraiser — never sees a gap or a reordering, so a corrupting link
  causes zero verdict churn.

Determinism contract: the engine introduces **no new randomness**.
Loss draws still come from the simulator's per-directed-link streams,
fault draws from the injector's keyed streams; queue state lives only
with the owning shard (enqueue sits behind the ``transmit`` ownership
gate, pause delivery is routed to the owner), so 1-, 2- and 4-shard
runs replay the same decisions in the same order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.telemetry.audit import AuditKind
from repro.util.errors import NetworkError


@dataclass(frozen=True)
class RecoveryConfig:
    """Link-local corruption-tolerant retransmission knobs.

    ``retransmit_limit`` bounds retries per packet (a down link is
    never retryable); ``holding_packets`` bounds how many subsequent
    packets the in-order release window may delay behind a recovered
    packet before overflowing (reason ``recovery_hold_overflow``).
    """

    retransmit_limit: int = 4
    holding_packets: int = 64

    def __post_init__(self) -> None:
        if self.retransmit_limit < 1:
            raise NetworkError(
                f"retransmit limit must be >= 1, got {self.retransmit_limit}"
            )
        if self.holding_packets < 1:
            raise NetworkError(
                f"holding buffer must hold >= 1 packet, got "
                f"{self.holding_packets}"
            )


@dataclass(frozen=True)
class QueueConfig:
    """Egress-queue discipline for one link (attached via
    :attr:`repro.net.topology.Link.queue`).

    Thresholds are optional: ``None`` disables ECN marking / PFC pause
    respectively, leaving only finite buffering and serialization
    occupancy. ``resume_threshold_bytes`` defaults to half the pause
    threshold (classic hysteresis) via :attr:`resume_below_bytes`.
    """

    capacity_bytes: int = 65536
    capacity_packets: int = 256
    ecn_threshold_bytes: Optional[int] = None
    pause_threshold_bytes: Optional[int] = None
    resume_threshold_bytes: Optional[int] = None
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.capacity_packets <= 0:
            raise NetworkError(
                f"queue capacity must be positive, got "
                f"{self.capacity_bytes}B / {self.capacity_packets}p"
            )
        if (
            self.ecn_threshold_bytes is not None
            and self.ecn_threshold_bytes <= 0
        ):
            raise NetworkError(
                f"ECN threshold must be positive, got "
                f"{self.ecn_threshold_bytes}"
            )
        if self.pause_threshold_bytes is not None:
            if self.pause_threshold_bytes <= 0:
                raise NetworkError(
                    f"pause threshold must be positive, got "
                    f"{self.pause_threshold_bytes}"
                )
            if (
                self.resume_threshold_bytes is not None
                and not 0 < self.resume_threshold_bytes
                <= self.pause_threshold_bytes
            ):
                raise NetworkError(
                    f"resume threshold {self.resume_threshold_bytes} must "
                    f"be in (0, pause threshold "
                    f"{self.pause_threshold_bytes}]"
                )
        elif self.resume_threshold_bytes is not None:
            raise NetworkError(
                "resume threshold without a pause threshold is meaningless"
            )

    @property
    def resume_below_bytes(self) -> Optional[int]:
        """The occupancy at or below which a paused link resumes."""
        if self.pause_threshold_bytes is None:
            return None
        if self.resume_threshold_bytes is not None:
            return self.resume_threshold_bytes
        return self.pause_threshold_bytes // 2


class EgressQueue:
    """One egress port's FIFO plus its serialization/recovery state.

    Pure state — all transitions are driven by :class:`QdiscEngine`.
    ``tx_seq`` shadows the link-local sequence number a LinkGuardian
    sender stamps on frames; ``release_floor_s`` is the earliest time
    a later packet may arrive downstream without overtaking a
    recovered one.
    """

    __slots__ = (
        "node",
        "port",
        "link",
        "config",
        "fifo",
        "depth_bytes",
        "depth_packets",
        "busy",
        "paused",
        "release_floor_s",
        "held_streak",
        "tx_seq",
    )

    def __init__(self, node: str, port: int, link) -> None:
        self.node = node
        self.port = port
        self.link = link
        self.config: QueueConfig = link.queue
        self.fifo: Deque[Tuple[object, int]] = deque()
        self.depth_bytes = 0
        self.depth_packets = 0
        self.busy = False
        self.paused = False
        self.release_floor_s = 0.0
        self.held_streak = 0
        self.tx_seq = 0


class QdiscEngine:
    """Drives every :class:`EgressQueue` of one simulator (or shard).

    Created lazily by :meth:`repro.net.simulator.Simulator.transmit`
    the first time a queued link is used. The engine calls back into
    the simulator for scheduling, stats, drops and delivery, so the
    sharded engine's outbox routing applies unchanged.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.queues: Dict[Tuple[str, int], EgressQueue] = {}
        #: Aggregate buffered bytes per node — the PFC watermark input.
        self.node_depth: Dict[str, int] = {}
        #: Per (node, port): whether a pause is outstanding up that link.
        self._pause_sent: Dict[Tuple[str, int], bool] = {}
        self._pfc_ports: Dict[str, List[int]] = {}

    # --- enqueue --------------------------------------------------------------

    def offer(
        self, from_node: str, out_port: int, link, packet, resend_budget: int
    ) -> bool:
        """Enqueue ``packet`` on ``from_node``'s egress queue.

        Returns ``False`` only on an immediate tail-drop; a packet
        accepted here may still be lost at serve time (the sender
        cannot know, exactly as on a real NIC).
        """
        sim = self.sim
        queue = self._queue_for(from_node, out_port, link)
        config = queue.config
        wire = packet.wire_length
        if (
            queue.depth_packets + 1 > config.capacity_packets
            or queue.depth_bytes + wire > config.capacity_bytes
        ):
            sim.stats.queue_drops += 1
            sim._count_drop(from_node, "queue_full", packet)
            return False
        if (
            config.ecn_threshold_bytes is not None
            and queue.depth_bytes >= config.ecn_threshold_bytes
            and not packet.ecn
        ):
            packet = packet.with_ecn()
            sim.stats.ecn_marked += 1
            if sim.telemetry.active:
                sim.telemetry.counter(
                    "net.qdisc.ecn_marked",
                    node=from_node,
                    port=str(out_port),
                ).inc()
        queue.fifo.append((packet, resend_budget))
        queue.depth_bytes += wire
        queue.depth_packets += 1
        self.node_depth[from_node] = (
            self.node_depth.get(from_node, 0) + wire
        )
        self._pfc_update(from_node)
        if not queue.busy and not queue.paused:
            self._serve(queue)
        return True

    def _queue_for(self, node: str, port: int, link) -> EgressQueue:
        key = (node, port)
        queue = self.queues.get(key)
        if queue is None:
            queue = EgressQueue(node, port, link)
            self.queues[key] = queue
        return queue

    # --- service --------------------------------------------------------------

    def _serve(self, queue: EgressQueue) -> None:
        """Start serializing queued packets until the port goes busy.

        Zero-occupancy drops (legacy budget-path losses, down links)
        fall straight through to the next packet in the same event.
        """
        while queue.fifo and not queue.busy and not queue.paused:
            if self._serve_one(queue):
                return

    def _serve_one(self, queue: EgressQueue) -> bool:
        """Dequeue and transmit one packet; True iff the port is now
        held (a completion event has been scheduled)."""
        sim = self.sim
        packet, budget = queue.fifo.popleft()
        wire = packet.wire_length
        queue.depth_bytes -= wire
        queue.depth_packets -= 1
        node = queue.node
        self.node_depth[node] = self.node_depth.get(node, 0) - wire
        self._pfc_update(node)
        link = queue.link
        out_port = queue.port
        peer, peer_port = link.other_end(node)
        recovery = queue.config.recovery
        limit = recovery.retransmit_limit if recovery is not None else budget
        faults = sim.faults
        attempts = 0
        while True:
            reason: Optional[str] = None
            outgoing = packet
            if faults is not None:
                reason, outgoing = faults.filter_transmit(
                    node, peer, packet,
                    detect_corruption=recovery is not None,
                )
            if (
                reason is None
                and link.drop_rate > 0
                and sim._loss_stream(node, out_port).random()
                < link.drop_rate
            ):
                reason = "link_loss"
            if reason is None:
                packet = outgoing
                break
            if reason == "fault_link_down" or attempts >= limit:
                return self._give_up(
                    queue, packet, reason, attempts, link
                )
            attempts += 1
            sim.stats.local_resends += 1
            if recovery is not None:
                sim.stats.recovery_retransmits += 1
        transfer = (packet.wire_length * 8) / link.bandwidth_bps
        latency = link.latency_s
        # With recovery, each failed attempt serialized a doomed copy
        # and waited out the NACK round-trip; the legacy budget path
        # keeps its instant re-offer semantics (zero port time).
        penalty = (
            attempts * (transfer + 2.0 * latency)
            if recovery is not None
            else 0.0
        )
        busy_for = penalty + transfer
        now = sim.clock.now
        natural = now + busy_for + latency
        arrival = natural
        queue.tx_seq += 1
        if recovery is not None:
            if attempts:
                # The recovered packet defines the new release floor:
                # nothing behind it may arrive downstream earlier.
                queue.release_floor_s = max(
                    queue.release_floor_s, natural
                )
                queue.held_streak = 0
            elif natural < queue.release_floor_s:
                queue.held_streak += 1
                if queue.held_streak > recovery.holding_packets:
                    sim._count_drop(
                        node, "recovery_hold_overflow", packet
                    )
                    return self._hold_port(queue, busy_for)
                sim.stats.recovery_held += 1
                arrival = queue.release_floor_s
            else:
                queue.held_streak = 0
        sim.stats.packets_transmitted += 1
        sim.stats.bytes_transmitted += packet.wire_length
        tel = sim.telemetry
        if packet.trace is not None:
            packet = packet.with_trace(packet.trace.hopped(node))
        if tel.active:
            link_label = f"{node}:{out_port}->{peer}:{peer_port}"
            tel.counter("net.link.tx_packets", link=link_label).inc()
            tel.counter("net.link.tx_bytes", link=link_label).inc(
                packet.wire_length
            )
            if packet.trace is not None:
                tel.audit_event(
                    AuditKind.PACKET_FORWARDED,
                    node,
                    trace=packet.trace,
                    link=link_label,
                )
            if attempts:
                tel.audit_event(
                    AuditKind.RECOVERY_RESENT,
                    node,
                    trace=packet.trace,
                    attempts=attempts,
                    link=link_label,
                    seq=queue.tx_seq,
                )
        sim._schedule_packet_delivery(
            peer, peer_port, packet, arrival - now
        )
        return self._hold_port(queue, busy_for)

    def _give_up(
        self, queue: EgressQueue, packet, reason: str, attempts: int, link
    ) -> bool:
        """Final-drop path for a serve that exhausted its retries."""
        sim = self.sim
        node = queue.node
        recovery = queue.config.recovery
        recovering = recovery is not None and reason != "fault_link_down"
        final_reason = "recovery_exhausted" if recovering else reason
        sim._count_drop(node, final_reason, packet)
        if recovering:
            if sim.telemetry.active and packet.trace is not None:
                peer, _ = link.other_end(node)
                sim.telemetry.audit_event(
                    AuditKind.RECOVERY_GAVE_UP,
                    node,
                    trace=packet.trace,
                    to=peer,
                    attempts=attempts,
                )
            transfer = (packet.wire_length * 8) / link.bandwidth_bps
            busy_for = (attempts + 1) * (
                transfer + 2.0 * link.latency_s
            )
            return self._hold_port(queue, busy_for)
        return False

    def _hold_port(self, queue: EgressQueue, busy_for: float) -> bool:
        queue.busy = True
        self.sim.schedule(busy_for, lambda: self._complete(queue))
        return True

    def _complete(self, queue: EgressQueue) -> None:
        """Serialization finished: free the port, serve the next packet."""
        queue.busy = False
        if queue.fifo and not queue.paused:
            self._serve(queue)

    # --- PFC pause/resume -----------------------------------------------------

    def _pfc_ports_of(self, node: str) -> List[int]:
        ports = self._pfc_ports.get(node)
        if ports is None:
            topo = self.sim.topology
            ports = []
            for port in topo.ports_of(node):
                link = topo.link_at(node, port)
                if (
                    link is not None
                    and link.queue is not None
                    and link.queue.pause_threshold_bytes is not None
                ):
                    ports.append(port)
            self._pfc_ports[node] = ports
        return ports

    def _pfc_update(self, node: str) -> None:
        """Re-evaluate pause watermarks after a depth change at ``node``."""
        depth = self.node_depth.get(node, 0)
        topo = self.sim.topology
        for port in self._pfc_ports_of(node):
            link = topo.link_at(node, port)
            config = link.queue
            key = (node, port)
            sent = self._pause_sent.get(key, False)
            if not sent and depth > config.pause_threshold_bytes:
                self._pause_sent[key] = True
                self._send_pause(node, port, link, True)
            elif sent and depth <= config.resume_below_bytes:
                self._pause_sent[key] = False
                self._send_pause(node, port, link, False)

    def _send_pause(self, node: str, port: int, link, paused: bool) -> None:
        """Emit a pause/resume frame up ``link`` towards the upstream
        endpoint, delivered after the link's propagation latency."""
        sim = self.sim
        peer, peer_port = link.other_end(node)
        if paused:
            sim.stats.pause_frames += 1
        if sim.telemetry.active:
            name = (
                "net.qdisc.pause_frames"
                if paused
                else "net.qdisc.resume_frames"
            )
            sim.telemetry.counter(
                name, link=f"{peer}:{peer_port}->{node}:{port}"
            ).inc()
        sim._schedule_pause_delivery(peer, peer_port, paused, link.latency_s)

    def on_pause(self, node: str, port: int, paused: bool) -> None:
        """A pause/resume frame arrived at ``node``'s egress port
        ``port`` (the port facing the node that sent it)."""
        link = self.sim.topology.link_at(node, port)
        if link is None or link.queue is None:
            # The requester's reverse link carries no queue — nothing
            # to pause; ignore it (never a crash).
            return
        queue = self._queue_for(node, port, link)
        queue.paused = paused
        if not paused and not queue.busy and queue.fifo:
            self._serve(queue)

    # --- introspection --------------------------------------------------------

    def owned_depths(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(node, port, depth_bytes)`` for owned queues — the
        flight-recorder probe input (foreign replicas are skipped so
        depth series merge exactly once across shards)."""
        sim = self.sim
        out: List[Tuple[str, int, int]] = []
        for node, port in sorted(self.queues):
            if sim.owns(node):
                out.append((node, port, self.queues[(node, port)].depth_bytes))
        return out


__all__ = [
    "EgressQueue",
    "QdiscEngine",
    "QueueConfig",
    "RecoveryConfig",
]
