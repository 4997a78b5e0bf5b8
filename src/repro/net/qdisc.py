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
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.telemetry.audit import AuditKind
from repro.telemetry.metrics import LabelItems
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
    recovered one. ``egress`` is the simulator's record of the port
    (node, link, peer), ``watermarks`` its node's PFC state,
    ``ecn_marks`` the packets this queue marked.
    """

    __slots__ = (
        "egress", "config", "watermarks", "fifo", "depth_bytes",
        "depth_packets", "busy", "paused", "release_floor_s", "held_streak",
        "tx_seq", "ecn_marks",
    )

    def __init__(self, egress, watermarks: "_Watermarks") -> None:
        self.egress = egress
        self.config: QueueConfig = egress.link.queue
        self.watermarks = watermarks
        self.fifo: Deque[Tuple[object, int]] = deque()
        self.depth_bytes = 0
        self.depth_packets = 0
        self.busy = False
        self.paused = False
        self.release_floor_s = 0.0
        self.held_streak = 0
        self.tx_seq = 0
        self.ecn_marks = 0


class _Watermarks:
    """One node's PFC ports, resolved once: ``(port, link, pause,
    resume)`` each, the lowest pause threshold ``floor``, and the
    ports whose pause is outstanding up their link (``sent``)."""

    __slots__ = ("ports", "floor", "sent")

    def __init__(self, topology, node: str) -> None:
        ports = []
        for port in topology.ports_of(node):
            link = topology.link_at(node, port)
            config = link.queue
            if config is not None and config.pause_threshold_bytes is not None:
                ports.append((
                    port, link,
                    config.pause_threshold_bytes, config.resume_below_bytes,
                ))
        self.ports = tuple(ports)
        self.floor = min((p[2] for p in ports), default=float("inf"))
        self.sent: Set[int] = set()


class QdiscEngine:
    """Drives every :class:`EgressQueue` of one simulator (or shard).

    Created lazily by :meth:`repro.net.simulator.Simulator.transmit`
    the first time a queued link is used. The engine calls back into
    the simulator for scheduling, drops and the wire-out step, so the
    sharded engine's outbox routing applies unchanged; it keeps its
    own ECN and PFC counts (:meth:`counter_tallies`).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.queues: Dict[Tuple[str, int], EgressQueue] = {}
        #: Aggregate buffered bytes per node — the PFC watermark input.
        self.node_depth: Dict[str, int] = {}
        self._watermarks: Dict[str, _Watermarks] = {}
        #: ``(node, port)`` -> ``[pause, resume]`` frames sent up that
        #: port's link.
        self.pfc_frames: Dict[Tuple[str, int], List[int]] = {}

    # --- enqueue --------------------------------------------------------------

    def offer(self, egress, packet, resend_budget: int) -> bool:
        """Enqueue ``packet`` on the egress queue of ``egress`` (the
        simulator's record of the sending port).

        Returns ``False`` only on an immediate tail-drop; a packet
        accepted here may still be lost at serve time (the sender
        cannot know, exactly as on a real NIC).
        """
        sim = self.sim
        queue = egress.queue
        if queue is None:
            queue = self._queue_for(egress)
        config = queue.config
        wire = packet.wire_length
        if (
            queue.depth_packets + 1 > config.capacity_packets
            or queue.depth_bytes + wire > config.capacity_bytes
        ):
            sim._count_drop(egress.node, "queue_full", packet)
            return False
        if (
            config.ecn_threshold_bytes is not None
            and queue.depth_bytes >= config.ecn_threshold_bytes
            and not packet.ecn
        ):
            packet = packet.with_ecn()
            queue.ecn_marks += 1
        queue.fifo.append((packet, resend_budget))
        queue.depth_bytes += wire
        queue.depth_packets += 1
        self._add_depth(queue, wire)
        if not queue.busy and not queue.paused:
            self._serve(queue)
        return True

    def _queue_for(self, egress) -> EgressQueue:
        node = egress.node
        watermarks = self._watermarks.get(node)
        if watermarks is None:
            watermarks = _Watermarks(self.sim.topology, node)
            self._watermarks[node] = watermarks
            self.node_depth[node] = 0
        queue = EgressQueue(egress, watermarks)
        egress.queue = queue
        self.queues[(node, egress.port)] = queue
        return queue

    def _add_depth(self, queue: EgressQueue, delta: int) -> None:
        """Move ``queue``'s node depth by ``delta`` and re-evaluate its
        pause watermarks — unless no watermark can trip: with no pause
        outstanding, nothing happens at or below the lowest threshold."""
        node = queue.egress.node
        depth = self.node_depth[node] + delta
        self.node_depth[node] = depth
        watermarks = queue.watermarks
        if depth > watermarks.floor or watermarks.sent:
            self._pfc_update(node, depth, watermarks)

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
        self._add_depth(queue, -wire)
        egress = queue.egress
        link = egress.link
        recovery = queue.config.recovery
        attempts = 0
        if sim.faults is not None or egress.loss is not None:
            limit = recovery.retransmit_limit if recovery is not None else budget
            reason, packet, attempts = sim._attempt(
                egress, packet, limit, recovery is not None
            )
            if reason is not None:
                return self._give_up(queue, packet, reason, attempts)
            wire = packet.wire_length
        transfer = (wire * 8) / link.bandwidth_bps
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
                        egress.node, "recovery_hold_overflow", packet
                    )
                    return self._hold_port(queue, busy_for)
                sim.recovery_held += 1
                arrival = queue.release_floor_s
            else:
                queue.held_streak = 0
        sim._put_on_wire(egress, packet, attempts, arrival - now, queue.tx_seq)
        return self._hold_port(queue, busy_for)

    def _give_up(
        self, queue: EgressQueue, packet, reason: str, attempts: int
    ) -> bool:
        """Final-drop path for a serve that exhausted its retries."""
        sim = self.sim
        egress = queue.egress
        node = egress.node
        recovery = queue.config.recovery
        recovering = recovery is not None and reason != "fault_link_down"
        final_reason = "recovery_exhausted" if recovering else reason
        sim._count_drop(node, final_reason, packet)
        if recovering:
            if sim.telemetry.active and packet.trace is not None:
                sim.telemetry.audit_event(
                    AuditKind.RECOVERY_GAVE_UP,
                    node,
                    trace=packet.trace,
                    to=egress.peer,
                    attempts=attempts,
                )
            link = egress.link
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

    def _pfc_update(self, node: str, depth: int, watermarks: _Watermarks) -> None:
        """Re-evaluate pause watermarks after a depth change at ``node``."""
        sent = watermarks.sent
        for port, link, pause, resume in watermarks.ports:
            if port not in sent:
                if depth > pause:
                    sent.add(port)
                    self._send_pause(node, port, link, True)
            elif depth <= resume:
                sent.discard(port)
                self._send_pause(node, port, link, False)

    def _send_pause(self, node: str, port: int, link, paused: bool) -> None:
        """Emit a pause/resume frame up ``link`` towards the upstream
        endpoint, delivered after the link's propagation latency."""
        self.pfc_frames.setdefault((node, port), [0, 0])[0 if paused else 1] += 1
        peer, peer_port = link.other_end(node)
        self.sim._schedule_pause_delivery(peer, peer_port, paused, link.latency_s)

    def on_pause(self, node: str, port: int, paused: bool) -> None:
        """A pause/resume frame arrived at ``node``'s egress port
        ``port`` (the port facing the node that sent it)."""
        egress = self.sim._egress_for(node, port)
        if egress is None or egress.link.queue is None:
            # The requester's reverse link carries no queue — nothing
            # to pause; ignore it (never a crash).
            return
        queue = egress.queue
        if queue is None:
            queue = self._queue_for(egress)
        queue.paused = paused
        if not paused and not queue.busy and queue.fifo:
            self._serve(queue)

    # --- introspection --------------------------------------------------------

    def counter_tallies(self) -> Iterator[Tuple[str, LabelItems, int]]:
        """ECN marks per queue and PFC frames per link, for
        :meth:`repro.net.simulator.Simulator.counter_tallies`."""
        for queue in self.queues.values():
            if queue.ecn_marks:
                egress = queue.egress
                labels = (("node", egress.node), ("port", str(egress.port)))
                yield "net.qdisc.ecn_marked", labels, queue.ecn_marks
        topology = self.sim.topology
        for (node, port), (pauses, resumes) in self.pfc_frames.items():
            peer, peer_port = topology.link_at(node, port).other_end(node)
            labels = (("link", f"{peer}:{peer_port}->{node}:{port}"),)
            if pauses:
                yield "net.qdisc.pause_frames", labels, pauses
            if resumes:
                yield "net.qdisc.resume_frames", labels, resumes

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
