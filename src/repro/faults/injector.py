"""The fault injector: applies a :class:`FaultPlan` to a live run.

The injector is the single hook the simulator consults (installed via
``Simulator.install_faults``, never monkey-patched): link-scoped
faults intercept :meth:`~repro.net.simulator.Simulator.transmit`,
node-scoped faults gate packet and control delivery, and evidence
faults filter the control channel. Timed activations ride the
simulator's own event queue, so fault application is ordered by the
same deterministic ``(time, seq)`` discipline as everything else.

Probabilistic faults (extra loss, bit corruption) draw from the
injector's own per-directed-link streams hashed from ``plan.seed`` —
separate from the simulator's loss RNG, so attaching a fault plan
never perturbs the baseline loss sequence of an existing scenario,
and keyed per link so the draw sequence is invariant under sharding
(see :mod:`repro.net.sharding`).

Sharding: the injector is shard-aware through two small simulator
capabilities. Activations are scheduled with
``schedule_replicated(owner_hint, ...)`` so state toggles (down links,
loss windows, crashed nodes) flip in *every* shard that might consult
them, while journaling, :class:`FaultStats` accounting, and node
mutations (compromise, clock skew) happen only in the shard that
``owns()`` the target — one logical fault, one audit event, one count,
no matter the partitioning.

Every activation lands in the audit journal as ``fault.injected`` (or
``fault.cleared`` for up/restart/rate-0 events), and per-packet effects
(a flipped bit, a stripped record stack) are journaled with the
victim packet's trace id, so ``repro.telemetry.report`` can narrate
exactly what broke and when.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, is_dataclass, replace
from typing import Any, Dict, Optional, Set, Tuple

from repro.evidence.codec import decode_record_stack
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, link_key
from repro.telemetry.audit import AuditKind
from repro.util.clock import SkewedClock
from repro.util.errors import NetworkError
from repro.util.ids import spawn_seed

#: Election id the simulated intruder arbitrates with — high enough to
#: out-rank any honest controller that has not escalated yet.
COMPROMISE_ELECTION_ID = 1 << 20

_AUDIT_ACTOR = "faults"


@dataclass
class FaultStats:
    """What the injector actually did to the run."""

    injected: int = 0
    cleared: int = 0
    extra_losses: int = 0
    link_down_drops: int = 0
    packets_corrupted: int = 0
    records_stripped: int = 0
    control_stripped: int = 0
    control_tampered: int = 0


class FaultInjector:
    """Applies one :class:`FaultPlan` to one simulator run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        # One lazily-spawned stream per (purpose, directed link): the
        # draws for a given link happen in its sender's causal order
        # regardless of partitioning, so keyed streams replay
        # identically at any shard count.
        self._streams: Dict[Tuple[str, str], random.Random] = {}
        self._sim = None
        self._telemetry = None
        self._down_links: Set[str] = set()
        self._down_nodes: Set[str] = set()
        self._loss: Dict[str, float] = {}
        self._corrupt: Dict[str, float] = {}
        self._strip_inband: Set[str] = set()
        self._strip_oob: Set[str] = set()
        self._tamper: Set[str] = set()

    # --- wiring ------------------------------------------------------------

    def attach(self, sim) -> "FaultInjector":
        """Install onto ``sim`` and schedule every planned activation."""
        if self._sim is not None:
            raise NetworkError("fault injector is already attached")
        self._sim = sim
        self._telemetry = sim.telemetry
        sim.install_faults(self)
        for event in self.plan.schedule():
            delay = max(0.0, event.time_s - sim.clock.now)
            sim.schedule_replicated(
                self._owner_hint(event), delay, lambda e=event: self._apply(e)
            )
        return self

    @staticmethod
    def _owner_hint(event: FaultEvent) -> str:
        """The node whose shard records (counts + journals) this event.

        Link targets are ``"a|b"`` (sorted by :func:`link_key`); the
        lexicographic min endpoint is the canonical recorder, so the
        choice depends only on the target, never on the partitioning.
        """
        target = event.target
        return min(target.split("|")) if "|" in target else target

    def _stream(self, purpose: str, key: str) -> random.Random:
        """The fault RNG for one (purpose, directed link)."""
        stream = self._streams.get((purpose, key))
        if stream is None:
            stream = random.Random(
                spawn_seed(self.plan.seed, "fault", purpose, key)
            )
            self._streams[(purpose, key)] = stream
        return stream

    # --- activation --------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        kind, target, params = event.kind, event.target, event.params
        # State toggles apply in every shard (any shard may consult
        # them on its half of a cut link); accounting, journaling and
        # node mutations happen only where the canonical recorder node
        # is owned — one logical fault, one audit event, one count.
        record = self._sim.owns(self._owner_hint(event))
        cleared = False
        if kind == FaultKind.LINK_DOWN:
            self._down_links.add(target)
        elif kind == FaultKind.LINK_UP:
            self._down_links.discard(target)
            cleared = True
        elif kind == FaultKind.LINK_LOSS:
            rate = float(params.get("rate", 0.0))
            if rate > 0:
                self._loss[target] = rate
            else:
                self._loss.pop(target, None)
                cleared = True
        elif kind == FaultKind.PACKET_CORRUPT:
            rate = float(params.get("rate", 0.0))
            if rate > 0:
                self._corrupt[target] = rate
            else:
                self._corrupt.pop(target, None)
                cleared = True
        elif kind == FaultKind.NODE_CRASH:
            self._down_nodes.add(target)
        elif kind == FaultKind.NODE_RESTART:
            self._down_nodes.discard(target)
            cleared = True
        elif kind == FaultKind.CLOCK_SKEW:
            if record:
                self._apply_clock_skew(
                    target, float(params.get("skew_s", 0.0))
                )
        elif kind == FaultKind.SWITCH_COMPROMISE:
            if record:
                self._apply_compromise(event)
        elif kind == FaultKind.EVIDENCE_TAMPER:
            self._tamper.add(target)
        elif kind == FaultKind.EVIDENCE_STRIP_OOB:
            self._strip_oob.add(target)
        elif kind == FaultKind.EVIDENCE_STRIP_INBAND:
            self._strip_inband.add(target)
        if not record:
            return
        if cleared:
            self.stats.cleared += 1
        else:
            self.stats.injected += 1
        tel = self._telemetry
        if tel is not None and tel.active:
            tel.audit_event(
                AuditKind.FAULT_CLEARED if cleared else AuditKind.FAULT_INJECTED,
                _AUDIT_ACTOR,
                fault=kind,
                target=target,
            )
            # Cumulative change-event counters (the gauges named
            # ``faults.*`` are end-of-run snapshots): the flight
            # recorder samples these, so health rules can correlate a
            # fault's *activation window* with its symptoms — the only
            # frame-visible signal for faults whose dataplane effect is
            # silent here (e.g. clock skew under TRAFFIC_PATH).
            tel.counter(
                "faults.events",
                fault=kind,
                status="cleared" if cleared else "injected",
            ).inc()

    def _apply_compromise(self, event: FaultEvent) -> None:
        """Swap the tampered program in through P4Runtime arbitration.

        Duck-typed on ``runtime`` so this layer never imports PISA;
        the rogue program itself comes from the plan's factory.
        """
        node = self._sim.node(event.target)
        runtime = getattr(node, "runtime", None)
        if runtime is None:
            raise NetworkError(
                f"cannot compromise {event.target!r}: node has no P4Runtime"
            )
        factory = event.params["program_factory"]
        actor = str(event.params.get("actor", "attacker"))
        runtime.arbitrate(actor, COMPROMISE_ELECTION_ID)
        runtime.set_forwarding_pipeline_config(actor, factory())
        configure = event.params.get("configure")
        if configure is not None:
            configure(node, actor)

    def _apply_clock_skew(self, target: str, skew_s: float) -> None:
        node = self._sim.node(target)
        apply_skew = getattr(node, "apply_clock_skew", None)
        if apply_skew is not None:
            apply_skew(skew_s)
            return
        cache = getattr(node, "cache", None)
        bind = getattr(cache, "bind_clock", None)
        if bind is None:
            raise NetworkError(
                f"cannot skew clock of {target!r}: no skewable cache clock"
            )
        bind(SkewedClock(self._sim.clock, skew_s))

    # --- hooks the simulator consults --------------------------------------

    def node_is_down(self, name: str) -> bool:
        return name in self._down_nodes

    def filter_transmit(
        self, from_node: str, to_node: str, packet, detect_corruption: bool = False
    ) -> Tuple[Optional[str], Any]:
        """Apply link faults to one transmission attempt.

        Returns ``(drop_reason, packet)``: a non-None reason means the
        attempt is lost (the simulator counts the drop and may spend
        its resend budget); otherwise the possibly-mutated packet
        proceeds onto the wire.

        ``detect_corruption`` models a link whose receiver checks
        frame CRCs (the qdisc recovery protocol): a bit flip still
        happens on the wire, but instead of the corrupted packet
        propagating, the attempt is *lost* (``fault_corrupt``) for the
        sender to retransmit. Semantic attacks — record stripping,
        which rewrites the packet into a CRC-valid one — are
        deliberately *not* detectable this way.
        """
        key = link_key(from_node, to_node)
        directed = f"{from_node}>{to_node}"
        if key in self._down_links:
            self.stats.link_down_drops += 1
            return "fault_link_down", packet
        rate = self._loss.get(key, 0.0)
        if rate > 0 and self._stream("loss", directed).random() < rate:
            self.stats.extra_losses += 1
            return "fault_link_loss", packet
        if key in self._strip_inband:
            packet = self._strip_records(packet)
        rate = self._corrupt.get(key, 0.0)
        if rate > 0:
            rng = self._stream("corrupt", directed)
            if rng.random() < rate:
                if detect_corruption:
                    self.stats.packets_corrupted += 1
                    tel = self._telemetry
                    if tel.active:
                        tel.audit_event(
                            AuditKind.FAULT_INJECTED,
                            _AUDIT_ACTOR,
                            trace=packet.trace,
                            fault="bit_flip_detected",
                            target="packet",
                        )
                    return "fault_corrupt", packet
                packet = self._corrupt_packet(packet, rng)
        return None, packet

    def filter_control(
        self, sender: str, recipient: str, message: Any, trace=None
    ) -> Tuple[Optional[str], Any]:
        """Apply evidence faults to one control-channel send."""
        if sender in self._strip_oob:
            self.stats.control_stripped += 1
            return "fault_stripped", message
        if sender in self._tamper:
            tampered = self._tamper_message(message)
            if tampered is not message:
                self.stats.control_tampered += 1
                tel = self._telemetry
                if tel.active:
                    tel.audit_event(
                        AuditKind.FAULT_INJECTED,
                        _AUDIT_ACTOR,
                        trace=trace,
                        fault="signature_tamper",
                        target=sender,
                    )
                return None, tampered
        return None, message

    # --- per-packet mutations ----------------------------------------------

    def _corrupt_packet(self, packet, rng: random.Random):
        """Flip one byte: payload if present, else the shim body.

        Same-length mutation keeps every header length field
        consistent, so corruption is a semantic fault (bad signature,
        bad digest, undecodable TLV) rather than a framing crash.
        ``rng`` is the corrupting link's own stream, so the chosen
        byte replays identically under sharding.
        """
        mutated = packet
        if packet.payload:
            index = rng.randrange(len(packet.payload))
            payload = bytearray(packet.payload)
            payload[index] ^= 0xFF
            mutated = replace(packet, payload=bytes(payload))
        elif packet.ra_shim is not None and packet.ra_shim.body:
            shim = packet.ra_shim
            index = rng.randrange(len(shim.body))
            body = bytearray(shim.body)
            body[index] ^= 0xFF
            mutated = packet.with_shim(replace(shim, body=bytes(body)))
        if mutated is not packet:
            self.stats.packets_corrupted += 1
            tel = self._telemetry
            if tel.active:
                tel.audit_event(
                    AuditKind.FAULT_INJECTED,
                    _AUDIT_ACTOR,
                    trace=packet.trace,
                    fault="bit_flip",
                    target="packet",
                )
        return mutated

    def _strip_records(self, packet):
        """Remove accumulated hop records from the shim (the classic
        in-path evidence-stripping attack the coverage check catches:
        the shim's hop count stays, the records vanish)."""
        shim = packet.ra_shim
        if shim is None or not shim.body:
            return packet
        try:
            records = decode_record_stack(shim.body)
        except Exception:
            return packet
        if not records:
            return packet
        stripped_len = sum(len(record.wire) for record in records)
        new_body = shim.body[: len(shim.body) - stripped_len]
        self.stats.records_stripped += len(records)
        tel = self._telemetry
        if tel.active:
            tel.audit_event(
                AuditKind.FAULT_INJECTED,
                _AUDIT_ACTOR,
                trace=packet.trace,
                fault="record_strip",
                target="packet",
                records=len(records),
            )
        return packet.with_shim(replace(shim, body=new_body))

    @staticmethod
    def _tamper_message(message: Any) -> Any:
        """Corrupt a signed control message's signature in flight."""
        signature = getattr(message, "signature", None)
        if (
            not is_dataclass(message)
            or not isinstance(signature, bytes)
            or not signature
        ):
            return message
        corrupted = signature[:-1] + bytes((signature[-1] ^ 0xFF,))
        try:
            return replace(message, signature=corrupted)
        except (TypeError, ValueError):
            return message


__all__ = ["COMPROMISE_ELECTION_ID", "FaultInjector", "FaultStats"]
