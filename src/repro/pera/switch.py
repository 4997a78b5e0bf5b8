"""PeraSwitch: the attesting switch of the paper's Fig. 3.

Extends :class:`~repro.pisa.switch.PisaSwitch` with the two RA blocks:

- **Sign/Verify** — an Ed25519 root of trust keyed per switch.
- **Evidence Create/Inspect/Compose** — builds :class:`HopEvidence`s per
  the configured design-space point, pushes them in-band (into the RA
  shim header) or sends them out-of-band (control channel to the
  appraiser), and can inspect records on incoming packets for
  evidence-gated forwarding (use case UC3).

Cost accounting mirrors Fig. 3's concern ("Evidence-handling is tuned
to balance performance and security"): every measurement, hash and
signature adds to ``ra_cost`` using the pipeline's cost model, and the
cache avoids exactly the operations a real ASIC would want to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import HashChain
from repro.crypto.keys import KeyPair
from repro.faults.retry import RetryPolicy
from repro.net.headers import RaShimHeader
from repro.net.packet import Packet
from repro.pera.cache import EvidenceCache
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.epoch import EpochBatcher, SealedEpoch
from repro.pera.inertia import InertiaClass
from repro.pera.measurement import MeasurementEngine
from repro.evidence.codec import (
    decode_record_stack,
    encode_record_stack,
)
from repro.evidence.nodes import HopEvidence, hop_link_digest
from repro.pera.sampling import Sampler
from repro.pisa.pipeline import DROP_PORT, PacketContext
from repro.pisa.switch import PisaSwitch
from repro.telemetry.audit import AuditKind, Check
from repro.telemetry.spans import NULL_SPAN
from repro.util.clock import SimClock, SkewedClock
from repro.util.errors import CodecError, PipelineError


@dataclass
class RaStats:
    """Per-switch attestation accounting."""

    packets_attested: int = 0
    packets_skipped_by_sampling: int = 0
    measurements_taken: int = 0
    records_created: int = 0
    records_from_cache: int = 0
    signatures_produced: int = 0
    out_of_band_sent: int = 0
    evidence_bytes_added: int = 0
    gated_drops: int = 0
    # Out-of-band delivery resilience (see the switch's retry_policy).
    oob_send_failures: int = 0
    oob_retries: int = 0
    oob_recovered: int = 0
    oob_gave_up: int = 0
    # Incoming shim bodies that would not decode (bit corruption).
    undecodable_evidence: int = 0
    # Epoch-batched signing (config.batching): one root signature per
    # sealed epoch instead of one per record.
    epochs_sealed: int = 0
    records_batched: int = 0


@dataclass(frozen=True)
class HopPlan:
    """What the Fig. 3 Evidence block does at one hop.

    A :class:`PeraSwitch` builds its own plan once, from its constructor
    arguments; a policy hop (``NetworkAwarePeraSwitch``) hands the block
    its hop directive's plan instead. The block reads the design point,
    the delivery and the ▶ test from the plan alone.
    """

    config: EvidenceConfig
    #: Send the record to ``to`` instead of pushing it into the shim.
    out_of_band: bool = False
    #: The appraiser of out-of-band records and of in-band mirror copies.
    to: Optional[str] = None
    #: A policy hop's ▶ test (NetKAT source, "" for none) and its policy.
    test_text: str = ""
    policy_id: str = ""

    @cached_property
    def cache_tag(self) -> bytes:
        """The state tag a cached record is kept under: its detail."""
        return self.config.detail.value.encode()


class PeraSwitch(PisaSwitch):
    """A PISA switch extended with remote attestation."""

    def __init__(
        self,
        name: str,
        config: Optional[EvidenceConfig] = None,
        hardware_identity: Optional[bytes] = None,
        appraiser_node: Optional[str] = None,
        out_of_band: bool = False,
        pseudonym: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        mirror_out_of_band: bool = False,
    ) -> None:
        super().__init__(name)
        self._plan = HopPlan(
            config or EvidenceConfig(), out_of_band, appraiser_node
        )
        self.keys = KeyPair.generate(name)
        self.engine = MeasurementEngine(
            hardware_identity or f"asic-serial-{name}".encode()
        )
        self.sampler = Sampler(self.config.sampling)
        self.pseudonym = pseudonym
        # Retry/backoff for out-of-band evidence the control channel
        # rejects at send time (crashed appraiser, stripped channel).
        self.retry_policy = retry_policy
        # Also copy in-band evidence to the appraiser (audit mirror),
        # when an appraiser_node is configured.
        self.mirror_out_of_band = mirror_out_of_band
        self.ra_stats = RaStats()
        self.ra_cost = 0.0
        self._attest_sequence = 0
        self._cache: Optional[EvidenceCache[HopEvidence]] = None
        self._batcher: Optional[EpochBatcher] = None
        # (epoch_id, absolute deadline) of the armed epoch timer, for
        # the sharded runner's window-barrier sweep (see
        # :meth:`seal_overdue_epochs`).
        self._epoch_deadline: Optional[Tuple[int, float]] = None
        # (epoch_id, sim time the first record arrived) — feeds the
        # deterministic seal-latency histogram at seal time.
        self._epoch_opened_at: Optional[Tuple[int, float]] = None
        # Control-plane writes invalidate cached evidence immediately.
        self.runtime.change_observers.append(self._on_control_change)
        # Evidence gate (UC3): when set, packets failing the gate drop.
        self.evidence_gate: Optional[
            Callable[[PacketContext, List[HopEvidence]], bool]
        ] = None

    @property
    def config(self) -> EvidenceConfig:
        return self._plan.config

    @property
    def appraiser_node(self) -> Optional[str]:
        return self._plan.to

    @property
    def out_of_band(self) -> bool:
        return self._plan.out_of_band

    @out_of_band.setter
    def out_of_band(self, value: bool) -> None:
        self._plan = replace(self._plan, out_of_band=value)

    # --- lifecycle -----------------------------------------------------------

    def on_bind(self, sim) -> None:
        super().on_bind(sim)
        self._cache = EvidenceCache(sim.clock)
        # Epoch sealing joins the window barrier under sharding: the
        # hook catches a deadline that fell exactly at a window edge
        # (the monolithic engine never fires barrier hooks, and the
        # armed timer event already handles everything in-window).
        sim.add_barrier_hook(self.seal_overdue_epochs)

    @property
    def cache(self) -> EvidenceCache:
        if self._cache is None:
            # Unbound switches (unit tests) get a standalone clock.
            self._cache = EvidenceCache(SimClock())
        return self._cache

    def _on_control_change(self, kind: str) -> None:
        """P4Runtime observer: a write happened on this device.

        A program install invalidates everything; a table write
        invalidates table evidence, and also the cached signed record
        when it measured the tables.
        """
        if self._cache is None:
            return
        if kind == "config":
            self.cache.invalidate()
        elif kind == "table":
            self.cache.invalidate(InertiaClass.TABLES)
            cached = self.cache.peek(InertiaClass.PROGRAM)
            if (
                cached is not None
                and cached.measurement_for(InertiaClass.TABLES) is not None
            ):
                self.cache.invalidate(InertiaClass.PROGRAM)

    @property
    def attesting_identity(self) -> str:
        return self.pseudonym or self.name

    @property
    def epoch_batcher(self) -> EpochBatcher:
        """The epoch batcher (batched mode only), created on first use."""
        if self._batcher is None:
            if self.config.batching is None:
                raise PipelineError(
                    f"switch {self.name!r} is not configured for batching"
                )
            self._batcher = EpochBatcher(
                self.attesting_identity, self.keys, self.config.batching
            )
        return self._batcher

    # --- packet path ------------------------------------------------------------

    def process_context(
        self, ctx: PacketContext, plan: Optional[HopPlan] = None
    ) -> PacketContext:
        """The pipeline, then the Evidence block run to ``plan`` (by
        default this switch's own)."""
        ctx = super().process_context(ctx)
        if ctx.egress_spec == DROP_PORT:
            return ctx
        packet = ctx.packet
        wants_ra = ctx.mark_ra or (packet is not None and packet.ra_shim is not None)
        if not wants_ra:
            return ctx
        plan = plan or self._plan
        tel = self.telemetry
        trace = packet.trace if tel.active and packet is not None else None
        records = self.inspect_evidence(packet)
        if tel.active and records:
            tel.audit_event(
                AuditKind.EVIDENCE_INSPECTED,
                self.name,
                trace=trace,
                records=len(records),
                digest=records[-1].content_digest,
            )
        if self.evidence_gate is not None and not self.evidence_gate(ctx, records):
            self.ra_stats.gated_drops += 1
            if tel.active:
                tel.audit_event(
                    AuditKind.GATE_DROPPED,
                    self.name,
                    trace=trace,
                    records=len(records),
                )
            ctx.egress_spec = DROP_PORT
            return ctx
        if plan.test_text and not self._test_holds(plan, ctx):
            # Fail early: no attestation effort, but the hop still
            # counts itself so the appraiser sees path coverage.
            _count_hop(ctx)
            return ctx
        now = self.sim.clock.now if self.sim is not None else 0.0
        flow_key = packet.five_tuple if packet is not None else ()
        if not self.sampler.should_attest(now, flow_key):
            self.ra_stats.packets_skipped_by_sampling += 1
            _count_hop(ctx)
            return ctx
        self.attest(ctx, records, plan, trace)
        return ctx

    def _test_holds(self, plan: HopPlan, ctx: PacketContext) -> bool:
        """A policy hop's ▶ test; :class:`NetworkAwarePeraSwitch`
        evaluates it (a switch's own plan carries none)."""
        return True

    def attest(
        self,
        ctx: PacketContext,
        prior_records: Sequence[HopEvidence] = (),
        plan: Optional[HopPlan] = None,
        trace=None,
    ) -> None:
        """Fig. 3 Create/Compose, then deliver the record per ``plan``
        (by default this switch's own): now, or when its epoch seals."""
        plan = plan or self._plan
        record = self._produce_record(ctx, prior_records, plan)
        self.ra_stats.packets_attested += 1
        if plan.out_of_band:
            _count_hop(ctx)  # the packet moves on; its evidence travels apart
        if record.signature:
            self._deliver(ctx, record, plan, trace)
        else:
            self._enqueue_batched(ctx, record, plan, trace)

    def _deliver(
        self, ctx: PacketContext, record: HopEvidence, plan: HopPlan, trace
    ) -> None:
        """Fig. 3 (E) out-of-band send, or (D) in-band push plus the
        audit mirror; a packet parked for its epoch is emitted here."""
        packet = ctx.packet
        if plan.out_of_band:
            self._send_out_of_band(record, plan.to, trace)
        elif packet is not None and packet.ra_shim is not None:
            ctx.packet = self._push_in_band(packet, record)
            if self.mirror_out_of_band and plan.to is not None:
                self._send_out_of_band(record, plan.to, trace)
        if ctx.parked and self.sim is not None:
            # Past the parked check in :meth:`emit`; the flag stays set
            # so the frame that parked the packet does not emit it again.
            PisaSwitch.emit(self, ctx)

    # --- the Evidence block -----------------------------------------------------

    def inspect_evidence(self, packet: Optional[Packet]) -> List[HopEvidence]:
        """Fig. 3 'Inspect': parse the record stack off the shim body.

        A body that will not decode (bit corruption in flight) is
        treated as carrying no usable evidence — counted and journaled,
        never a pipeline crash; downstream appraisal then fails the
        coverage check instead of the whole simulation.
        """
        if packet is None or packet.ra_shim is None:
            return []
        try:
            return decode_record_stack(packet.ra_shim.body)
        except CodecError as exc:
            self._note_undecodable(packet, f"evidence stack undecodable: {exc}")
            return []

    def _note_undecodable(self, packet: Packet, message: str) -> None:
        """Count and journal (one ``check.failed``) a bad shim body."""
        self.ra_stats.undecodable_evidence += 1
        tel = self.telemetry
        if tel.active:
            tel.audit_event(
                AuditKind.CHECK_FAILED,
                self.name,
                trace=packet.trace,
                check=Check.SHIM,
                message=message,
            )

    def _produce_record(
        self,
        ctx: PacketContext,
        prior_records: Sequence[HopEvidence],
        plan: HopPlan,
    ) -> HopEvidence:
        """Fig. 3 'Create/Compose': build this hop's signed record.

        Bracketed in a ``pera.attest`` span (with the signing step in
        its own nested ``pera.sign`` span) when telemetry is active —
        the null-span fast path makes this free otherwise. Every step
        (measurement, cache lookup, composition, signature) lands in
        the audit journal linked to the packet's trace context.
        """
        tel = self.telemetry
        if not tel.active:  # skip even the null-span plumbing per packet
            return self._produce_record_inner(
                ctx, prior_records, plan, NULL_SPAN, None
            )
        trace = getattr(ctx.packet, "trace", None)
        tags = trace.span_args() if trace is not None else {}
        with tel.span("pera.attest", track=self.name, **tags) as span:
            record = self._produce_record_inner(
                ctx, prior_records, plan, span, trace
            )
        return record

    def _produce_record_inner(
        self,
        ctx: PacketContext,
        prior_records: Sequence[HopEvidence],
        plan: HopPlan,
        span,
        trace,
    ) -> HopEvidence:
        config = plan.config
        tel = self.telemetry
        cost = self.pipeline.cost_model if self.runtime.pipeline else None
        cacheable = not config.per_packet_signature
        if cacheable:
            cached = self.cache.get(InertiaClass.PROGRAM, plan.cache_tag)
            if cached is not None:
                self.ra_stats.records_from_cache += 1
                span.note(cached=True)
                if tel.active:
                    tel.audit_event(
                        AuditKind.EVIDENCE_CACHE_HIT,
                        self.name,
                        trace=trace,
                        digest=cached.content_digest,
                    )
                return cached
            if tel.active:
                tel.audit_event(
                    AuditKind.EVIDENCE_CACHE_MISS, self.name, trace=trace
                )

        measurements: List[Tuple[InertiaClass, bytes]] = []
        for inertia in config.detail.inertia_classes:
            if inertia is InertiaClass.PACKETS:
                continue  # bound separately via packet_digest
            value = self.engine.measure(
                inertia, self.runtime.pipeline, ctx
            )
            measurements.append((inertia, value))
            self.ra_stats.measurements_taken += 1
            if cost is not None:
                self.ra_cost += cost.hash_per_byte * 64
            if tel.active:
                tel.audit_event(
                    AuditKind.MEASUREMENT_TAKEN,
                    self.name,
                    trace=trace,
                    digest=value,
                    inertia=inertia.name.lower(),
                )

        chain_head: Optional[bytes] = None
        if config.composition in (
            CompositionMode.CHAINED,
            CompositionMode.TRAFFIC_PATH,
        ):
            previous = (
                prior_records[-1].chain_head
                if prior_records and prior_records[-1].chain_head is not None
                else HashChain.GENESIS
            )
            chain = HashChain(head=previous)
            chain_head = chain.extend(
                hop_link_digest(value for _, value in measurements)
            )
            if cost is not None:
                self.ra_cost += cost.hash_per_byte * 64
            if tel.active:
                tel.audit_event(
                    AuditKind.EVIDENCE_COMPOSED,
                    self.name,
                    trace=trace,
                    digest=chain_head,
                    mode=config.composition.name.lower(),
                    prior_records=len(prior_records),
                )

        packet_digest: Optional[bytes] = None
        if config.needs_packet_digest:
            packet_digest = self.engine.measure(
                InertiaClass.PACKETS, self.runtime.pipeline, ctx
            )
            self.ra_stats.measurements_taken += 1
            if cost is not None:
                self.ra_cost += cost.hash_per_byte * max(
                    len(ctx.payload) + 64, 64
                )

        self._attest_sequence += 1
        unsigned = HopEvidence(
            place=self.attesting_identity,
            measurements=tuple(measurements),
            sequence=self._attest_sequence,
            # A cacheable (reusable) record must not claim anything
            # packet-scoped: the ingress port belongs to one packet.
            ingress_port=None if cacheable else ctx.ingress_port,
            chain_head=chain_head,
            packet_digest=packet_digest,
        )
        if config.batching is not None and not cacheable:
            # Epoch-batched: the record stays unsigned here; the epoch
            # batcher signs one Merkle root over the whole epoch and the
            # per-epoch accounting happens in _on_epoch_sealed. Batching
            # replaces only per-packet signatures: a cacheable record
            # already reuses one signature, and proofs would add bytes.
            record = unsigned
        elif tel.active:
            sign_tags = trace.span_args() if trace is not None else {}
            with tel.span("pera.sign", track=self.name, **sign_tags):
                record = unsigned.sign_with(self.keys)
        else:
            record = unsigned.sign_with(self.keys)
        self.ra_stats.records_created += 1
        if record.signature:
            self.ra_stats.signatures_produced += 1
            if cost is not None:
                self.ra_cost += cost.sign
        if tel.active:
            record_digest = record.content_digest
            if record.signature:
                tel.audit_event(
                    AuditKind.SIGNATURE_MADE,
                    self.name,
                    trace=trace,
                    digest=record_digest,
                    signer=self.attesting_identity,
                )
            tel.audit_event(
                AuditKind.EVIDENCE_CREATED,
                self.name,
                trace=trace,
                digest=record_digest,
                place=record.place,
                sequence=record.sequence,
            )
        if cacheable:
            self.cache.put(InertiaClass.PROGRAM, plan.cache_tag, record)
        return record

    def _push_in_band(self, packet: Packet, record: HopEvidence) -> Packet:
        """Fig. 3 (D): append this hop's record to the shim body."""
        shim = packet.ra_shim
        new_body = shim.body + encode_record_stack([record])
        self.ra_stats.evidence_bytes_added += len(new_body) - len(shim.body)
        new_shim = RaShimHeader(
            flags=shim.flags | RaShimHeader.FLAG_EVIDENCE,
            hop_count=shim.hop_count + 1,
            body=new_body,
        )
        if self.telemetry.active:
            self.telemetry.audit_event(
                AuditKind.EVIDENCE_PUSHED,
                self.name,
                trace=packet.trace,
                digest=record.content_digest,
                bytes=len(new_body) - len(shim.body),
                shim_hops=new_shim.hop_count,
            )
        return packet.with_shim(new_shim)

    # --- epoch batching (config.batching) ---------------------------------

    def _enqueue_batched(
        self, ctx: PacketContext, record: HopEvidence, plan: HopPlan, trace
    ) -> None:
        """Queue an unsigned record for the open epoch.

        Out-of-band mode forwards the packet immediately (its hop count
        already bumped); the evidence follows at seal time. In-band mode
        *parks* the packet — its shim must carry the proof-bearing
        record, which only exists once the epoch root is signed — and
        the seal's :meth:`_deliver` pushes the record and emits it.
        """
        batcher = self.epoch_batcher
        spec = plan.config.batching
        if batcher.open_count == 0 and self.sim is not None:
            self._epoch_opened_at = (batcher.epoch_id, self.sim.clock.now)
        if (
            batcher.open_count == 0
            and self.sim is not None
            and spec.max_delay_s > 0
        ):
            # Arm the epoch deadline when the first record arrives; the
            # callback is a no-op if the epoch already sealed on count.
            epoch_id = batcher.epoch_id
            self._epoch_deadline = (
                epoch_id, self.sim.clock.now + spec.max_delay_s
            )
            self.sim.schedule(
                spec.max_delay_s, lambda: self._seal_epoch_if(epoch_id)
            )
        packet = ctx.packet
        has_shim = packet is not None and packet.ra_shim is not None
        if has_shim and not plan.out_of_band:
            ctx.parked = True
        batcher.add(
            record, lambda batched: self._deliver(ctx, batched, plan, trace)
        )
        if batcher.open_count >= spec.max_records:
            self._seal_epoch("count")

    def _seal_epoch(self, reason: str) -> None:
        self.epoch_batcher.seal(reason=reason, on_sealed=self._on_epoch_sealed)

    def _seal_epoch_if(self, epoch_id: int) -> None:
        """Timer callback: seal epoch ``epoch_id`` if still open."""
        self.epoch_batcher.seal_if(
            epoch_id, reason="timer", on_sealed=self._on_epoch_sealed
        )

    def flush_epochs(self) -> None:
        """Seal any open epoch now (end of run, link teardown)."""
        if self._batcher is not None and self._batcher.open_count:
            self._seal_epoch("flush")

    def seal_overdue_epochs(self) -> None:
        """Window-barrier hook: seal the open epoch if its armed
        deadline has passed.

        Inside a lookahead window the armed timer event itself seals
        the epoch (it sorts before any later event), so this sweep is
        provably a no-op mid-run; it matters only when a bounded run
        stops at ``until`` with the deadline beyond the final window.
        Sealing here uses reason ``"timer"`` via the same
        epoch-id-guarded path, so barrier timing can never double-seal.
        """
        if self._batcher is None or not self._batcher.open_count:
            return
        if self._epoch_deadline is None or self.sim is None:
            return
        epoch_id, deadline = self._epoch_deadline
        if deadline <= self.sim.clock.now:
            self._seal_epoch_if(epoch_id)

    def _on_epoch_sealed(self, sealed: SealedEpoch) -> None:
        """Account one epoch-root signature (fires before the releases)."""
        self.ra_stats.epochs_sealed += 1
        self.ra_stats.records_batched += sealed.leaf_count
        self.ra_stats.signatures_produced += 1
        if self.runtime.pipeline:
            cost = self.pipeline.cost_model
            # One signature plus the Merkle tree build: ~2n-1 hashes of
            # 64-byte nodes for n leaves.
            self.ra_cost += cost.sign
            self.ra_cost += cost.hash_per_byte * 64 * max(
                2 * sealed.leaf_count - 1, 1
            )
        tel = self.telemetry
        if tel.active:
            tel.audit_event(
                AuditKind.SIGNATURE_MADE,
                self.name,
                digest=sealed.root,
                signer=self.attesting_identity,
                epoch=sealed.epoch_id,
            )
            tel.audit_event(
                AuditKind.EPOCH_SEALED,
                self.name,
                epoch=sealed.epoch_id,
                records=sealed.leaf_count,
                reason=sealed.reason,
            )
            # Cumulative seal counter + sim-time seal latency (first
            # record in → root signed): both deterministic — seal
            # times are already byte-pinned via the audit journal — so
            # the flight recorder samples them per window and health
            # rules can watch for a switch going silent.
            tel.counter("pera.epoch_sealed_events", switch=self.name).inc()
            if (
                self.sim is not None
                and self._epoch_opened_at is not None
                and self._epoch_opened_at[0] == sealed.epoch_id
            ):
                tel.histogram(
                    "pera.epoch_seal_sim_seconds", switch=self.name
                ).observe(self.sim.clock.now - self._epoch_opened_at[1])

    def emit(self, ctx: PacketContext) -> None:
        """Suppress emission for packets parked awaiting an epoch seal."""
        if ctx.parked:
            return
        super().emit(ctx)

    def _send_out_of_band(
        self, record: HopEvidence, to: Optional[str], trace=None
    ) -> None:
        """Fig. 3 (E): evidence leaves separately, to the appraiser ``to``.

        ``send_control`` refusing the message (crashed appraiser,
        stripped channel) is no longer silent: failures are counted,
        and with a :class:`RetryPolicy` configured the switch re-offers
        the record to the same target on the simulator's clock with
        exponential backoff — journaled as ``recovery.retry`` /
        ``recovery.recovered`` / ``recovery.gave_up`` so the audit trail
        tells the whole story.
        """
        if self.sim is None or to is None:
            raise PipelineError(
                f"switch {self.name!r} has no out-of-band appraiser configured"
            )
        self.ra_stats.out_of_band_sent += 1
        if self.telemetry.active:
            self.telemetry.audit_event(
                AuditKind.EVIDENCE_SENT_OOB,
                self.name,
                trace=trace,
                digest=record.content_digest,
                to=to,
            )
        delivered = self.sim.send_control(
            self.name, to, record, size_hint=len(record.wire), trace=trace
        )
        if not delivered:
            self.ra_stats.oob_send_failures += 1
            self._schedule_oob_retry(record, to, trace, attempt=1)

    def _schedule_oob_retry(
        self, record: HopEvidence, to: str, trace, attempt: int
    ) -> None:
        policy = self.retry_policy
        tel = self.telemetry
        if policy is None or attempt >= policy.max_attempts:
            self.ra_stats.oob_gave_up += 1
            if tel.active:
                tel.audit_event(
                    AuditKind.RECOVERY_GAVE_UP,
                    self.name,
                    trace=trace,
                    digest=record.content_digest,
                    to=to,
                    attempts=attempt,
                )
            return
        delay = policy.backoff_delay(attempt)
        self.ra_stats.oob_retries += 1
        if tel.active:
            tel.audit_event(
                AuditKind.RECOVERY_RETRY,
                self.name,
                trace=trace,
                digest=record.content_digest,
                to=to,
                attempt=attempt,
                delay_s=delay,
            )

        def retry() -> None:
            delivered = self.sim.send_control(
                self.name, to, record, size_hint=len(record.wire), trace=trace
            )
            if delivered:
                self.ra_stats.oob_recovered += 1
                if tel.active:
                    tel.audit_event(
                        AuditKind.RECOVERY_RECOVERED,
                        self.name,
                        trace=trace,
                        digest=record.content_digest,
                        to=to,
                        attempts=attempt,
                    )
            else:
                self.ra_stats.oob_send_failures += 1
                self._schedule_oob_retry(record, to, trace, attempt + 1)

        self.sim.schedule(delay, retry)

    # --- fault hooks ------------------------------------------------------------

    def apply_clock_skew(self, skew_s: float) -> None:
        """Skew this switch's evidence-cache clock (clock-skew fault)."""
        base = self.sim.clock if self.sim is not None else SimClock()
        self.cache.bind_clock(SkewedClock(base, skew_s))


def _count_hop(ctx: PacketContext) -> None:
    """Bump the shim's hop count for a hop whose record is not pushed."""
    packet = ctx.packet
    if packet is not None and packet.ra_shim is not None:
        ctx.packet = packet.with_shim(packet.ra_shim.with_hop())
