"""A PERA switch that interprets compiled policies arriving in-band.

This closes the §5.2 loop: the relying party compiles a hybrid policy
into the RA options header; every :class:`NetworkAwarePeraSwitch` on
the path decodes it, evaluates the ▶ test against its local state
("fail early and avoid the attestation effort"), and — when the test
holds — attests at the policy's requested detail/composition, pushing
evidence in-band or diverting it out-of-band to the appraiser the
policy names.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.compiler import CompiledPolicy, HopDirective
from repro.core.wire import decode_compiled_policy
from repro.netkat.ast import Predicate, Value
from repro.netkat.parser import parse_predicate
from repro.netkat.semantics import NkPacket, eval_predicate
from repro.pera.config import EvidenceConfig
from repro.evidence.nodes import HopEvidence
from repro.pera.switch import PeraSwitch
from repro.pisa.pipeline import DROP_PORT, PacketContext
from repro.telemetry.audit import AuditKind
from repro.util.errors import CodecError


class NetworkAwarePeraSwitch(PeraSwitch):
    """PERA + the hybrid-policy interpreter."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Extra facts the ▶ tests may reference (e.g. AP2's pattern
        # flag); table hits are added automatically per packet.
        self.test_env: Dict[str, Value] = {}
        self.tests_evaluated = 0
        self.tests_failed = 0
        self.policies_seen: Dict[str, int] = {}
        self._predicate_cache: Dict[str, Predicate] = {}

    # --- the ▶ test -----------------------------------------------------------

    def _test_packet_fields(self, ctx: PacketContext) -> NkPacket:
        """The evaluation environment for guard predicates."""
        fields: Dict[str, Value] = {
            "switch": self.name,
            "port": ctx.ingress_port,
            "attests": 1,
        }
        for name, value in ctx.fields.items():
            fields[name] = value
        for entry in ctx.trace:
            table, _, outcome = entry.partition(":")
            if outcome.startswith("hit"):
                fields[f"hit_{table}"] = 1
        fields.update(self.test_env)
        return NkPacket(fields)

    def evaluate_test(self, test_text: str, ctx: PacketContext) -> bool:
        """Evaluate a serialized ▶ predicate against this hop."""
        if not test_text:
            return True
        predicate = self._predicate_cache.get(test_text)
        if predicate is None:
            predicate = parse_predicate(test_text)
            self._predicate_cache[test_text] = predicate
        self.tests_evaluated += 1
        outcome = eval_predicate(predicate, self._test_packet_fields(ctx))
        if not outcome:
            self.tests_failed += 1
        return outcome

    # --- packet path ------------------------------------------------------------

    def process_context(self, ctx: PacketContext) -> PacketContext:
        packet = ctx.packet
        compiled: Optional[CompiledPolicy] = None
        if packet is not None and packet.ra_shim is not None:
            try:
                compiled = decode_compiled_policy(packet.ra_shim.body)
            except CodecError as exc:
                # Fail closed: a policy nobody can read is not forwarded
                # unattested.
                self._note_undecodable(packet, f"policy undecodable: {exc}")
                ctx.egress_spec = DROP_PORT
                return ctx
        if compiled is None:
            return super().process_context(ctx)
        return self._process_with_policy(ctx, compiled)

    def _process_with_policy(
        self, ctx: PacketContext, compiled: CompiledPolicy
    ) -> PacketContext:
        # Run the ordinary pipeline first (forwarding decision).
        ctx = PeraSwitch.__mro__[1].process_context(self, ctx)  # PisaSwitch
        if ctx.egress_spec == DROP_PORT:
            return ctx
        packet = ctx.packet
        if packet is None or packet.ra_shim is None:
            return ctx
        self.policies_seen[compiled.policy_id] = (
            self.policies_seen.get(compiled.policy_id, 0) + 1
        )
        tel = self.telemetry
        trace = packet.trace
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
        directive = compiled.hop
        if not self.evaluate_test(directive.test_text, ctx):
            # Fail early: no attestation effort, but the hop still
            # counts itself so the appraiser sees path coverage.
            if tel.active:
                tel.audit_event(
                    AuditKind.POLICY_TEST_FAILED,
                    self.name,
                    trace=trace,
                    policy=compiled.policy_id,
                    test=directive.test_text,
                )
            ctx.packet = packet.with_shim(packet.ra_shim.with_hop())
            return ctx
        now = self.sim.clock.now if self.sim is not None else 0.0
        if not self.sampler.should_attest(now, packet.five_tuple):
            self.ra_stats.packets_skipped_by_sampling += 1
            ctx.packet = packet.with_shim(packet.ra_shim.with_hop())
            return ctx
        record = self._produce_with_directive(ctx, records, directive)
        self.ra_stats.packets_attested += 1
        if self.config.batching is not None and not record.signature:
            self._enqueue_batched(
                ctx,
                record,
                trace,
                oob=bool(directive.out_of_band_to),
                oob_target=directive.out_of_band_to or None,
            )
            return ctx
        if directive.out_of_band_to:
            previous_target = self.appraiser_node
            self.appraiser_node = directive.out_of_band_to
            try:
                self._send_out_of_band(record, trace=trace)
            finally:
                self.appraiser_node = previous_target
            ctx.packet = packet.with_shim(packet.ra_shim.with_hop())
        else:
            ctx.packet = self._push_in_band(packet, record)
            if self.mirror_out_of_band and self.appraiser_node is not None:
                self._send_out_of_band(record, trace=trace)
        return ctx

    def _produce_with_directive(
        self,
        ctx: PacketContext,
        prior_records: List[HopEvidence],
        directive: HopDirective,
    ) -> HopEvidence:
        """Produce a record at the policy's requested design point."""
        requested = EvidenceConfig(
            detail=directive.detail,
            composition=directive.composition,
            sampling=self.config.sampling,
            cache_ttls=self.config.cache_ttls,
            use_pseudonyms=self.config.use_pseudonyms,
            batching=self.config.batching,
        )
        previous_config = self.config
        self.config = requested
        try:
            return self._produce_record(ctx, prior_records)
        finally:
            self.config = previous_config
