"""A PERA switch that interprets compiled policies arriving in-band.

This closes the §5.2 loop: the relying party compiles a hybrid policy
into the RA options header; every :class:`NetworkAwarePeraSwitch` on
the path decodes it and hands its hop directive, as a
:class:`~repro.pera.switch.HopPlan`, to PERA's one Evidence block. That
block runs the ▶ test ("fail early and avoid the attestation effort")
and attests at the policy's detail/composition, in-band or out-of-band
to the appraiser the policy names.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.core.compiler import CompiledPolicy, HopDirective
from repro.core.wire import decode_compiled_policy
from repro.netkat.ast import Predicate, Value
from repro.netkat.parser import parse_predicate
from repro.netkat.semantics import NkPacket, eval_predicate
from repro.pera.switch import HopPlan, PeraSwitch
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
        self._predicate_cache: Dict[str, Predicate] = {}
        self._plans: Dict[Tuple[str, HopDirective], HopPlan] = {}

    # --- the ▶ test -----------------------------------------------------------

    def _test_packet_fields(self, ctx: PacketContext) -> NkPacket:
        """The evaluation environment for guard predicates."""
        fields: Dict[str, Value] = {
            "switch": self.name,
            "port": ctx.ingress_port,
            "attests": 1,
        }
        fields.update(ctx.fields)
        for table in ctx.hits:
            fields[f"hit_{table}"] = 1
        fields.update(self.test_env)
        return NkPacket(fields)

    def _test_holds(self, plan: HopPlan, ctx: PacketContext) -> bool:
        """Evaluate the plan's serialized ▶ predicate against this hop."""
        predicate = self._predicate_cache.get(plan.test_text)
        if predicate is None:
            predicate = parse_predicate(plan.test_text)
            self._predicate_cache[plan.test_text] = predicate
        self.tests_evaluated += 1
        if eval_predicate(predicate, self._test_packet_fields(ctx)):
            return True
        self.tests_failed += 1
        if self.telemetry.active:
            self.telemetry.audit_event(
                AuditKind.POLICY_TEST_FAILED,
                self.name,
                trace=ctx.packet.trace,
                policy=plan.policy_id,
                test=plan.test_text,
            )
        return False

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
        plan = None if compiled is None else self._plan_for(compiled)
        return super().process_context(ctx, plan)

    def _plan_for(self, compiled: CompiledPolicy) -> HopPlan:
        """The Evidence block's plan for ``compiled``'s hop directive."""
        key = (compiled.policy_id, compiled.hop)
        plan = self._plans.get(key)
        if plan is None:
            directive = compiled.hop
            plan = self._plans[key] = HopPlan(
                dataclasses.replace(
                    self.config,
                    detail=directive.detail,
                    composition=directive.composition,
                ),
                out_of_band=bool(directive.out_of_band_to),
                to=directive.out_of_band_to or self.appraiser_node,
                test_text=directive.test_text,
                policy_id=compiled.policy_id,
            )
        return plan
