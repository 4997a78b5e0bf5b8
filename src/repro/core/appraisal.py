"""Path-evidence appraisal: judging a whole traffic path at once.

Plain appraisers (:mod:`repro.ra.appraiser`) judge one attester. Path
appraisal judges the *sequence* of hop records a packet accumulated:

1. every record's signature verifies (pseudonyms resolve to real
   signers through the operator-provided mapping — paper footnotes
   1-2),
2. every measurement matches the reference value for its place,
3. chained composition replays (each hop's chain head extends its
   predecessor's),
4. nothing was stripped: the shim's hop count must be consistent with
   the number of records (an adversary in the middle cannot silently
   remove evidence without the count disagreeing),
5. the path exhibits the policy's required function sequence in order
   (AP3: ``F1`` at some hop, later ``F2``),
6. the embedded nonce matches the relying party's and is fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.compiler import CompiledPolicy
from repro.crypto.hashing import HashChain, digest
from repro.crypto.keys import KeyRegistry
from repro.faults.retry import FailMode
from repro.net.packet import Packet
from repro.evidence.codec import decode_record_stack
from repro.evidence.nodes import BatchedHopEvidence, HopEvidence, InertiaClass
from repro.evidence.verify import registry_verify_batch
from repro.util.errors import CodecError
from repro.pisa.program import DataplaneProgram
from repro.ra.nonce import NonceManager
from repro.telemetry.audit import (
    AuditKind,
    Check,
    CheckFailures,
    explain_verdict,
)
from repro.telemetry.instrument import NULL_TELEMETRY, Telemetry
from repro.telemetry.tracing import TraceContext


def program_reference(program: DataplaneProgram) -> bytes:
    """The PROGRAM-class measurement an honest switch running
    ``program`` reports (what the RP registers as a golden value)."""
    return digest(program.measurement(), domain="pera-program")


def hardware_reference(hardware_identity: bytes) -> bytes:
    """The HARDWARE-class measurement for a known chassis."""
    return digest(hardware_identity, domain="pera-hardware")


@dataclass
class PathAppraisalPolicy:
    """What the path appraiser requires."""

    anchors: KeyRegistry
    # place -> inertia class -> golden measurement. Classes absent from
    # a place's entry are not checked for that place.
    reference_measurements: Dict[str, Dict[InertiaClass, bytes]] = field(
        default_factory=dict
    )
    # PROGRAM measurement value -> human function name (for AP3 checks).
    program_names: Dict[bytes, str] = field(default_factory=dict)
    # pseudonym -> real signer name (operator-supplied).
    pseudonym_signers: Dict[str, str] = field(default_factory=dict)
    # Accept fewer records than hops (sampling in use).
    allow_sampling: bool = False
    # Unknown attesting places are failures (else merely unchecked).
    strict_places: bool = True
    # How to conclude when appraisal itself is impossible (appraiser
    # unreachable, evidence undecodable). Fail-closed — reject — is the
    # default; fail-open trades safety for availability and is only for
    # operators who explicitly opt in.
    fail_mode: str = FailMode.CLOSED

    @classmethod
    def for_fleet(cls, switches, programs, **fields) -> "PathAppraisalPolicy":
        """The golden-value policy for a known fleet: every switch's
        key anchored (in the caller's order), its chassis and the
        program it should be running as its reference measurements.

        ``programs`` is one program for the whole fleet or a sequence
        with one per switch; ``fields`` are the remaining policy fields.
        """
        switches = list(switches)
        if isinstance(programs, DataplaneProgram):
            programs = [programs] * len(switches)
        anchors = KeyRegistry()
        references: Dict[str, Dict[InertiaClass, bytes]] = {}
        for switch, program in zip(switches, programs):
            anchors.register_pair(switch.keys)
            references[switch.name] = {
                InertiaClass.HARDWARE: hardware_reference(
                    switch.engine.hardware_identity
                ),
                InertiaClass.PROGRAM: program_reference(program),
            }
        return cls(
            anchors=anchors,
            reference_measurements=references,
            # One name per distinct program object, not one per switch.
            program_names={
                program_reference(program): program.full_name
                for program in {id(p): p for p in programs}.values()
            },
            **fields,
        )


@dataclass(frozen=True)
class PathVerdict:
    accepted: bool
    failures: Tuple[str, ...] = ()
    records_checked: int = 0
    hop_count: int = 0
    functions_seen: Tuple[str, ...] = ()
    #: The causal trace the appraised packet carried (when tracing ran).
    trace_id: Optional[str] = None
    #: True when no appraisal could run and the fail mode decided.
    degraded: bool = False

    def describe(self) -> str:
        status = "ACCEPTED" if self.accepted else "REJECTED"
        if self.degraded:
            status += " (DEGRADED)"
        lines = [
            f"{status}: {self.records_checked} records over "
            f"{self.hop_count} hops"
        ]
        if self.functions_seen:
            lines.append("functions: " + " -> ".join(self.functions_seen))
        lines.extend(f"failure: {f}" for f in self.failures)
        return "\n".join(lines)

    def explain(self, audit) -> str:
        """Join the audit journal into this verdict's per-hop story.

        ``audit`` may be a :class:`~repro.telemetry.instrument.Telemetry`,
        an :class:`~repro.telemetry.audit.AuditJournal`, or any iterable
        of audit events / exported event dicts. The narrative walks the
        packet's whole life — origin, each forwarding hop, every
        measurement/signature/evidence step — and ends with which check
        failed where (or why everything passed).
        """
        journal = getattr(audit, "audit", audit)
        events = getattr(journal, "events", journal)
        return explain_verdict(self, events)


#: A packet's decoded record stack, or why its shim yields none.
_Stack = Union[List[HopEvidence], str]
#: A stack and its records' settled signature verdicts (``None`` when
#: the shim yields no stack).
_Settled = Tuple[_Stack, Optional[List[bool]]]


class PathAppraiser:
    """Appraises accumulated path evidence against a compiled policy."""

    def __init__(
        self,
        name: str,
        policy: PathAppraisalPolicy,
        nonces: Optional[NonceManager] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.name = name
        self.policy = policy
        self.nonces = nonces
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.appraisals_performed = 0

    # --- entry points ---------------------------------------------------------

    def appraise_packets(
        self, queue: Sequence[Tuple[Packet, Optional[CompiledPolicy]]]
    ) -> List[PathVerdict]:
        """Appraise a queue of ``(packet, compiled)`` with one flush.

        Each shim is decoded once, and the signature triples of every
        decoded stack are settled by one memoized
        :func:`~repro.evidence.verify.registry_verify_batch` call, so a
        harvest pays one multi-scalar check instead of one per packet.
        Each packet is then judged by :meth:`appraise_packet` with its
        settled verdicts, in queue order: verdicts, the audit journal
        and verify-cache hit/miss counts are those of calling
        :meth:`appraise_packet` on each packet in turn.
        """
        settled = self._verify_stacks(
            [self._decode(packet) for packet, _ in queue]
        )
        return [
            self.appraise_packet(packet, compiled, _settled=pair)
            for (packet, compiled), pair in zip(queue, settled)
        ]

    def appraise_packet(
        self,
        packet: Packet,
        compiled: Optional[CompiledPolicy] = None,
        _settled: Optional[_Settled] = None,
    ) -> PathVerdict:
        """Appraise the evidence a delivered packet carries.

        Beyond :meth:`appraise_records`, having the packet itself
        enables the traffic-path binding check: when records carry
        packet digests, each must match the packet as that hop saw it,
        so evidence cannot be spliced onto different traffic.

        A packet on its own is the one-packet queue of
        :meth:`appraise_packets`. ``_settled`` is the packet's decoded
        stack (or why it has none) and its signature verdicts, already
        settled by the queue's flush.
        """
        records, sig_ok = _settled or self._verify_stacks([self._decode(packet)])[0]
        hop_count = packet.ra_shim.hop_count if packet.ra_shim is not None else 0
        if isinstance(records, str):  # why the shim yields no stack
            return self._cannot_appraise(records, packet.trace, hop_count=hop_count)
        return self._judge(
            records, sig_ok, hop_count, compiled, packet.trace, packet
        )

    def appraise_records(
        self,
        records: List[HopEvidence],
        hop_count: int,
        compiled: Optional[CompiledPolicy] = None,
        trace: Optional[TraceContext] = None,
    ) -> PathVerdict:
        """Appraise a record stack with no packet to bind it to."""
        [(_, sig_ok)] = self._verify_stacks([records])
        return self._judge(records, sig_ok, hop_count, compiled, trace)

    def _decode(self, packet: Packet) -> _Stack:
        """The packet's record stack, or why it yields none."""
        if packet.ra_shim is None:
            return "packet carries no RA shim header"
        try:
            # memoryview: the decoder walks the shim body zero-copy.
            return decode_record_stack(memoryview(packet.ra_shim.body))
        except CodecError as exc:
            # Corrupted-in-flight evidence must reject, not crash.
            return f"evidence stack undecodable: {exc}"

    def _verify_stacks(self, stacks: Sequence[_Stack]) -> List[_Settled]:
        """Pair each stack with its records' signature verdicts (``None``
        for a shim that yields no stack), all from one memoized batch
        over the triples in order: every signature is settled before any
        check runs.

        Batched-mode records contribute their epoch-root signature —
        still one real verification per (switch, epoch), now sharing the
        batch with everything else.
        """
        items = [
            record.signature_item(self._signer_for(record.place))
            for records in stacks
            if not isinstance(records, str)
            for record in records
        ]
        flat = iter(registry_verify_batch(self.policy.anchors, items))
        return [
            (records, None if isinstance(records, str)
             else [next(flat) for _ in records])
            for records in stacks
        ]

    def _cannot_appraise(
        self, message: str, trace: Optional[TraceContext], hop_count: int = 0
    ) -> PathVerdict:
        """Reject a packet whose shim yields no record stack to judge:
        one ``check.failed`` (shim), one rejecting verdict."""
        verdict = PathVerdict(
            accepted=False,
            failures=(message,),
            hop_count=hop_count,
            trace_id=trace.trace_id if trace is not None else None,
        )
        if self.telemetry.active:
            self.telemetry.audit_event(
                AuditKind.CHECK_FAILED,
                self.name,
                trace=trace,
                check=Check.SHIM,
                message=message,
            )
            self._emit_verdict_event(verdict, [], trace)
        return verdict

    def appraise_unavailable(
        self, reason: str, trace: Optional[TraceContext] = None
    ) -> PathVerdict:
        """Conclude without evidence: the appraisal path itself failed.

        Called when evidence never arrived (appraiser crash, OOB channel
        dead, all retries exhausted). The policy's ``fail_mode`` decides
        the verdict — rejecting under the default
        :data:`FailMode.CLOSED` — and the audit journal records the
        availability failure either way, so a degraded acceptance is
        never silent.
        """
        self.appraisals_performed += 1
        fail_open = self.policy.fail_mode == FailMode.OPEN
        message = f"appraisal unavailable: {reason}"
        verdict = PathVerdict(
            accepted=fail_open,
            failures=() if fail_open else (message,),
            trace_id=trace.trace_id if trace is not None else None,
            degraded=True,
        )
        tel = self.telemetry
        if tel.active:
            tel.audit_event(
                AuditKind.CHECK_FAILED,
                self.name,
                trace=trace,
                check=Check.AVAILABILITY,
                message=message,
            )
            self._emit_verdict_event(verdict, [], trace, degraded=True)
        return verdict

    def _check_packet_binding(
        self, packet: Packet, records: List[HopEvidence], failures: List[str]
    ) -> None:
        """Verify per-hop packet digests (traffic-path composition).

        Hop ``i`` digested the packet carrying the policy plus the
        first ``i`` records; the appraiser reconstructs each view and
        recomputes the digest. A changed payload (or header) breaks
        every digest at once.
        """
        if not any(r.packet_digest is not None for r in records):
            return
        if len(records) != packet.ra_shim.hop_count:
            # Sampled paths have hop-count gaps; per-hop views cannot
            # be reconstructed reliably, so the coverage check (not
            # this one) is the arbiter there.
            return
        from repro.core.wire import decode_compiled_policy, encode_compiled_policy
        from repro.net.headers import RaShimHeader

        shim = packet.ra_shim
        carried = decode_compiled_policy(shim.body)
        policy_bytes = (
            encode_compiled_policy(carried) if carried is not None else b""
        )
        base_flags = shim.flags & ~RaShimHeader.FLAG_EVIDENCE
        # Grow the record-stack prefix incrementally from each record's
        # cached node wire: the old per-step re-encode of records[:i]
        # made this walk quadratic in path length.
        body = policy_bytes
        for index, record in enumerate(records):
            if record.packet_digest is not None:
                flags = base_flags if index == 0 else (
                    base_flags | RaShimHeader.FLAG_EVIDENCE
                )
                view = packet.with_shim(RaShimHeader(
                    flags=flags,
                    hop_count=index,
                    body=body,
                ))
                expected = digest(view.encode(), domain="pera-packet")
                if record.packet_digest != expected:
                    failures.append(
                        f"record {index} ({record.place}): packet digest does "
                        "not match this traffic (evidence spliced?)"
                    )
                    return
            body += record.wire

    def _judge(
        self,
        records: List[HopEvidence],
        sig_ok: List[bool],
        hop_count: int,
        compiled: Optional[CompiledPolicy],
        trace: Optional[TraceContext],
        packet: Optional[Packet] = None,
    ) -> PathVerdict:
        """Judge a settled record stack and issue its verdict: the one
        core of both entry points.

        With telemetry active, the checks run inside a ``core.appraise``
        span and feed a wall-clock latency histogram (signatures are
        settled before it starts); every failed check lands in the audit
        journal tagged with ``trace``, then the verdict.
        """
        tel = self.telemetry
        if not tel.active:
            return self._checks(records, sig_ok, hop_count, compiled, trace, packet)
        started = perf_counter()
        sim_started = tel.spans.clock.now
        tags = trace.span_args() if trace is not None else {}
        with tel.span(
            "core.appraise", track=self.name, records=len(records), **tags
        ):
            verdict = self._checks(
                records, sig_ok, hop_count, compiled, trace, packet
            )
        tel.histogram(
            "core.path_appraise_seconds", appraiser=self.name
        ).observe(perf_counter() - started)
        # Sim-clock sibling of the wall-clock histogram above: fully
        # deterministic, so latency distributions join the shard
        # byte-identity checks (see docs/SHARDING.md).
        tel.histogram(
            "core.path_appraise_sim_seconds", appraiser=self.name
        ).observe(tel.spans.clock.now - sim_started)
        self._emit_verdict_event(verdict, records, trace)
        return verdict

    def _emit_verdict_event(
        self,
        verdict: PathVerdict,
        records: List[HopEvidence],
        trace: Optional[TraceContext],
        **detail: object,
    ) -> None:
        """Journal ``verdict`` and count it in ``core.path_verdicts``:
        the one place a path verdict is issued."""
        self.telemetry.counter(
            "core.path_verdicts", appraiser=self.name, accepted=verdict.accepted
        ).inc()
        self.telemetry.audit_event(
            AuditKind.VERDICT_ISSUED,
            self.name,
            trace=trace,
            digest=records[-1].content_digest if records else None,
            accepted=verdict.accepted,
            records=verdict.records_checked,
            failures=len(verdict.failures),
            **detail,
        )

    def _checks(
        self,
        records: List[HopEvidence],
        sig_ok: List[bool],
        hop_count: int,
        compiled: Optional[CompiledPolicy],
        trace: Optional[TraceContext],
        packet: Optional[Packet],
    ) -> PathVerdict:
        """Run every check in order, journal the failures, and build
        the verdict."""
        self.appraisals_performed += 1
        failures = CheckFailures()
        failures.current = Check.SIGNATURE
        self._check_signatures(records, failures, sig_ok, trace)
        failures.current = Check.MEASUREMENT
        self._check_measurements(records, failures)
        failures.current = Check.CHAIN
        self._check_chain(records, failures)
        failures.current = Check.COVERAGE
        self._check_coverage(records, hop_count, compiled, failures)
        functions = self._observed_functions(records)
        if compiled is not None:
            failures.current = Check.FUNCTION
            self._check_required_functions(functions, compiled, failures)
            failures.current = Check.NONCE
            self._check_nonce(compiled, failures)
        if packet is not None:
            failures.current = Check.BINDING
            self._check_packet_binding(packet, records, failures)
        tel = self.telemetry
        if tel.active:
            for check, message in failures.detailed:
                tel.audit_event(
                    AuditKind.CHECK_FAILED,
                    self.name,
                    trace=trace,
                    check=check,
                    message=message,
                )
        return PathVerdict(
            accepted=not failures,
            failures=tuple(failures),
            records_checked=len(records),
            hop_count=hop_count,
            functions_seen=tuple(name for _, name in functions),
            trace_id=trace.trace_id if trace is not None else None,
        )

    # --- individual checks -------------------------------------------------------

    def _signer_for(self, place: str) -> str:
        return self.policy.pseudonym_signers.get(place, place)

    def _check_signatures(
        self,
        records: List[HopEvidence],
        failures: List[str],
        sig_ok: List[bool],
        trace: Optional[TraceContext],
    ) -> None:
        tel = self.telemetry
        # ``sig_ok`` holds every record's settled signature verdict
        # (:meth:`_verify_stacks`). Batched-mode records then pay two
        # SHA-256 hashes per tree level for the inclusion proof. Failure
        # messages and ``signature.verified`` audit events are emitted in
        # per-record order.
        for index, record in enumerate(records):
            if isinstance(record, BatchedHopEvidence):
                root_ok = sig_ok[index]
                proof_ok = root_ok and record.proof_ok()
                ok = root_ok and proof_ok
                if not root_ok:
                    failures.append(
                        f"record {index} ({record.place}): epoch root "
                        "signature invalid or signer untrusted"
                    )
                elif not proof_ok:
                    failures.append(
                        f"record {index} ({record.place}): Merkle proof "
                        "does not bind record to epoch root"
                    )
                event_detail = {"epoch": record.epoch_id}
            else:
                ok = sig_ok[index]
                if not ok:
                    failures.append(
                        f"record {index} ({record.place}): signature invalid "
                        "or signer untrusted"
                    )
                event_detail = {}
            if tel.active:
                tel.audit_event(
                    AuditKind.SIGNATURE_VERIFIED,
                    self.name,
                    trace=trace,
                    digest=record.content_digest,
                    ok=ok,
                    place=record.place,
                    record=index,
                    **event_detail,
                )

    def _check_measurements(
        self, records: List[HopEvidence], failures: List[str]
    ) -> None:
        for index, record in enumerate(records):
            signer = self._signer_for(record.place)
            reference = self.policy.reference_measurements.get(signer)
            if reference is None:
                if self.policy.strict_places:
                    failures.append(
                        f"record {index} ({record.place}): no reference "
                        "values for this attester"
                    )
                continue
            for inertia, value in record.measurements:
                expected = reference.get(inertia)
                if expected is not None and value != expected:
                    failures.append(
                        f"record {index} ({record.place}): {inertia.name} "
                        "measurement does not match the vetted value"
                    )

    def _check_chain(self, records: List[HopEvidence], failures: List[str]) -> None:
        chained = [r for r in records if r.chain_head is not None]
        if not chained:
            return
        if len(chained) != len(records):
            failures.append("some records are chained and some are not")
            return
        head = HashChain.GENESIS
        for index, record in enumerate(records):
            # The link is the record's cached content digest over its
            # measurement values — hashed once per record object, not
            # once per verification step.
            head = HashChain(head=head).extend(record.link_digest())
            if record.chain_head != head:
                failures.append(
                    f"record {index} ({record.place}): chain head does not "
                    "extend its predecessor (reordered or spliced evidence)"
                )
                return

    def _check_coverage(
        self,
        records: List[HopEvidence],
        hop_count: int,
        compiled: Optional[CompiledPolicy],
        failures: List[str],
    ) -> None:
        if len(records) > hop_count:
            failures.append(
                f"{len(records)} records but only {hop_count} hops counted"
            )
        if not self.policy.allow_sampling and len(records) < hop_count:
            failures.append(
                f"evidence stripped: {hop_count} attesting hops but only "
                f"{len(records)} records"
            )
        if compiled is not None and len(records) < compiled.min_attested_hops:
            if not self.policy.allow_sampling:
                failures.append(
                    f"policy requires {compiled.min_attested_hops} attested "
                    f"hops, got {len(records)}"
                )

    def _observed_functions(
        self, records: List[HopEvidence]
    ) -> List[Tuple[str, str]]:
        """(place, function-name) per record, where the program
        measurement maps to a known function."""
        observed: List[Tuple[str, str]] = []
        for record in records:
            value = record.measurement_for(InertiaClass.PROGRAM)
            if value is None:
                continue
            name = self.policy.program_names.get(value)
            if name is not None:
                observed.append((record.place, name))
        return observed

    def _check_required_functions(
        self,
        observed: List[Tuple[str, str]],
        compiled: CompiledPolicy,
        failures: List[str],
    ) -> None:
        required = [
            (place, function)
            for place, function in compiled.required_functions
            if function in set(self.policy.program_names.values())
        ]
        if not required:
            return
        position = 0
        for required_place, required_function in required:
            found = False
            while position < len(observed):
                place, function = observed[position]
                position += 1
                if function == required_function and (
                    required_place == "*" or required_place == place
                ):
                    found = True
                    break
            if not found:
                failures.append(
                    f"path lacks required function {required_function!r}"
                    + (
                        f" at {required_place!r}"
                        if required_place != "*"
                        else ""
                    )
                )
                return

    def _check_nonce(
        self, compiled: CompiledPolicy, failures: List[str]
    ) -> None:
        if not compiled.nonce:
            return
        if self.nonces is None:
            return
        problem = self.nonces.check(compiled.nonce)
        if problem is not None:
            failures.append(problem)
        else:
            self.nonces.consume(compiled.nonce)
