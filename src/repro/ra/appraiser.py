"""The Appraiser (Verifier): turns evidence into verdicts.

An appraiser holds three inputs (RATS terminology):

- *trust anchors*: a :class:`~repro.crypto.keys.KeyRegistry` of the
  signing keys it trusts,
- *reference values*: the golden measurements vetted programs should
  produce (``firewall_v5`` hashes to X),
- *freshness state*: a :class:`~repro.ra.nonce.NonceManager`.

:meth:`Appraiser.appraise` walks a Copland evidence tree and checks
every signature against the anchors, every measurement against the
reference values, and the embedded nonce against freshness state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.crypto.keys import KeyRegistry
from repro.evidence import (
    Evidence,
    MeasurementEvidence,
    NonceEvidence,
    registry_verify_batch,
)
from repro.ra.claims import AppraisalVerdict, Claim
from repro.ra.nonce import NonceManager
from repro.telemetry.audit import AuditKind, Check, CheckFailures
from repro.telemetry.instrument import NULL_TELEMETRY, Telemetry


@dataclass
class AppraisalPolicy:
    """What this appraiser requires of an evidence bundle.

    - ``reference_values``: (asp, target) → expected measurement bytes.
      Measurements with no entry are ignored unless ``strict``.
    - ``required_signers``: every listed place must have signed some
      node of the bundle.
    - ``require_nonce``: a fresh nonce must be embedded.
    - ``strict``: unknown measurements are failures instead of ignored.
    """

    reference_values: Dict[Tuple[str, str], bytes] = field(default_factory=dict)
    required_signers: Tuple[str, ...] = ()
    require_nonce: bool = False
    strict: bool = False


class Appraiser:
    """A RATS appraiser bound to trust anchors and reference values."""

    def __init__(
        self,
        name: str,
        anchors: KeyRegistry,
        policy: AppraisalPolicy,
        nonces: Optional[NonceManager] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.name = name
        self.anchors = anchors
        self.policy = policy
        self.nonces = nonces
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.appraisals_performed = 0

    def appraise(
        self, evidence: Evidence, claim: Optional[Claim] = None
    ) -> AppraisalVerdict:
        """Produce a verdict for one evidence bundle.

        With telemetry active, each appraisal feeds a verdict counter
        and a wall-clock verification-latency histogram, both labeled
        by appraiser; each failure and the verdict itself land in the
        audit journal linked to the evidence's content digest. Copland
        evidence carries no packet trace, so these events join the
        journal untraced — still queryable by digest.
        """
        if self.telemetry.active:
            started = perf_counter()
            sim_started = self.telemetry.spans.clock.now
            verdict = self._appraise(evidence, claim)
            self.telemetry.histogram(
                "ra.appraise_seconds", appraiser=self.name
            ).observe(perf_counter() - started)
            # The sim-clock sibling: deterministic, so it joins the
            # shard byte-identity contract (the wall-clock histogram
            # above is the documented exclusion). Appraisal is modeled
            # as instantaneous today, so the sum pins that property
            # while the count pins per-appraiser appraisal volume.
            self.telemetry.histogram(
                "ra.appraise_sim_seconds", appraiser=self.name
            ).observe(self.telemetry.spans.clock.now - sim_started)
            self.telemetry.counter(
                "ra.verdicts",
                appraiser=self.name,
                accepted=verdict.accepted,
            ).inc()
            self.telemetry.audit_event(
                AuditKind.VERDICT_ISSUED,
                self.name,
                digest=evidence.content_digest,
                accepted=verdict.accepted,
                records=verdict.checked_signatures,
                failures=len(verdict.failures),
            )
            return verdict
        return self._appraise(evidence, claim)

    def _appraise(
        self, evidence: Evidence, claim: Optional[Claim] = None
    ) -> AppraisalVerdict:
        self.appraisals_performed += 1
        failures = CheckFailures()
        checked_measurements = 0

        # 1. Signatures: every SignedEvidence node must verify against
        #    the anchor registered for its claimed place. All nodes are
        #    settled by one memoized batch (keyed on each node's cached
        #    content digest, so re-appraising known evidence skips the
        #    Ed25519 math); failures are reported in walk order.
        failures.current = Check.SIGNATURE
        signed = evidence.find_signatures()
        checked_signatures = len(signed)
        verdicts = registry_verify_batch(
            self.anchors, [node.signature_item() for node in signed]
        )
        seen_signers = set()
        for node, ok in zip(signed, verdicts):
            if not ok:
                failures.append(f"signature by {node.place!r} failed verification")
            else:
                seen_signers.add(node.place)
        for signer in self.policy.required_signers:
            if signer not in seen_signers:
                failures.append(f"missing required signature from {signer!r}")

        # 2. Measurements against reference values.
        failures.current = Check.MEASUREMENT
        for node in evidence.walk():
            if isinstance(node, MeasurementEvidence):
                expected = self.policy.reference_values.get(
                    (node.asp, node.target)
                )
                if expected is None:
                    if self.policy.strict and node.target:
                        failures.append(
                            f"no reference value for ({node.asp!r}, "
                            f"{node.target!r})"
                        )
                    continue
                checked_measurements += 1
                if node.value != expected:
                    failures.append(
                        f"measurement of {node.target!r} by {node.asp!r} "
                        "does not match the reference value"
                    )

        # 3. Nonce freshness.
        failures.current = Check.NONCE
        if self.policy.require_nonce:
            nonce_nodes = [
                node for node in evidence.walk()
                if isinstance(node, NonceEvidence)
            ]
            if not nonce_nodes:
                failures.append("no nonce embedded in evidence")
            elif self.nonces is None:
                failures.append("appraiser has no nonce state to check against")
            else:
                for node in nonce_nodes:
                    problem = self.nonces.check(node.value)
                    if problem is not None:
                        failures.append(problem)
                if not failures:
                    for node in nonce_nodes:
                        self.nonces.consume(node.value)

        if self.telemetry.active:
            for check, message in failures.detailed:
                self.telemetry.audit_event(
                    AuditKind.CHECK_FAILED,
                    self.name,
                    digest=evidence.content_digest,
                    check=check,
                    message=message,
                )
        return AppraisalVerdict(
            accepted=not failures,
            claim=claim,
            failures=tuple(failures),
            checked_measurements=checked_measurements,
            checked_signatures=checked_signatures,
            evidence_digest=evidence.content_digest,
        )
