"""The Fig. 2 protocol variants, executed as genuine Copland requests.

:func:`run_out_of_band` executes the paper's expression (3)::

    *RP1, n : @Switch [attest(Hardware ~ Program) -> # -> !]
                +>+ @Appraiser [appraise -> certify(n) -> ! -> store(n)]
    *RP2, n : @Appraiser [retrieve(n)]

:func:`run_in_band` executes expression (4)::

    *RP1 : @Switch [attest(Hardware ~ Program) -> # -> !]
             -> @RP2 [@Appraiser [appraise -> certify -> !]]

Both build a :class:`~repro.copland.vm.CoplandVM` whose Switch place
measures real attestation targets and whose Appraiser place is backed
by a real :class:`~repro.ra.appraiser.Appraiser`, so the runs produce
genuine signatures and genuine verdicts. The returned
:class:`ProtocolRun` carries the message/byte accounting the Fig. 2
benchmark (E2) reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.evidence import (
    Evidence,
    HashEvidence,
    MeasurementEvidence,
    NonceEvidence,
    registry_verify_batch,
)
from repro.copland.parser import parse_request
from repro.copland.vm import CoplandVM, Place
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyRegistry
from repro.ra.appraiser import AppraisalPolicy, Appraiser
from repro.ra.certificates import Certificate, CertificateStore
from repro.ra.claims import AppraisalVerdict
from repro.ra.nonce import NonceManager
from repro.telemetry.audit import AuditKind
from repro.util.errors import VerificationError

OUT_OF_BAND_RP1 = (
    "*RP1 <n> : @Switch [attest(Hardware, Program) -> # -> !] "
    "+>+ @Appraiser [appraise -> certify(n) -> ! -> store(n)]"
)
OUT_OF_BAND_RP2 = "*RP2 <n> : @Appraiser [retrieve(n)]"

IN_BAND = (
    "*RP1 <n> : @Switch [attest(Hardware, Program) -> # -> !] "
    "-> @RP2 [@Appraiser [appraise -> certify(n) -> !]]"
)


@dataclass
class AttestationScenario:
    """The fixed cast of Fig. 2: a switch, an appraiser, RP1 and RP2.

    ``switch_targets`` maps attestation target names (``Hardware``,
    ``Program``) to their current content bytes; ``golden_targets`` to
    the vetted content the appraiser expects. Diverge them to model a
    compromised switch.
    """

    switch_targets: Dict[str, bytes]
    golden_targets: Dict[str, bytes]

    def build(self) -> "ProtocolContext":
        vm = CoplandVM()
        vm.register(Place("RP1"))
        vm.register(Place("RP2"))
        switch = vm.register(Place("Switch"))
        appraiser_place = vm.register(Place("Appraiser"))
        for name, content in self.switch_targets.items():
            switch.install_component(name, content, vetted=False)

        anchors = KeyRegistry()
        anchors.register_pair(switch.keypair)
        anchors.register_pair(appraiser_place.keypair)

        nonces = NonceManager(seed="fig2")
        appraiser = Appraiser(
            name="Appraiser",
            anchors=anchors,
            policy=AppraisalPolicy(required_signers=("Switch",)),
            nonces=nonces,
        )
        store = CertificateStore()
        context = ProtocolContext(
            vm=vm,
            switch=switch,
            appraiser_place=appraiser_place,
            appraiser=appraiser,
            store=store,
            nonces=nonces,
            anchors=anchors,
            expected_attest_value=self._expected_attest_value(),
        )
        context.install_asps()
        return context

    def _expected_attest_value(self) -> bytes:
        blob = b"\x00".join(
            name.encode() + b"=" + self.golden_targets[name]
            for name in sorted(self.golden_targets)
        )
        return digest(blob, domain="attest-targets")


@dataclass
class ProtocolContext:
    """A built scenario: VM, places, appraiser, certificate store."""

    vm: CoplandVM
    switch: Place
    appraiser_place: Place
    appraiser: Appraiser
    store: CertificateStore
    nonces: NonceManager
    anchors: KeyRegistry
    expected_attest_value: bytes = b""
    current_nonce: bytes = b""
    last_verdict: Optional[AppraisalVerdict] = None

    def expected_evidence(self) -> Evidence:
        """Reconstruct the evidence an honest run would have hashed.

        The ``#`` operator reduces evidence to a digest, so the
        appraiser — like a TPM-quote verifier — recomputes the evidence
        tree it *expects* (golden attest value, the negotiated nonce)
        and compares digests. A switch running an unvetted program
        produces a different attest value, hence a different hash.
        """
        return MeasurementEvidence(
            asp="attest",
            place="Switch",
            target="",
            target_place="",
            value=self.expected_attest_value,
            prior=NonceEvidence(name="n", value=self.current_nonce),
        )

    def install_asps(self) -> None:
        """Wire the expression-(3)/(4) service ASPs to real objects."""

        def attest(place: Place, target: str, target_place: str, args, prior):
            blob = b"\x00".join(
                name.encode() + b"=" + place.components[name]
                for name in sorted(args)
                if name in place.components
            )
            missing = [name for name in args if name not in place.components]
            if missing:
                raise VerificationError(
                    f"attester has no targets named {missing}"
                )
            return digest(blob, domain="attest-targets")

        def appraise(place: Place, target: str, target_place: str, args, prior):
            failures = []
            # 1. The switch must have signed the (hashed) evidence.
            signatures = prior.find_signatures()
            switch_signed = any(
                node.place == "Switch"
                and registry_verify_batch(self.anchors, [node.signature_item()])[0]
                for node in signatures
            )
            if not switch_signed:
                failures.append("missing or invalid Switch signature")
            # 2. The hash must match the reconstructed golden evidence.
            hashes = [
                node for node in prior.walk() if isinstance(node, HashEvidence)
            ]
            if not hashes:
                failures.append("no hashed evidence present")
            elif not HashEvidence.matches(
                self.expected_evidence(), hashes[0].digest_value
            ):
                failures.append(
                    "evidence hash does not match the vetted configuration"
                )
            # 3. Nonce freshness (the nonce is negotiated out of band).
            problem = self.nonces.check(self.current_nonce)
            if problem is not None:
                failures.append(problem)
            else:
                self.nonces.consume(self.current_nonce)
            verdict = AppraisalVerdict(
                accepted=not failures,
                failures=tuple(failures),
                checked_measurements=1,
                checked_signatures=len(signatures),
            )
            self.appraiser.appraisals_performed += 1
            self.last_verdict = verdict
            tel = self.appraiser.telemetry
            if tel.active:
                tel.audit_event(
                    AuditKind.VERDICT_ISSUED,
                    self.appraiser.name,
                    digest=prior.content_digest,
                    accepted=verdict.accepted,
                    records=len(signatures),
                    failures=len(failures),
                )
            return b"\x01accept" if verdict.accepted else b"\x00reject"

        def certify(place: Place, target: str, target_place: str, args, prior):
            nonce = self.current_nonce
            verdict = self.last_verdict
            if verdict is None:
                raise VerificationError("certify before appraise")
            certificate = Certificate.issue(
                self.appraiser_place.keypair, "Switch", nonce, verdict
            )
            self._last_certificate = certificate
            return certificate.signature

        def store_asp(place: Place, target: str, target_place: str, args, prior):
            certificate = getattr(self, "_last_certificate", None)
            if certificate is None:
                raise VerificationError("store before certify")
            self.store.store(certificate)
            return b"stored"

        def retrieve(place: Place, target: str, target_place: str, args, prior):
            nonce = self._nonce_from(prior, args) or self.current_nonce
            certificate = self.store.retrieve(nonce)
            if not certificate.verify(self.anchors):
                raise VerificationError("stored certificate failed verification")
            return (
                b"\x01accept" if certificate.accepted else b"\x00reject"
            ) + certificate.signature

        self.switch.asps["attest"] = attest
        self.appraiser_place.asps["appraise"] = appraise
        self.appraiser_place.asps["certify"] = certify
        self.appraiser_place.asps["store"] = store_asp
        self.appraiser_place.asps["retrieve"] = retrieve

    def _nonce_from(self, prior: Evidence, args: Tuple[str, ...]) -> Optional[bytes]:
        for node in prior.walk():
            if isinstance(node, NonceEvidence):
                return node.value
        # Fall back to the request parameter relayed through ASP args.
        for arg in args:
            try:
                value = bytes.fromhex(arg)
            except ValueError:
                continue
            if value:
                return value
        return None


@dataclass
class ProtocolRun:
    """Outcome and accounting of one protocol execution."""

    variant: str
    accepted: bool
    rp1_informed: bool
    rp2_informed: bool
    messages: int
    evidence_bytes: int
    verdict: Optional[AppraisalVerdict]
    certificate: Optional[Certificate]


def _count_messages(
    vm: CoplandVM, since: int, piggybacked: Tuple[str, ...] = ()
) -> int:
    """Count request/reply messages, excluding piggybacked dispatches.

    In the in-band variant the evidence "rides" on traffic the relying
    party is sending anyway (paper §5.2), so dispatches to places in
    ``piggybacked`` cost no extra messages — only the appraiser round
    trips do.
    """
    count = 0
    for event in vm.events[since:]:
        if event.kind == "req" and event.detail.lstrip("@") not in piggybacked:
            count += 1
        elif event.kind == "rpy" and event.place not in piggybacked:
            count += 1
    return count


def run_out_of_band(scenario: AttestationScenario) -> ProtocolRun:
    """Execute expression (3): out-of-band evidence via the appraiser."""
    context = scenario.build()
    nonce = context.nonces.issue()
    context.current_nonce = nonce
    mark = len(context.vm.events)
    rp1_request = parse_request(OUT_OF_BAND_RP1)
    evidence = context.vm.execute_request(rp1_request, {"n": nonce})
    rp2_request = parse_request(OUT_OF_BAND_RP2)
    rp2_evidence = context.vm.execute_request(rp2_request, {"n": nonce})
    certificate = context.store.retrieve(nonce)
    rp2_result = rp2_evidence.find_measurements()[0].value
    return ProtocolRun(
        variant="out-of-band",
        accepted=certificate.accepted,
        rp1_informed=context.last_verdict is not None,
        rp2_informed=rp2_result.startswith(b"\x01") or rp2_result.startswith(b"\x00"),
        messages=_count_messages(context.vm, mark),
        evidence_bytes=len(evidence.encode()) + len(rp2_evidence.encode()),
        verdict=context.last_verdict,
        certificate=certificate,
    )


def run_in_band(scenario: AttestationScenario) -> ProtocolRun:
    """Execute expression (4): evidence rides with RP1's traffic through
    the switch to RP2, who asks the appraiser directly; no nonce-linked
    store/retrieve round is needed."""
    context = scenario.build()
    nonce = context.nonces.issue()
    context.current_nonce = nonce
    mark = len(context.vm.events)
    request = parse_request(IN_BAND)
    evidence = context.vm.execute_request(request, {"n": nonce})
    certificate = getattr(context, "_last_certificate", None)
    return ProtocolRun(
        variant="in-band",
        accepted=context.last_verdict.accepted if context.last_verdict else False,
        rp1_informed=True,  # the final evidence returns to RP1
        rp2_informed=True,  # RP2 relayed the appraisal itself
        # Switch and RP2 legs ride on the dataplane traffic itself.
        messages=_count_messages(context.vm, mark, piggybacked=("Switch", "RP2")),
        evidence_bytes=len(evidence.encode()),
        verdict=context.last_verdict,
        certificate=certificate,
    )
