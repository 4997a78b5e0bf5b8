"""Tests for the appraiser, nonces and certificates."""

import pytest

from repro.evidence.nodes import (
    EmptyEvidence,
    MeasurementEvidence,
    NonceEvidence,
    SignedEvidence,
)
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.ra.appraiser import AppraisalPolicy, Appraiser
from repro.ra.certificates import Certificate, CertificateStore
from repro.ra.claims import AppraisalVerdict, Claim
from repro.ra.nonce import NonceManager
from repro.telemetry import AuditKind, Check, Telemetry
from repro.util.errors import VerificationError


def make_evidence(value=b"good", signer=None, nonce=None):
    prior = NonceEvidence("n", nonce) if nonce else EmptyEvidence()
    evidence = MeasurementEvidence(
        asp="attest", place="Switch", target="Program", target_place="Switch",
        value=value, prior=prior,
    )
    if signer is not None:
        return SignedEvidence(
            evidence=evidence, place=signer.owner,
            signature=signer.sign(evidence.encode()),
        )
    return evidence


class TestNonceManager:
    def test_issue_unique(self):
        manager = NonceManager("seed")
        assert manager.issue() != manager.issue()

    def test_deterministic_across_instances(self):
        assert NonceManager("s").issue() == NonceManager("s").issue()

    def test_consume_lifecycle(self):
        manager = NonceManager("seed")
        nonce = manager.issue()
        assert manager.check(nonce) is None
        manager.consume(nonce)
        assert manager.check(nonce) == "nonce replayed"
        with pytest.raises(VerificationError, match="replayed"):
            manager.consume(nonce)

    def test_unknown_nonce(self):
        manager = NonceManager("seed")
        assert manager.check(b"\x00" * 16) == "nonce was never issued"
        with pytest.raises(VerificationError):
            manager.consume(b"\x00" * 16)


class TestAppraiser:
    def build(self, require_nonce=False, strict=False, telemetry=None):
        switch_keys = KeyPair.generate("Switch")
        anchors = KeyRegistry()
        anchors.register_pair(switch_keys)
        nonces = NonceManager("test")
        appraiser = Appraiser(
            name="A",
            anchors=anchors,
            policy=AppraisalPolicy(
                reference_values={("attest", "Program"): b"good"},
                required_signers=("Switch",),
                require_nonce=require_nonce,
                strict=strict,
            ),
            nonces=nonces,
            telemetry=telemetry,
        )
        return appraiser, switch_keys, nonces

    def test_accepts_good_evidence(self):
        appraiser, keys, _ = self.build()
        verdict = appraiser.appraise(make_evidence(signer=keys))
        assert verdict.accepted
        assert verdict.checked_measurements == 1
        assert verdict.checked_signatures == 1

    def test_rejects_wrong_measurement(self):
        appraiser, keys, _ = self.build()
        verdict = appraiser.appraise(make_evidence(value=b"evil", signer=keys))
        assert not verdict.accepted
        assert any("reference value" in f for f in verdict.failures)

    def test_rejects_missing_signature(self):
        appraiser, _, _ = self.build()
        verdict = appraiser.appraise(make_evidence())
        assert not verdict.accepted
        assert any("missing required signature" in f for f in verdict.failures)

    def test_rejects_unknown_signer(self):
        appraiser, _, _ = self.build()
        rogue = KeyPair.generate("Rogue")
        inner = make_evidence()
        forged = SignedEvidence(
            evidence=inner, place="Rogue", signature=rogue.sign(inner.encode())
        )
        verdict = appraiser.appraise(forged)
        assert not verdict.accepted

    def test_rejects_tampered_signature(self):
        appraiser, keys, _ = self.build()
        evidence = make_evidence(signer=keys)
        tampered = SignedEvidence(
            evidence=evidence.evidence,
            place=evidence.place,
            signature=bytes(64),
        )
        verdict = appraiser.appraise(tampered)
        assert not verdict.accepted
        assert any("failed verification" in f for f in verdict.failures)

    def test_nonce_required_and_fresh(self):
        appraiser, keys, nonces = self.build(require_nonce=True)
        nonce = nonces.issue()
        verdict = appraiser.appraise(make_evidence(signer=keys, nonce=nonce))
        assert verdict.accepted
        # Replaying the same evidence fails: nonce already consumed.
        verdict2 = appraiser.appraise(make_evidence(signer=keys, nonce=nonce))
        assert not verdict2.accepted
        assert any("replayed" in f for f in verdict2.failures)

    def test_nonce_missing_rejected(self):
        appraiser, keys, _ = self.build(require_nonce=True)
        verdict = appraiser.appraise(make_evidence(signer=keys))
        assert not verdict.accepted
        assert any("no nonce" in f for f in verdict.failures)

    def test_unissued_nonce_rejected(self):
        appraiser, keys, _ = self.build(require_nonce=True)
        verdict = appraiser.appraise(
            make_evidence(signer=keys, nonce=b"\x99" * 16)
        )
        assert not verdict.accepted

    def test_strict_mode_flags_unknown_measurements(self):
        appraiser, keys, _ = self.build(strict=True)
        unknown = MeasurementEvidence(
            asp="mystery", place="Switch", target="Thing", target_place="Switch",
            value=b"?",
        )
        signed = SignedEvidence(
            evidence=unknown, place="Switch", signature=keys.sign(unknown.encode())
        )
        verdict = appraiser.appraise(signed)
        assert not verdict.accepted

    def test_journals_the_check_that_found_each_failure(self):
        tel = Telemetry(active=True)
        appraiser, keys, nonces = self.build(require_nonce=True, telemetry=tel)
        signed = make_evidence(signer=keys, nonce=nonces.issue())
        appraiser.appraise(SignedEvidence(
            evidence=signed.evidence, place=signed.place, signature=bytes(64),
        ))
        appraiser.appraise(
            make_evidence(value=b"evil", signer=keys, nonce=nonces.issue())
        )
        replayed = make_evidence(signer=keys, nonce=nonces.issue())
        assert appraiser.appraise(replayed).accepted
        appraiser.appraise(replayed)
        failed = [
            (event.detail["check"], event.detail["message"])
            for event in tel.audit.events
            if event.kind == AuditKind.CHECK_FAILED
        ]
        assert failed == [
            (Check.SIGNATURE, "signature by 'Switch' failed verification"),
            (Check.SIGNATURE, "missing required signature from 'Switch'"),
            (Check.MEASUREMENT, "measurement of 'Program' by 'attest' "
             "does not match the reference value"),
            (Check.NONCE, "nonce replayed"),
        ]

    def test_verdict_describe(self):
        appraiser, keys, _ = self.build()
        claim = Claim(attester="Switch", targets=("Program",))
        verdict = appraiser.appraise(make_evidence(signer=keys), claim=claim)
        text = verdict.describe()
        assert "ACCEPTED" in text and "Switch" in text


class TestCertificates:
    def test_issue_and_verify(self):
        appraiser_keys = KeyPair.generate("Appraiser")
        anchors = KeyRegistry()
        anchors.register_pair(appraiser_keys)
        cert = Certificate.issue(
            appraiser_keys, "Switch", b"\x01" * 16,
            AppraisalVerdict(accepted=True),
        )
        assert cert.verify(anchors)

    def test_forged_certificate_fails(self):
        appraiser_keys = KeyPair.generate("Appraiser")
        anchors = KeyRegistry()
        anchors.register_pair(appraiser_keys)
        cert = Certificate.issue(
            appraiser_keys, "Switch", b"\x01" * 16,
            AppraisalVerdict(accepted=False),
        )
        # Flip the verdict bit without re-signing.
        forged = Certificate(
            appraiser=cert.appraiser, attester=cert.attester,
            nonce=cert.nonce, accepted=True, signature=cert.signature,
        )
        assert not forged.verify(anchors)

    def test_store_retrieve(self):
        appraiser_keys = KeyPair.generate("Appraiser")
        store = CertificateStore()
        cert = Certificate.issue(
            appraiser_keys, "Switch", b"\x02" * 16, AppraisalVerdict(accepted=True)
        )
        store.store(cert)
        assert store.retrieve(b"\x02" * 16) is cert
        assert len(store) == 1

    def test_duplicate_nonce_rejected(self):
        appraiser_keys = KeyPair.generate("Appraiser")
        store = CertificateStore()
        cert = Certificate.issue(
            appraiser_keys, "Switch", b"\x03" * 16, AppraisalVerdict(accepted=True)
        )
        store.store(cert)
        with pytest.raises(VerificationError, match="already stored"):
            store.store(cert)

    def test_retrieve_unknown_nonce(self):
        with pytest.raises(VerificationError, match="no certificate"):
            CertificateStore().retrieve(b"\x04" * 16)
