"""Appraiser-signed certificates and the nonce-indexed store.

Expression (3)'s ``certify(n)``, ``store(n)`` and ``retrieve(n)`` ASPs
land here: after a successful appraisal, the appraiser signs a
certificate binding (nonce, attester, verdict) and stores it so that a
second relying party can retrieve it later using the same nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.verify import registry_verify_batch
from repro.ra.claims import AppraisalVerdict
from repro.util.errors import VerificationError


@dataclass(frozen=True)
class Certificate:
    """A signed attestation result."""

    appraiser: str
    attester: str
    nonce: bytes
    accepted: bool
    signature: bytes

    @staticmethod
    def payload(appraiser: str, attester: str, nonce: bytes, accepted: bool) -> bytes:
        return b"|".join(
            [
                b"ra-cert",
                appraiser.encode(),
                attester.encode(),
                nonce,
                b"\x01" if accepted else b"\x00",
            ]
        )

    @classmethod
    def issue(
        cls,
        appraiser_keys: KeyPair,
        attester: str,
        nonce: bytes,
        verdict: AppraisalVerdict,
    ) -> "Certificate":
        payload = cls.payload(
            appraiser_keys.owner, attester, nonce, verdict.accepted
        )
        return cls(
            appraiser=appraiser_keys.owner,
            attester=attester,
            nonce=nonce,
            accepted=verdict.accepted,
            signature=appraiser_keys.sign(payload),
        )

    def verify(self, anchors: KeyRegistry) -> bool:
        """Check the certificate signature against trusted appraisers.

        Memoized through the substrate verify cache: a certificate
        presented repeatedly (UC5 gating per flow) is verified once.
        """
        [verdict] = registry_verify_batch(anchors, [(
            self.appraiser,
            self.payload(self.appraiser, self.attester, self.nonce, self.accepted),
            self.signature,
            None,
        )])
        return verdict


class CertificateStore:
    """Nonce-indexed certificate storage at the appraiser."""

    def __init__(self) -> None:
        self._by_nonce: Dict[bytes, Certificate] = {}

    def store(self, certificate: Certificate) -> None:
        if certificate.nonce in self._by_nonce:
            raise VerificationError(
                "a certificate is already stored under this nonce"
            )
        self._by_nonce[certificate.nonce] = certificate

    def retrieve(self, nonce: bytes) -> Certificate:
        certificate = self._by_nonce.get(nonce)
        if certificate is None:
            raise VerificationError("no certificate stored under this nonce")
        return certificate

    def __len__(self) -> int:
        return len(self._by_nonce)
