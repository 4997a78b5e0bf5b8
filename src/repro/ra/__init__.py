"""RATS-style remote attestation principals (paper Fig. 1, §4).

- :mod:`repro.ra.claims` — claims and attestation results.
- :mod:`repro.ra.nonce` — nonce generation and freshness tracking.
- :mod:`repro.ra.appraiser` — the Appraiser/Verifier: checks evidence
  structure, signatures, reference values and nonce freshness.
- :mod:`repro.ra.certificates` — appraiser-signed certificates and the
  nonce-indexed store (the ``store(n)``/``retrieve(n)`` ASPs of
  expression (3)).
- :mod:`repro.ra.protocol` — the out-of-band and in-band protocol
  variants of Fig. 2, executed as genuine Copland requests on the VM.
"""

from repro.ra.claims import Claim, AppraisalVerdict
from repro.ra.nonce import NonceManager
from repro.ra.appraiser import Appraiser, AppraisalPolicy
from repro.ra.certificates import Certificate, CertificateStore
from repro.ra.protocol import (
    AttestationScenario,
    ProtocolRun,
    run_out_of_band,
    run_in_band,
)

__all__ = [
    "Claim",
    "AppraisalVerdict",
    "NonceManager",
    "Appraiser",
    "AppraisalPolicy",
    "Certificate",
    "CertificateStore",
    "AttestationScenario",
    "ProtocolRun",
    "run_out_of_band",
    "run_in_band",
]
