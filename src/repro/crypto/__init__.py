"""Cryptographic root of trust for evidence production.

The paper's threat model (§3) assumes "evidence-producing hardware
components (e.g., those that initialize a chip or generate a digital
signature) are trustworthy". This package is the software stand-in for
that trusted component:

- :mod:`repro.crypto.hashing` — SHA-256 measurement digests, hash
  chains (the Copland ``#`` operator and chained path evidence).
- :mod:`repro.crypto.ed25519` — a from-scratch Ed25519 signature
  implementation (RFC 8032), used for the Copland ``!`` operator.
- :mod:`repro.crypto.keys` — key pairs, a registry mapping principal
  names to verification keys (the appraiser's trust anchor store).
- :mod:`repro.crypto.merkle` — Merkle trees over evidence logs, for
  audit-trail use cases (UC4) and selective disclosure (UC5).
- :mod:`repro.crypto.pseudonym` — per-user pseudonyms for switches and
  programs (paper footnotes 1 and 2).
"""

from repro.crypto.hashing import (
    digest,
    HashChain,
    measure_mapping,
)
from repro.crypto.ed25519 import SigningKey, VerifyKey, sign, verify
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.pseudonym import PseudonymAuthority

__all__ = [
    "digest",
    "HashChain",
    "measure_mapping",
    "SigningKey",
    "VerifyKey",
    "sign",
    "verify",
    "KeyPair",
    "KeyRegistry",
    "MerkleTree",
    "MerkleProof",
    "PseudonymAuthority",
]
