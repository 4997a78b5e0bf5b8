"""Key pairs and the appraiser's trust-anchor registry.

Every attesting principal (switch root of trust, host kernel, antivirus
process, ...) owns a :class:`KeyPair`. Appraisers hold a
:class:`KeyRegistry` mapping principal names to verification keys —
this is the RATS "endorsement" input: *which* keys the appraiser trusts
is exactly the trust relationship the paper's Fig. 1 establishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.ed25519 import SigningKey, VerifyKey
from repro.util.errors import CryptoError


@dataclass(frozen=True)
class KeyPair:
    """A named Ed25519 key pair belonging to one principal."""

    owner: str
    signing_key: SigningKey

    @classmethod
    def generate(cls, owner: str) -> "KeyPair":
        """Deterministically derive a key pair from the owner name.

        Determinism keeps simulation runs reproducible; the derivation
        stands in for per-device keys burned in at manufacture.
        """
        return cls(owner=owner, signing_key=SigningKey.from_deterministic_seed(owner))

    @property
    def verify_key(self) -> VerifyKey:
        """The matching verification key (one cached instance).

        Returning the same :class:`VerifyKey` object on every access
        matters for speed: the key's decompressed curve point is cached
        per instance, so every verifier holding this key decodes the
        point once — not once per signature check.
        """
        cached = self.__dict__.get("_verify_key")
        if cached is None:
            cached = self.signing_key.verify_key()
            object.__setattr__(self, "_verify_key", cached)
        return cached

    def sign(self, message: bytes) -> bytes:
        return self.signing_key.sign(message)


class KeyRegistry:
    """Maps principal names to trusted verification keys.

    An appraiser refuses evidence signed by keys outside this registry:
    an unknown signer is exactly the "unvetted dataplane program /
    unknown device" condition of use case UC1.
    """

    def __init__(self) -> None:
        self._keys: Dict[str, VerifyKey] = {}

    def register(self, owner: str, key: VerifyKey) -> None:
        existing = self._keys.get(owner)
        if existing is not None and existing != key:
            raise CryptoError(
                f"principal {owner!r} already registered with a different key"
            )
        self._keys[owner] = key

    def register_pair(self, pair: KeyPair) -> None:
        self.register(pair.owner, pair.verify_key)

    def lookup(self, owner: str) -> Optional[VerifyKey]:
        return self._keys.get(owner)

    def verify(self, owner: str, message: bytes, signature: bytes) -> bool:
        """Verify ``signature`` over ``message`` against ``owner``'s key.

        Returns ``False`` (rather than raising) when the owner is
        unknown: to an appraiser, "unknown signer" and "bad signature"
        both mean the evidence is not trustworthy.
        """
        key = self._keys.get(owner)
        if key is None:
            return False
        try:
            return key.verify(message, signature)
        except CryptoError:
            return False

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Tuple[str, VerifyKey]]:
        return iter(sorted(self._keys.items()))
