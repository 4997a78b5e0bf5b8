"""Nonce generation and freshness tracking.

Expression (3) binds both relying parties' requests to a nonce ``n``
"negotiated separately"; the appraiser must reject evidence carrying a
nonce it did not issue, or one it has already consumed (replay).

Nonces are derived deterministically from a seed and a counter so that
simulation runs are reproducible while still being unpredictable to
the simulated adversary (who does not hold the seed).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Set

from repro.util.errors import VerificationError

NONCE_LEN = 16


class NonceManager:
    """Issues nonces and enforces single-use freshness."""

    def __init__(self, seed: str) -> None:
        self._seed = seed
        self._counter = 0
        self._outstanding: Set[bytes] = set()
        self._consumed: Set[bytes] = set()

    def issue(self) -> bytes:
        """Create a fresh nonce, remembered as outstanding."""
        self._counter += 1
        nonce = hashlib.sha256(
            f"nonce|{self._seed}|{self._counter}".encode()
        ).digest()[:NONCE_LEN]
        self._outstanding.add(nonce)
        return nonce

    def consume(self, nonce: bytes) -> None:
        """Mark a nonce used; raises on unknown or replayed nonces."""
        if nonce in self._consumed:
            raise VerificationError("nonce replayed")
        if nonce not in self._outstanding:
            raise VerificationError("nonce was never issued")
        self._outstanding.discard(nonce)
        self._consumed.add(nonce)

    def check(self, nonce: bytes) -> Optional[str]:
        """Non-raising freshness check; returns a failure string or None."""
        if nonce in self._consumed:
            return "nonce replayed"
        if nonce not in self._outstanding:
            return "nonce was never issued"
        return None
