"""Measurement digests and hash chains.

Copland's ``#`` operator hashes accrued evidence; PERA's measurement
engine hashes dataplane programs, table contents and register state.
Both bottom out here. Domain separation tags keep a program digest from
ever colliding with, say, an evidence-bundle digest.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Optional

DIGEST_LEN = 32


def digest(data: bytes, domain: str = "") -> bytes:
    """SHA-256 of ``data`` under an optional domain-separation tag.

    The tag is length-prefixed so ``("ab", b"c")`` and ``("a", b"bc")``
    hash differently.
    """
    h = hashlib.sha256()
    tag = domain.encode("utf-8")
    h.update(len(tag).to_bytes(2, "big"))
    h.update(tag)
    h.update(data)
    return h.digest()


def measure_mapping(items: Mapping[str, bytes], domain: str) -> bytes:
    """Deterministically hash a string-keyed mapping.

    Used to measure match-action table contents: the measurement must
    not depend on insertion order, so keys are sorted first.
    """
    h = hashlib.sha256()
    tag = domain.encode("utf-8")
    h.update(len(tag).to_bytes(2, "big"))
    h.update(tag)
    for key in sorted(items):
        key_bytes = key.encode("utf-8")
        value = items[key]
        h.update(len(key_bytes).to_bytes(4, "big"))
        h.update(key_bytes)
        h.update(len(value).to_bytes(4, "big"))
        h.update(value)
    return h.digest()


class HashChain:
    """An append-only hash chain, the backbone of chained path evidence.

    Each hop along an attested path extends the chain with its own
    evidence digest; the final head commits to the whole path in order
    (paper Fig. 4, "Chained" composition). Tampering with or reordering
    any link changes the head.
    """

    GENESIS = b"\x00" * DIGEST_LEN

    def __init__(self, head: Optional[bytes] = None) -> None:
        self._head = head if head is not None else self.GENESIS
        if len(self._head) != DIGEST_LEN:
            raise ValueError(
                f"hash chain head must be {DIGEST_LEN} bytes, got {len(self._head)}"
            )
        self._length = 0

    @property
    def head(self) -> bytes:
        return self._head

    @property
    def length(self) -> int:
        """Number of links appended *through this object* (not inherited)."""
        return self._length

    def extend(self, link: bytes) -> bytes:
        """Append ``link`` and return the new head."""
        self._head = digest(self._head + link, domain="hashchain-link")
        self._length += 1
        return self._head

    @staticmethod
    def replay(links: Iterable[bytes], start: Optional[bytes] = None) -> bytes:
        """Recompute the head an honest chain over ``links`` would have.

        The appraiser uses this to check a claimed chain head against
        the per-hop evidence digests it has collected.
        """
        chain = HashChain(head=start)
        for link in links:
            chain.extend(link)
        return chain.head
