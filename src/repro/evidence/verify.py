"""Memoized signature verification for the evidence substrate.

Ed25519 verification is by far the most expensive per-node appraisal
step (the from-scratch implementation in :mod:`repro.crypto.ed25519`
costs milliseconds). But verification is a pure function of
``(verify key, message, signature)`` — and attested paths re-present
the same signed records to appraisers over and over (cached hop
records, repeated appraisals, redacted views of one evidence set). So
verdicts are memoized under a key of ``(key id, message digest,
signature)``; content-addressed evidence nodes supply the message
digest already cached, making a repeat verification one dict lookup.

The shared cache is bounded (least-recently-used eviction) so
long-running appraisers cannot grow without limit. There is one route
through it: :meth:`SignatureCache.verify_batch` (and
:func:`registry_verify_batch` over the shared cache); a single
signature is a one-item batch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.crypto import ed25519
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyRegistry

#: One member of a batched verification: ``(owner, message, signature,
#: message_digest_or_None)``.
BatchVerifyItem = Tuple[str, bytes, bytes, Optional[bytes]]

_CACHE_DOMAIN = "evidence-verify-cache"


@dataclass
class VerifyCacheStats:
    """Hit/miss counters for a :class:`SignatureCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, eq=False)
class _Pending:
    """A cache entry whose verdict a running batch has not settled yet:
    the cache key it holds and its index in the batch's crypto call."""

    cache_key: tuple
    slot: int


class SignatureCache:
    """A bounded memo of signature-verification verdicts, evicting the
    least recently used entry beyond ``maxsize``."""

    def __init__(self, maxsize: int = 8192) -> None:
        self._maxsize = maxsize
        self._verdicts: "OrderedDict[tuple, bool]" = OrderedDict()
        self.stats = VerifyCacheStats()

    def verify(
        self,
        anchors: KeyRegistry,
        owner: str,
        message: bytes,
        signature: bytes,
        message_digest: Optional[bytes] = None,
    ) -> bool:
        """One signature through :meth:`verify_batch`, the one route.

        Kept as a name of its own because the performance ledger traces
        ``SignatureCache.verify`` and ``.verify_batch`` separately.
        """
        [verdict] = self.verify_batch(
            anchors, [(owner, message, signature, message_digest)]
        )
        return verdict

    def verify_batch(
        self,
        anchors: KeyRegistry,
        items: Sequence[BatchVerifyItem],
    ) -> List[bool]:
        """Verify many signatures at once through the memo; every
        verdict in the package comes from here.

        Verifies ``signature`` over ``message`` against ``owner``'s
        anchor in ``anchors`` per item, in order. ``message_digest``
        lets callers holding a content-addressed node skip re-hashing
        the message for the cache key; it must be a digest of exactly
        ``message``. Unknown signers are ``False`` and uncacheable. A
        miss inserts a pending placeholder (evicting the least recently
        used entry as it goes), and a later item that finds it — an
        in-batch duplicate — counts as a *hit*. All misses are then
        settled by one :func:`repro.crypto.ed25519.verify_batch` call,
        which folds malformed signatures to ``False``, and the
        placeholders still cached are filled with their verdicts.
        """
        # Each item's verdict: a bool, or the placeholder whose crypto
        # slot settles it.
        results: List[Union[bool, _Pending]] = []
        pending: List[_Pending] = []
        crypto_items: List[tuple] = []
        for owner, message, signature, message_digest in items:
            key_obj = anchors.lookup(owner)
            if key_obj is None:
                results.append(False)  # unknown signers: uncacheable
                continue
            if message_digest is None:
                message_digest = digest(message, domain=_CACHE_DOMAIN)
            cache_key = (key_obj.key_bytes, message_digest, signature)
            if cache_key in self._verdicts:
                self.stats.hits += 1
                self._verdicts.move_to_end(cache_key)
                results.append(self._verdicts[cache_key])
                continue
            self.stats.misses += 1
            placeholder = _Pending(cache_key, len(crypto_items))
            pending.append(placeholder)
            crypto_items.append((key_obj, bytes(message), signature))
            results.append(placeholder)
            self._verdicts[cache_key] = placeholder
            while len(self._verdicts) > self._maxsize:
                self._verdicts.popitem(last=False)
        try:
            verdicts = ed25519.verify_batch(crypto_items) if crypto_items else []
        except BaseException:
            # A placeholder must never outlive the call as a verdict.
            for placeholder in pending:
                if self._verdicts.get(placeholder.cache_key) is placeholder:
                    del self._verdicts[placeholder.cache_key]
            raise
        for placeholder in pending:
            if self._verdicts.get(placeholder.cache_key) is placeholder:
                self._verdicts[placeholder.cache_key] = verdicts[placeholder.slot]
        return [
            verdicts[r.slot] if isinstance(r, _Pending) else r for r in results
        ]

    def clear(self) -> None:
        self._verdicts.clear()
        self.stats = VerifyCacheStats()

    def __len__(self) -> int:
        return len(self._verdicts)


#: The process-wide cache every appraiser shares by default. Sound to
#: share because the key pins the exact public key bytes, message and
#: signature — registry contents cannot change a cached verdict's truth.
shared_cache = SignatureCache()


def registry_verify_batch(
    anchors: KeyRegistry,
    items: Sequence[BatchVerifyItem],
    cache: Optional[SignatureCache] = None,
) -> List[bool]:
    """Memoized drop-in for :meth:`KeyRegistry.verify` over many
    ``(owner, message, signature, digest_or_None)`` items: one
    multi-scalar check settles every cache miss."""
    # Explicit None check: an *empty* cache is falsy (it has __len__)
    # but must still be honoured as the caller's chosen cache.
    if cache is None:
        cache = shared_cache
    return cache.verify_batch(anchors, items)
