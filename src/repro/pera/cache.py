"""The evidence cache (paper Fig. 4, "Inertia").

"High-inertia attestations are more easily cached since they take
longer to expire." The cache stores *signed* hop records
(:class:`~repro.evidence.nodes.HopEvidence`) keyed by inertia class: a
cache hit reuses the measurement, its signature, *and* the node's
cached wire form and content digest — signing and re-encoding are the
expensive per-packet operations PERA must avoid repeating.

Entries also invalidate eagerly when the measured state's digest
changes (a table write or program swap must never serve stale
evidence, however long its TTL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Mapping, Optional, TypeVar

from repro.pera.inertia import DEFAULT_TTLS, InertiaClass
from repro.util.clock import SimClock

V = TypeVar("V")


@dataclass
class _Entry(Generic[V]):
    value: V
    state_digest: bytes
    expires_at: float


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EvidenceCache(Generic[V]):
    """Per-inertia-class evidence cache with TTL + state invalidation."""

    def __init__(
        self,
        clock: SimClock,
        ttls: Optional[Mapping[InertiaClass, float]] = None,
    ) -> None:
        self._clock = clock
        self._ttls = dict(DEFAULT_TTLS)
        if ttls:
            self._ttls.update(ttls)
        self._entries: Dict[InertiaClass, _Entry[V]] = {}
        self.stats = CacheStats()

    def bind_clock(self, clock: SimClock) -> None:
        """Re-point TTL decisions at a (new, possibly skewed) clock.

        Existing entries keep their absolute expiry times; they are
        simply re-judged against the new clock — exactly how a real
        cache experiences clock skew.
        """
        self._clock = clock

    def ttl_for(self, inertia: InertiaClass) -> float:
        return self._ttls.get(inertia, 0.0)

    def get(self, inertia: InertiaClass, state_digest: bytes) -> Optional[V]:
        """Return the cached value if fresh and state-consistent."""
        entry = self._entries.get(inertia)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.state_digest != state_digest:
            self.stats.invalidations += 1
            self.stats.misses += 1
            del self._entries[inertia]
            return None
        if self._clock.now >= entry.expires_at:
            self.stats.misses += 1
            del self._entries[inertia]
            return None
        self.stats.hits += 1
        return entry.value

    def put(self, inertia: InertiaClass, state_digest: bytes, value: V) -> None:
        ttl = self.ttl_for(inertia)
        if ttl <= 0 or not inertia.cacheable:
            return  # uncacheable classes are never stored
        self._entries[inertia] = _Entry(
            value=value,
            state_digest=state_digest,
            expires_at=self._clock.now + ttl,
        )

    def peek(self, inertia: InertiaClass) -> Optional[V]:
        """The value stored for ``inertia``, fresh or not; no stats."""
        entry = self._entries.get(inertia)
        return None if entry is None else entry.value

    def invalidate(self, inertia: Optional[InertiaClass] = None) -> None:
        if inertia is None:
            self._entries.clear()
        else:
            self._entries.pop(inertia, None)

    def __len__(self) -> int:
        return len(self._entries)
