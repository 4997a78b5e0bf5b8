"""Deterministic identifier allocation.

Simulations must be reproducible, so identifiers are never drawn from
``uuid4`` or time. :class:`IdAllocator` hands out sequential ids per
namespace; :func:`short_id` derives a stable short token from content.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import DefaultDict


class IdAllocator:
    """Sequential id allocator with independent per-namespace counters.

    >>> alloc = IdAllocator()
    >>> alloc.next("flow"), alloc.next("flow"), alloc.next("pkt")
    (1, 2, 1)
    """

    def __init__(self, start: int = 1) -> None:
        self._counters: DefaultDict[str, int] = defaultdict(lambda: start - 1)

    def next(self, namespace: str = "default") -> int:
        self._counters[namespace] += 1
        return self._counters[namespace]


def short_id(content: bytes, length: int = 8) -> str:
    """Derive a stable hex token of ``length`` chars from ``content``."""
    if length < 1 or length > 64:
        raise ValueError(f"short_id length {length} out of range [1, 64]")
    return hashlib.sha256(content).hexdigest()[:length]


def spawn_seed(seed: int, *labels: object) -> int:
    """Derive a child RNG seed from ``seed`` and a label path.

    The sharded runner (and the per-target fault/loss streams) must
    draw random numbers whose values depend only on *what* is being
    decided — which link, which fault target, which shard — never on
    the order decisions interleave across shards. Hash-derived child
    seeds give every labelled consumer its own independent stream, the
    same trick as ``random.Random.spawn`` / philox counter-based RNGs,
    but stable across processes and Python versions (pure SHA-256).
    """
    material = "\x1f".join([str(seed), *[str(label) for label in labels]])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")
