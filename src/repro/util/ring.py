"""A bounded append-only buffer whose evictions are counted, not silent.

Unbounded in-memory logs are how long simulations die: the audit
journal, the span recorder and the flight recorder's frame store all
grow with the traffic a run carries. A :class:`RingBuffer` keeps the
most recent ``capacity`` entries
and *counts* what it evicted, so an analysis over a truncated log can
say "truncated, 12 034 entries lost" instead of silently reporting on
a partial view — or eating all RAM reporting on a full one.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, List, TypeVar

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Keeps the last ``capacity`` items appended; counts evictions."""

    __slots__ = ("_items", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring buffer capacity must be positive, got {capacity}")
        self._items: "deque[T]" = deque(maxlen=capacity)
        #: How many entries have been evicted to make room.
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self._items.maxlen or 0

    def append(self, item: T) -> bool:
        """Append ``item``; returns True when an old entry was evicted."""
        evicted = len(self._items) == self._items.maxlen
        if evicted:
            self.dropped += 1
        self._items.append(item)
        return evicted

    def clear(self) -> None:
        """Drop all contents (does not reset the eviction count)."""
        self._items.clear()

    def to_list(self) -> List[T]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingBuffer):
            return list(self._items) == list(other._items)
        if isinstance(other, (list, tuple)):
            return list(self._items) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"RingBuffer(len={len(self._items)}, "
            f"capacity={self.capacity}, dropped={self.dropped})"
        )
