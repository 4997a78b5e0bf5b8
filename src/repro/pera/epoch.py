"""Epoch-batched signing: one Merkle root signature per record epoch.

The paper's Fig. 4 argues low-inertia evidence (program state, packets)
"changes quickly" and so cannot be *cached* — but it can still be
*amortized*. An :class:`EpochBatcher` accumulates the unsigned hop
records a switch produces during one **epoch**, builds a Merkle tree
over their signed payloads, signs only the root, and releases each
record as a :class:`~repro.evidence.nodes.BatchedHopEvidence` carrying the
epoch-root header plus its O(log n) inclusion proof.

An epoch seals when it reaches ``max_records``, when ``max_delay_s``
simulated seconds elapse (the switch schedules a timer through its
simulator), or on explicit flush — whichever comes first. Sealing is
synchronous and ordered: records are released in the order they were
added, so chained composition and FIFO delivery survive batching.

Security argument (docs/BATCHING.md has the long form): the root
signature covers ``epoch_root_payload(place, epoch_id, root,
leaf_count)``, so a proof from one epoch or one switch cannot be
replayed against another, and any flipped payload byte breaks the
Merkle proof exactly as it would break a per-record signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.evidence.nodes import (
    BatchedHopEvidence,
    HopEvidence,
    epoch_root_payload,
)
from repro.pera.config import BatchingSpec

# A release callback receives the proof-bearing record that replaces
# the unsigned one passed to ``add``.
ReleaseFn = Callable[[BatchedHopEvidence], None]


@dataclass
class EpochStats:
    """Counters for the batching layer (mirrored into telemetry gauges)."""

    epochs_sealed: int = 0
    records_batched: int = 0
    sealed_on_count: int = 0
    sealed_on_timer: int = 0
    sealed_on_flush: int = 0
    largest_epoch: int = 0


@dataclass(frozen=True)
class SealedEpoch:
    """What one sealed epoch committed to: id, root, signature, size."""

    epoch_id: int
    root: bytes
    root_signature: bytes
    leaf_count: int
    reason: str


class EpochBatcher:
    """Accumulates unsigned hop records and seals them under one root.

    The batcher itself is policy-free: it does not schedule timers or
    emit packets. The owning switch calls :meth:`add` per record,
    triggers :meth:`seal` on its count/timer/flush policy, and passes a
    per-record release callback that re-injects the proof-bearing
    record into whatever channel (in-band shim, out-of-band push) the
    original was destined for.
    """

    def __init__(self, place: str, keys: KeyPair, spec: BatchingSpec) -> None:
        self.place = place
        self.keys = keys
        self.spec = spec
        self.stats = EpochStats()
        self.epoch_id = 1
        self._pending: List[Tuple[HopEvidence, ReleaseFn]] = []

    @property
    def open_count(self) -> int:
        """Records waiting in the currently open epoch."""
        return len(self._pending)

    def add(self, record: HopEvidence, release: ReleaseFn) -> None:
        """Queue one unsigned record for the open epoch."""
        self._pending.append((record, release))

    def seal(
        self,
        reason: str = "flush",
        on_sealed: Optional[Callable[[SealedEpoch], None]] = None,
    ) -> Optional[SealedEpoch]:
        """Close the open epoch: sign the root, release every record.

        ``on_sealed`` fires *before* the releases so the owning switch
        can account the signature (audit events, cost model) ahead of
        the packets that carry it. Returns ``None`` on an empty epoch.
        """
        if not self._pending:
            return None
        pending, self._pending = self._pending, []
        epoch_id = self.epoch_id
        self.epoch_id += 1

        tree = MerkleTree([record.signed_payload() for record, _ in pending])
        root = tree.root
        signature = self.keys.sign(
            epoch_root_payload(self.place, epoch_id, root, tree.leaf_count)
        )
        sealed = SealedEpoch(
            epoch_id=epoch_id,
            root=root,
            root_signature=signature,
            leaf_count=tree.leaf_count,
            reason=reason,
        )

        self.stats.epochs_sealed += 1
        self.stats.records_batched += len(pending)
        self.stats.largest_epoch = max(self.stats.largest_epoch, len(pending))
        if reason == "count":
            self.stats.sealed_on_count += 1
        elif reason == "timer":
            self.stats.sealed_on_timer += 1
        else:
            self.stats.sealed_on_flush += 1

        if on_sealed is not None:
            on_sealed(sealed)
        for index, (record, release) in enumerate(pending):
            release(
                BatchedHopEvidence.from_record(
                    record, epoch_id, root, signature, tree.prove(index)
                )
            )
        return sealed

    def seal_if(
        self,
        epoch_id: int,
        reason: str = "timer",
        on_sealed: Optional[Callable[[SealedEpoch], None]] = None,
    ) -> Optional[SealedEpoch]:
        """Seal only if epoch ``epoch_id`` is still the open one.

        This is the timer callback shape: a timer armed when epoch N
        opened must be a no-op if N already sealed on record count.
        """
        if epoch_id != self.epoch_id or not self._pending:
            return None
        return self.seal(reason=reason, on_sealed=on_sealed)
