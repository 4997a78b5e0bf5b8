"""Compact signed per-hop evidence records — views over the substrate.

A :class:`HopRecord` is what one PERA switch contributes to a packet's
in-band evidence: which place (or pseudonym) attests, which inertia
classes were measured, the measurement digests, an optional chain head
(Fig. 4 "Chained"/"Traffic Path" composition), and a signature by the
switch's root of trust.

Since the evidence-substrate refactor a record *is* a canonical
:class:`~repro.evidence.nodes.HopEvidence` node specialized with PERA's
:class:`~repro.pera.inertia.InertiaClass` vocabulary: the wire form,
content digests and the record-stack framing all come from
:mod:`repro.evidence.codec` (one codec for the whole system), and the
cached per-node digests feed the appraiser's chain replay without
re-hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.merkle import MerkleProof
from repro.evidence import codec as evidence_codec
from repro.evidence.codec import (  # noqa: F401  (re-exports)
    BATCHED_RECORD_TLV_TYPE,
    RECORD_TLV_TYPE,
)
from repro.evidence.nodes import BatchedHopEvidence, HopEvidence
from repro.evidence.verify import (
    BatchVerifyItem,
    SignatureCache,
    registry_verify,
    registry_verify_batch,
)
from repro.pera.inertia import InertiaClass
from repro.util.errors import CodecError


def _share_payload(node: HopEvidence, record: HopEvidence) -> None:
    """Hand a node's cached signed-payload bytes to its specialization.

    The zero-copy decoder seeds ``_payload`` from the received wire;
    without this, every ``from_node`` specialization would re-encode
    the payload before its first signature or proof check.
    """
    cached = node.__dict__.get("_payload")
    if cached is not None:
        object.__setattr__(record, "_payload", cached)


def _inertia_measurements(
    node: HopEvidence,
) -> Tuple[Tuple[InertiaClass, bytes], ...]:
    """A decoded node's measurement codes as PERA inertia classes.

    The codes are bytes off the wire: an unknown one is a
    :class:`CodecError`, like every other malformed input.
    """
    try:
        return tuple(
            (InertiaClass(code), value) for code, value in node.measurements
        )
    except ValueError as exc:
        raise CodecError(f"unknown inertia class in hop record: {exc}") from exc


@dataclass(frozen=True)
class HopRecord(HopEvidence):
    """One hop's signed evidence contribution.

    ``ingress_port`` reproduces the paper's UC1 example — evidence
    "could indicate that p reached switch S1 on a specific network
    port" — and is covered by the signature like every other field.

    ``measurements`` holds ``(InertiaClass, digest)`` pairs; the base
    node stores the class codes, so a record and its canonical node
    share one wire form and one cached content digest.
    """

    measurements: Tuple[Tuple[InertiaClass, bytes], ...] = ()

    # --- signing --------------------------------------------------------

    def sign_with(self, keys: KeyPair) -> "HopRecord":
        """Return a copy carrying ``keys``' signature."""
        return HopRecord(
            place=self.place,
            measurements=self.measurements,
            sequence=self.sequence,
            ingress_port=self.ingress_port,
            chain_head=self.chain_head,
            packet_digest=self.packet_digest,
            signature=keys.sign(self.signed_payload()),
        )

    def signature_item(self, signer: Optional[str] = None) -> BatchVerifyItem:
        """The ``(signer, payload, signature, payload digest)`` a
        verifier settles for this record, singly
        (:func:`registry_verify`) or many at once
        (:func:`registry_verify_batch`). ``signer`` defaults to the
        record's own place name."""
        return (
            signer or self.place,
            self.signed_payload(),
            self.signature,
            self.payload_digest(),
        )

    def verify(self, anchors: KeyRegistry, signer: Optional[str] = None) -> bool:
        """Verify the signature against the anchor of ``signer``.
        Verdicts are memoized keyed by (key id, payload digest,
        signature)."""
        return registry_verify(anchors, *self.signature_item(signer))

    # --- wire form ---------------------------------------------------------

    def encode(self) -> bytes:
        """The flat hop-record TLV stream (unwrapped legacy framing)."""
        return evidence_codec.encode_hop_body(self)

    @classmethod
    def from_node(cls, node: HopEvidence) -> "HopRecord":
        """Specialize a canonical hop node with PERA's inertia classes."""
        record = cls(
            place=node.place,
            measurements=_inertia_measurements(node),
            sequence=node.sequence,
            ingress_port=node.ingress_port,
            chain_head=node.chain_head,
            packet_digest=node.packet_digest,
            signature=node.signature,
        )
        _share_payload(node, record)
        return record

    @classmethod
    def decode(cls, data) -> "HopRecord":
        return cls.from_node(evidence_codec.decode_hop_body(data))

    def measurement_for(self, inertia: InertiaClass) -> Optional[bytes]:
        for klass, value in self.measurements:
            if klass is inertia:
                return value
        return None


@dataclass(frozen=True)
class BatchedHopRecord(BatchedHopEvidence, HopRecord):
    """A hop record amortized under an epoch-root signature.

    Produced by :class:`~repro.pera.epoch.EpochBatcher` when a switch
    runs in epoch-batched mode: the per-record ``signature`` stays
    empty, and trust flows root-signature → Merkle proof → payload.

    :meth:`verify` checks both legs. The root-signature check goes
    through the memoized substrate verify keyed on the *epoch payload
    digest* — shared by every record of the epoch — so an appraiser
    pays one real Ed25519 verification per (switch, epoch) and two
    SHA-256 hashes per tree level per record after that.
    """

    measurements: Tuple[Tuple[InertiaClass, bytes], ...] = ()

    @classmethod
    def from_record(
        cls,
        record: HopRecord,
        epoch_id: int,
        epoch_root: bytes,
        root_signature: bytes,
        proof: MerkleProof,
    ) -> "BatchedHopRecord":
        """Attach an epoch-root header + inclusion proof to a record."""
        batched = cls(
            place=record.place,
            measurements=record.measurements,
            sequence=record.sequence,
            ingress_port=record.ingress_port,
            chain_head=record.chain_head,
            packet_digest=record.packet_digest,
            signature=b"",
            epoch_id=epoch_id,
            epoch_root=epoch_root,
            root_signature=root_signature,
            leaf_index=proof.leaf_index,
            leaf_count=proof.leaf_count,
            proof_path=proof.path,
        )
        # The signed payload covers exactly the fields copied above, and
        # the seal just computed it as this record's Merkle leaf — share
        # the cached bytes instead of re-encoding them per packet.
        object.__setattr__(batched, "_payload", record.signed_payload())
        return batched

    @classmethod
    def from_batched_node(cls, node: BatchedHopEvidence) -> "BatchedHopRecord":
        """Specialize a decoded batched node with PERA's inertia classes."""
        record = cls(
            place=node.place,
            measurements=_inertia_measurements(node),
            sequence=node.sequence,
            ingress_port=node.ingress_port,
            chain_head=node.chain_head,
            packet_digest=node.packet_digest,
            signature=b"",
            epoch_id=node.epoch_id,
            epoch_root=node.epoch_root,
            root_signature=node.root_signature,
            leaf_index=node.leaf_index,
            leaf_count=node.leaf_count,
            proof_path=node.proof_path,
        )
        _share_payload(node, record)
        return record

    def signature_item(self, signer: Optional[str] = None) -> BatchVerifyItem:
        """The epoch-root signature: the one this record rests on."""
        return (
            signer or self.place,
            self.epoch_payload(),
            self.root_signature,
            self.epoch_payload_digest(),
        )

    def verify_root(
        self, anchors: KeyRegistry, signer: Optional[str] = None
    ) -> bool:
        """Verify the epoch-root signature (memoized once per epoch)."""
        return registry_verify(anchors, *self.signature_item(signer))

    def verify(self, anchors: KeyRegistry, signer: Optional[str] = None) -> bool:
        """Root signature valid *and* proof binds this payload to it."""
        return self.verify_root(anchors, signer=signer) and self.proof_ok()


def encode_record_stack(records: Sequence[HopRecord]) -> bytes:
    """Serialize hop records as the shared shim-body TLV stream."""
    return evidence_codec.encode_record_stack(records)


def decode_record_stack(data) -> List[HopRecord]:
    """Parse a shim-body TLV stream of hop records; other TLVs are
    skipped (compiled policies share the same body). Accepts ``bytes``
    or a ``memoryview`` over the packet buffer (zero-copy)."""
    return [
        BatchedHopRecord.from_batched_node(node)
        if isinstance(node, BatchedHopEvidence)
        else HopRecord.from_node(node)
        for node in evidence_codec.decode_record_stack(data)
    ]


def verify_record_batch(
    anchors: KeyRegistry,
    records: Sequence[HopRecord],
    signers: Optional[Sequence[Optional[str]]] = None,
    cache: Optional[SignatureCache] = None,
) -> List[bool]:
    """Verify many records' signatures with one batched check.

    Verdict-for-verdict identical to calling ``record.verify(anchors)``
    per record (same memo cache, same accounting), but every cache miss
    — per-record signatures and epoch-root signatures alike — settles
    in a single multi-scalar Ed25519 check. Batched records still pay
    their per-record Merkle proof walk, short-circuited exactly like
    the sequential path (no proof walk under a bad root).
    """
    items = [
        record.signature_item(signers[index] if signers is not None else None)
        for index, record in enumerate(records)
    ]
    verdicts = registry_verify_batch(anchors, items, cache=cache)
    return [
        ok and (record.proof_ok() if isinstance(record, BatchedHopRecord) else True)
        for ok, record in zip(verdicts, records)
    ]
