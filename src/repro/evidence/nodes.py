"""Canonical evidence nodes — the one evidence model every layer shares.

The paper's whole mechanism is evidence flowing between layers: Copland
phrases *produce* it, PERA switches *create/inspect/compose* it, RA
principals *appraise* it. These classes are the single concrete
representation all of them use. The shape mirrors the Copland evidence
grammar (mt, nonce, measurement, signature, hash, sequential pair,
parallel pair) plus one network-native node — :class:`HopEvidence`, the
hop-composed record a PERA switch contributes per attesting hop (and
:class:`BatchedHopEvidence`, its epoch-batched form). The switch signs
that type, the codec decodes straight into it and the appraiser
verifies it; :class:`InertiaClass`, the code space of its measurement
field, is defined here for the same reason.

Two properties make this the system's hot-path substrate:

- **One wire form.** Every node encodes as a single TLV
  (:data:`~repro.evidence.nodes` kind tags, bodies built on
  :mod:`repro.util.tlv`); :mod:`repro.evidence.codec` is the matching
  decoder. No layer carries a private encoding any more.
- **Content addressing.** Nodes are frozen; :attr:`Evidence.wire` and
  :attr:`Evidence.content_digest` are computed once per object and
  cached, so signing, hashing, chain replay and appraisal all reuse the
  same bytes instead of re-encoding subtrees per step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterable, Iterator, Optional, Tuple

from repro.crypto.hashing import digest
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleProof
from repro.evidence.verify import BatchVerifyItem
from repro.util.tlv import Tlv, TlvCodec

# One TLV-type namespace for evidence nodes. 0x10 and 0x20 match the
# legacy shim-body framing (hop records / compiled policies), so wire
# forms stay compatible with pre-substrate captures.
KIND_EMPTY = 0x01
KIND_NONCE = 0x02
KIND_MEASUREMENT = 0x03
KIND_SIGNATURE = 0x04
KIND_HASH = 0x05
KIND_SEQUENCE = 0x06
KIND_PARALLEL = 0x07
KIND_HOP = 0x10
KIND_BATCHED_HOP = 0x11  # hop record + epoch-root header + Merkle proof

# The per-field TLV types inside node bodies. Child nodes always ride
# in a CHILD field (their value is the child's full node TLV), so field
# types and node kinds can never be confused while decoding.
_F_A = 1
_F_B = 2
_F_C = 3
_F_D = 4
_F_E = 5
F_CHILD = 8

# Hop-record body field types (kept identical to the original
# repro.pera.records layout so hop wire forms are stable).
HOP_F_PLACE = 1
HOP_F_MEASUREMENT = 2  # value: class code (1B) + digest
HOP_F_CHAIN_HEAD = 3
HOP_F_PACKET_DIGEST = 4
HOP_F_SIGNATURE = 5
HOP_F_SEQUENCE = 6  # value: 4-byte attestation sequence number
HOP_F_INGRESS_PORT = 7  # value: 2-byte ingress port


class InertiaClass(enum.IntEnum):
    """The five inertia classes of attestable information (paper
    Fig. 4) — the value space of a :data:`HOP_F_MEASUREMENT` class
    code, which is why the enum lives beside the wire field.

    Ordered from highest inertia (slowest-changing) to lowest.
    """

    HARDWARE = 1
    PROGRAM = 2
    TABLES = 3
    PROG_STATE = 4
    PACKETS = 5

    @property
    def cacheable(self) -> bool:
        """Packet-level evidence can never be reused across packets."""
        return self is not InertiaClass.PACKETS


# Batched-hop body field types (the 0x11 proof-bearing record).
BATCH_F_HOP = 1  # value: flat hop-record payload TLVs (no signature)
BATCH_F_EPOCH = 2  # value: 8B epoch id + 4B leaf index + 4B leaf count
BATCH_F_ROOT = 3  # value: 32B epoch Merkle root
BATCH_F_ROOT_SIG = 4  # value: 64B signature over the epoch-root payload
BATCH_F_SIBLING_LEFT = 5  # value: 32B proof sibling hash (sibling left)
BATCH_F_SIBLING_RIGHT = 6  # value: 32B proof sibling hash (sibling right)

DIGEST_DOMAIN = "evidence-node"
EPOCH_ROOT_DOMAIN = b"pera-epoch-root"
EPOCH_DIGEST_DOMAIN = "epoch-root"


def epoch_root_payload(
    place: str, epoch_id: int, root: bytes, leaf_count: int
) -> bytes:
    """The bytes an epoch-root signature covers.

    Domain-separated and self-delimiting: the attesting place, the
    epoch number and the leaf count are all bound under the signature,
    so a root cannot be replayed for another switch or another epoch.
    """
    name = place.encode("utf-8")
    return b"".join(
        [
            EPOCH_ROOT_DOMAIN,
            len(name).to_bytes(2, "big"),
            name,
            epoch_id.to_bytes(8, "big"),
            leaf_count.to_bytes(4, "big"),
            root,
        ]
    )


def hop_link_digest(values: Iterable[bytes]) -> bytes:
    """The hash-chain link one hop contributes: the digest of its
    concatenated measurement values. The attesting switch (extending
    the chain before the record exists) and the appraiser (replaying
    it from the record) both call this."""
    return digest(b"".join(values), domain="hop-measurements")


class Evidence:
    """Base class of canonical evidence nodes.

    Subclasses are frozen dataclasses; the canonical wire form and the
    content digest are computed lazily once and cached on the instance
    (safe because the fields never change).
    """

    KIND: ClassVar[int] = 0

    # --- canonical bytes -------------------------------------------------

    def _body(self) -> bytes:
        """The TLV body of this node (children via their cached wire)."""
        raise NotImplementedError

    @property
    def wire(self) -> bytes:
        """Canonical encoding: one TLV of this node's kind."""
        cached = self.__dict__.get("_wire")
        if cached is None:
            cached = Tlv(self.KIND, self._body()).encode()
            object.__setattr__(self, "_wire", cached)
        return cached

    def encode(self) -> bytes:
        """Alias for :attr:`wire` (the historical entry point)."""
        return self.wire

    @property
    def content_digest(self) -> bytes:
        """SHA-256 of the canonical wire form, computed once."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest(self.wire, domain=DIGEST_DOMAIN)
            object.__setattr__(self, "_digest", cached)
        return cached

    # --- structure -------------------------------------------------------

    def summary(self) -> str:
        raise NotImplementedError

    def walk(self) -> Iterator["Evidence"]:
        """Pre-order traversal of the evidence tree."""
        yield self
        for child in self._children():
            yield from child.walk()

    def _children(self) -> Tuple["Evidence", ...]:
        return ()

    def find_measurements(self) -> Tuple["MeasurementEvidence", ...]:
        return tuple(
            node for node in self.walk() if isinstance(node, MeasurementEvidence)
        )

    def find_signatures(self) -> Tuple["SignedEvidence", ...]:
        return tuple(
            node for node in self.walk() if isinstance(node, SignedEvidence)
        )


@dataclass(frozen=True)
class EmptyEvidence(Evidence):
    """mt — the empty evidence."""

    KIND: ClassVar[int] = KIND_EMPTY

    def _body(self) -> bytes:
        return b""

    def summary(self) -> str:
        return "mt"


@dataclass(frozen=True)
class NonceEvidence(Evidence):
    """A relying-party nonce bound into the evidence (freshness)."""

    KIND: ClassVar[int] = KIND_NONCE

    name: str
    value: bytes

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [Tlv(_F_A, self.name.encode("utf-8")), Tlv(_F_B, self.value)]
        )

    def summary(self) -> str:
        return f"nonce({self.name})"


@dataclass(frozen=True)
class MeasurementEvidence(Evidence):
    """An ASP's output: who measured what, where, and the raw value."""

    KIND: ClassVar[int] = KIND_MEASUREMENT

    asp: str
    place: str  # place where the ASP ran
    target: str  # component measured ("" for service ASPs)
    target_place: str
    value: bytes  # the measurement itself (e.g. a digest)
    prior: Evidence = field(default_factory=EmptyEvidence)

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [
                Tlv(_F_A, self.asp.encode("utf-8")),
                Tlv(_F_B, self.place.encode("utf-8")),
                Tlv(_F_C, self.target.encode("utf-8")),
                Tlv(_F_D, self.target_place.encode("utf-8")),
                Tlv(_F_E, self.value),
                Tlv(F_CHILD, self.prior.wire),
            ]
        )

    def summary(self) -> str:
        target = f" {self.target_place} {self.target}" if self.target else ""
        return f"{self.asp}{target}@{self.place}[{self.prior.summary()}]"

    def _children(self) -> Tuple[Evidence, ...]:
        return (self.prior,)


@dataclass(frozen=True)
class SignedEvidence(Evidence):
    """``!`` — evidence signed by the key of ``place``."""

    KIND: ClassVar[int] = KIND_SIGNATURE

    evidence: Evidence
    place: str
    signature: bytes

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [
                Tlv(_F_A, self.place.encode("utf-8")),
                Tlv(_F_B, self.signature),
                Tlv(F_CHILD, self.evidence.wire),
            ]
        )

    def summary(self) -> str:
        return f"sig_{self.place}({self.evidence.summary()})"

    def _children(self) -> Tuple[Evidence, ...]:
        return (self.evidence,)

    def signed_payload(self) -> bytes:
        """The bytes the signature covers (the inner node's wire form)."""
        return self.evidence.wire

    def payload_digest(self) -> bytes:
        """Content digest of the signed payload (cached on the child)."""
        return self.evidence.content_digest

    def signature_item(self) -> BatchVerifyItem:
        """The ``(place, payload, signature, payload digest)`` a
        verifier settles for this node."""
        return (
            self.place,
            self.signed_payload(),
            self.signature,
            self.payload_digest(),
        )


@dataclass(frozen=True)
class HashEvidence(Evidence):
    """``#`` — evidence replaced by its digest (size reduction)."""

    KIND: ClassVar[int] = KIND_HASH

    digest_value: bytes
    place: str

    @classmethod
    def of(cls, evidence: Evidence, place: str) -> "HashEvidence":
        return cls(digest_value=evidence.content_digest, place=place)

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [Tlv(_F_A, self.place.encode("utf-8")), Tlv(_F_B, self.digest_value)]
        )

    def summary(self) -> str:
        return f"hsh_{self.place}"

    @staticmethod
    def matches(evidence: Evidence, digest_value: bytes) -> bool:
        """Would hashing ``evidence`` yield ``digest_value``?"""
        return evidence.content_digest == digest_value


@dataclass(frozen=True)
class SequenceEvidence(Evidence):
    """``ss`` — evidence of a branch-sequential composition."""

    KIND: ClassVar[int] = KIND_SEQUENCE

    left: Evidence
    right: Evidence

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [Tlv(F_CHILD, self.left.wire), Tlv(F_CHILD, self.right.wire)]
        )

    def summary(self) -> str:
        return f"({self.left.summary()} ; {self.right.summary()})"

    def _children(self) -> Tuple[Evidence, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class ParallelEvidence(Evidence):
    """``pp`` — evidence of a branch-parallel composition."""

    KIND: ClassVar[int] = KIND_PARALLEL

    left: Evidence
    right: Evidence

    def _body(self) -> bytes:
        return TlvCodec.encode(
            [Tlv(F_CHILD, self.left.wire), Tlv(F_CHILD, self.right.wire)]
        )

    def summary(self) -> str:
        return f"({self.left.summary()} || {self.right.summary()})"

    def _children(self) -> Tuple[Evidence, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class HopEvidence(Evidence):
    """Hop-composed evidence: one attesting hop's signed contribution.

    This is the one PERA hop record (paper Fig. 3 "Create/Compose"),
    shared by the switch that produces it and the appraiser that
    decodes it: the attesting place (real name or pseudonym), the
    ``(InertiaClass, digest)`` measurement pairs, an optional chain
    head (Fig. 4 "Chained"/"Traffic Path" composition) and packet
    digest, and the root-of-trust signature. Its body layout is exactly
    the original hop-record TLV stream, so wire forms are stable.

    ``ingress_port`` reproduces the paper's UC1 example — evidence
    "could indicate that p reached switch S1 on a specific network
    port" — and is covered by the signature like every other field.
    """

    KIND: ClassVar[int] = KIND_HOP

    place: str
    measurements: Tuple[Tuple[InertiaClass, bytes], ...]
    sequence: int = 0
    ingress_port: Optional[int] = None
    chain_head: Optional[bytes] = None
    packet_digest: Optional[bytes] = None
    signature: bytes = b""

    # --- signing --------------------------------------------------------

    def sign_with(self, keys: KeyPair) -> "HopEvidence":
        """Return a copy carrying ``keys``' signature.

        The signature does not cover itself, so the copy shares the
        payload bytes just signed instead of encoding them again for
        its wire form.
        """
        payload = self.signed_payload()
        signed = replace(self, signature=keys.sign(payload))
        object.__setattr__(signed, "_payload", payload)
        return signed

    def signature_item(self, signer: Optional[str] = None) -> BatchVerifyItem:
        """The ``(signer, payload, signature, payload digest)`` a
        verifier settles for this record through the memoized batch
        (:func:`~repro.pera.records.verify_record_batch`, or
        :func:`registry_verify_batch` beside other triples). ``signer``
        defaults to the record's own place name."""
        return (
            signer or self.place,
            self.signed_payload(),
            self.signature,
            self.payload_digest(),
        )

    def measurement_for(self, inertia: InertiaClass) -> Optional[bytes]:
        for klass, value in self.measurements:
            if klass is inertia:
                return value
        return None

    # --- canonical bytes -------------------------------------------------

    def signed_payload(self) -> bytes:
        """The bytes the signature covers (everything but itself)."""
        cached = self.__dict__.get("_payload")
        if cached is None:
            elements = [Tlv(HOP_F_PLACE, self.place.encode("utf-8"))]
            for code, value in self.measurements:
                elements.append(Tlv(HOP_F_MEASUREMENT, bytes([code]) + value))
            elements.append(Tlv(HOP_F_SEQUENCE, self.sequence.to_bytes(4, "big")))
            if self.ingress_port is not None:
                elements.append(
                    Tlv(HOP_F_INGRESS_PORT, self.ingress_port.to_bytes(2, "big"))
                )
            if self.chain_head is not None:
                elements.append(Tlv(HOP_F_CHAIN_HEAD, self.chain_head))
            if self.packet_digest is not None:
                elements.append(Tlv(HOP_F_PACKET_DIGEST, self.packet_digest))
            cached = TlvCodec.encode(elements)
            object.__setattr__(self, "_payload", cached)
        return cached

    def payload_digest(self) -> bytes:
        """Content digest of the signed payload, computed once."""
        cached = self.__dict__.get("_payload_digest")
        if cached is None:
            cached = digest(self.signed_payload(), domain=DIGEST_DOMAIN)
            object.__setattr__(self, "_payload_digest", cached)
        return cached

    def link_digest(self) -> bytes:
        """The hash-chain link this hop contributes, computed once.

        Both the attesting switch (extending the chain) and the
        appraiser (replaying it) need the digest of this hop's
        concatenated measurement values; caching it here means each is
        hashed exactly once per record object.
        """
        cached = self.__dict__.get("_link_digest")
        if cached is None:
            cached = hop_link_digest(value for _, value in self.measurements)
            object.__setattr__(self, "_link_digest", cached)
        return cached

    def _body(self) -> bytes:
        return self.signed_payload() + Tlv(HOP_F_SIGNATURE, self.signature).encode()

    def summary(self) -> str:
        return f"hop_{self.place}({len(self.measurements)} meas)"


@dataclass(frozen=True)
class BatchedHopEvidence(HopEvidence):
    """A hop record amortized under an epoch-root signature.

    In epoch-batched mode (:mod:`repro.pera.epoch`) a switch does not
    sign each hop record; it accumulates the records of one epoch into
    a Merkle tree and signs only the root. Each emitted record then
    carries, instead of a per-record signature, the **epoch-root
    header** (epoch id, root, root signature, leaf count) plus its
    **inclusion proof** — the sibling hashes from its leaf to the root.

    The record's :meth:`signed_payload` (the same bytes a per-packet
    signature would cover) is the Merkle leaf, so any flipped payload
    byte breaks the proof exactly as it would break a signature. The
    inherited ``signature`` field stays empty: trust flows
    root-signature → Merkle proof → payload, and
    :func:`~repro.pera.records.verify_record_batch` checks both legs.
    """

    KIND: ClassVar[int] = KIND_BATCHED_HOP

    epoch_id: int = 0
    epoch_root: bytes = b""
    root_signature: bytes = b""
    leaf_index: int = 0
    leaf_count: int = 0
    proof_path: Tuple[Tuple[bytes, bool], ...] = ()

    @classmethod
    def from_record(
        cls,
        record: HopEvidence,
        epoch_id: int,
        epoch_root: bytes,
        root_signature: bytes,
        proof: MerkleProof,
    ) -> "BatchedHopEvidence":
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

    # --- epoch-root header ----------------------------------------------

    def epoch_payload(self) -> bytes:
        """The bytes the epoch-root signature covers."""
        return epoch_root_payload(
            self.place, self.epoch_id, self.epoch_root, self.leaf_count
        )

    def epoch_payload_digest(self) -> bytes:
        """Digest of the epoch-root payload, computed once per record.

        Every record of one epoch shares the same payload bytes, so the
        memoized substrate verify collapses the whole epoch's root
        checks into a single Ed25519 verification plus dict hits.
        """
        cached = self.__dict__.get("_epoch_digest")
        if cached is None:
            cached = digest(self.epoch_payload(), domain=EPOCH_DIGEST_DOMAIN)
            object.__setattr__(self, "_epoch_digest", cached)
        return cached

    # --- the inclusion proof --------------------------------------------

    def proof(self) -> MerkleProof:
        return MerkleProof(
            leaf_index=self.leaf_index,
            leaf_count=self.leaf_count,
            path=self.proof_path,
        )

    def proof_ok(self) -> bool:
        """Does the proof bind this record's payload to the epoch root?

        Two SHA-256 hashes per tree level — the cheap per-packet check
        that replaces a full Ed25519 verification in batched mode.
        """
        return self.proof().verify(self.signed_payload(), self.epoch_root)

    # --- verification ----------------------------------------------------

    def signature_item(self, signer: Optional[str] = None) -> BatchVerifyItem:
        """The epoch-root signature: the one this record rests on. The
        memo keys it on the *epoch payload digest*, shared by every
        record of the epoch, so an appraiser pays one real Ed25519
        verification per (switch, epoch)."""
        return (
            signer or self.place,
            self.epoch_payload(),
            self.root_signature,
            self.epoch_payload_digest(),
        )

    # --- wire form -------------------------------------------------------

    def _body(self) -> bytes:
        elements = [
            Tlv(BATCH_F_HOP, self.signed_payload()),
            Tlv(
                BATCH_F_EPOCH,
                self.epoch_id.to_bytes(8, "big")
                + self.leaf_index.to_bytes(4, "big")
                + self.leaf_count.to_bytes(4, "big"),
            ),
            Tlv(BATCH_F_ROOT, self.epoch_root),
            Tlv(BATCH_F_ROOT_SIG, self.root_signature),
        ]
        for sibling, sibling_is_left in self.proof_path:
            elements.append(
                Tlv(
                    BATCH_F_SIBLING_LEFT
                    if sibling_is_left
                    else BATCH_F_SIBLING_RIGHT,
                    sibling,
                )
            )
        return TlvCodec.encode(elements)

    def summary(self) -> str:
        return (
            f"hop_{self.place}(epoch {self.epoch_id}, "
            f"leaf {self.leaf_index}/{self.leaf_count})"
        )
