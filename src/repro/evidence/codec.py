"""The one evidence wire codec.

Encoding lives on the nodes themselves (:attr:`Evidence.wire`, cached);
this module is the matching decoder plus the shim-body framing shared
by every layer. The shim body of an attested packet is a flat TLV
stream ``[policy TLV][hop TLV]*``: compiled policies are type ``0x20``
(:data:`POLICY_TLV_TYPE`, decoded by :mod:`repro.core.wire`), hop
records are type ``0x10`` (:data:`RECORD_TLV_TYPE` ==
:data:`~repro.evidence.nodes.KIND_HOP`, decoded here). Each decoder
skips the other's types, exactly as the paper's §5.2 options header
requires.

Decoders raise only :class:`~repro.util.errors.CodecError` on malformed
input — they sit directly on the attack surface.

Decoding is **zero-copy**: every decoder accepts ``bytes | memoryview``
and walks :meth:`TlvCodec.iter_views` slices (O(1) views into the
packet buffer) through all nesting levels, materializing owned bytes
only at terminal fields.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.evidence.nodes import (
    BATCH_F_EPOCH,
    BATCH_F_HOP,
    BATCH_F_ROOT,
    BATCH_F_ROOT_SIG,
    BATCH_F_SIBLING_LEFT,
    BATCH_F_SIBLING_RIGHT,
    F_CHILD,
    HOP_F_CHAIN_HEAD,
    HOP_F_INGRESS_PORT,
    HOP_F_MEASUREMENT,
    HOP_F_PACKET_DIGEST,
    HOP_F_PLACE,
    HOP_F_SEQUENCE,
    HOP_F_SIGNATURE,
    KIND_BATCHED_HOP,
    KIND_EMPTY,
    KIND_HASH,
    KIND_HOP,
    KIND_MEASUREMENT,
    KIND_NONCE,
    KIND_PARALLEL,
    KIND_SEQUENCE,
    KIND_SIGNATURE,
    BatchedHopEvidence,
    EmptyEvidence,
    Evidence,
    HashEvidence,
    HopEvidence,
    InertiaClass,
    MeasurementEvidence,
    NonceEvidence,
    ParallelEvidence,
    SequenceEvidence,
    SignedEvidence,
)
from repro.util.errors import CodecError
from repro.util.tlv import ByteSource, TlvCodec

# Shim-body framing types (one namespace for everything riding in the
# RA options header).
RECORD_TLV_TYPE = KIND_HOP  # 0x10 — one hop record
BATCHED_RECORD_TLV_TYPE = KIND_BATCHED_HOP  # 0x11 — hop record + proof
POLICY_TLV_TYPE = 0x20  # one compiled policy (see repro.core.wire)

# Guard against adversarial deep nesting blowing the Python stack.
_MAX_DEPTH = 64


def _text(value: ByteSource, what: str) -> str:
    try:
        return str(value, "utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"{what} is not valid UTF-8") from exc


def encode_node(node: Evidence) -> bytes:
    """Canonical encoding of one node (cached on the node itself)."""
    return node.wire


def decode_node(data: ByteSource) -> Evidence:
    """Decode exactly one evidence node from ``data``."""
    elements = list(TlvCodec.iter_views(data))
    if len(elements) != 1:
        raise CodecError(
            f"expected exactly one evidence node TLV, found {len(elements)}"
        )
    kind, body = elements[0]
    return _node_from_view(kind, body, depth=0)


_View = Tuple[int, memoryview]


def _walk_body(body: memoryview) -> Tuple[Dict[int, memoryview], List[memoryview]]:
    """Split a generic node body into field views and child views."""
    fields: Dict[int, memoryview] = {}
    children: List[memoryview] = []
    for tlv_type, value in TlvCodec.iter_views(body):
        if tlv_type == F_CHILD:
            children.append(value)
        else:
            fields.setdefault(tlv_type, value)
    return fields, children


def _child_nodes(children: List[memoryview], depth: int) -> List[Evidence]:
    return [
        _node_from_view(*_single_view(child), depth=depth + 1)
        for child in children
    ]


def _single_view(data: memoryview) -> _View:
    elements = list(TlvCodec.iter_views(data))
    if len(elements) != 1:
        raise CodecError(
            f"child field must hold exactly one node TLV, found {len(elements)}"
        )
    return elements[0]


def _node_from_view(kind: int, body: memoryview, depth: int) -> Evidence:
    if depth > _MAX_DEPTH:
        raise CodecError(f"evidence tree deeper than {_MAX_DEPTH} levels")
    if kind == KIND_HOP:
        return decode_hop_body(body)
    if kind == KIND_BATCHED_HOP:
        return decode_batched_hop_body(body)
    if kind == KIND_EMPTY:
        # Walk (and thereby validate) the body even though mt is empty.
        _walk_body(body)
        return EmptyEvidence()
    fields, children = _walk_body(body)
    if kind == KIND_NONCE:
        if 1 not in fields or 2 not in fields:
            raise CodecError("nonce node missing name or value")
        return NonceEvidence(
            name=_text(fields[1], "nonce name"), value=bytes(fields[2])
        )
    if kind == KIND_MEASUREMENT:
        nodes = _child_nodes(children, depth)
        if len(nodes) != 1:
            raise CodecError("measurement node needs exactly one prior child")
        missing = [f for f in (1, 2, 3, 4, 5) if f not in fields]
        if missing:
            raise CodecError(f"measurement node missing fields {missing}")
        return MeasurementEvidence(
            asp=_text(fields[1], "asp name"),
            place=_text(fields[2], "place name"),
            target=_text(fields[3], "target name"),
            target_place=_text(fields[4], "target place"),
            value=bytes(fields[5]),
            prior=nodes[0],
        )
    if kind == KIND_SIGNATURE:
        nodes = _child_nodes(children, depth)
        if len(nodes) != 1:
            raise CodecError("signature node needs exactly one child")
        if 1 not in fields or 2 not in fields:
            raise CodecError("signature node missing place or signature")
        return SignedEvidence(
            evidence=nodes[0],
            place=_text(fields[1], "signer place"),
            signature=bytes(fields[2]),
        )
    if kind == KIND_HASH:
        if 1 not in fields or 2 not in fields:
            raise CodecError("hash node missing place or digest")
        return HashEvidence(
            digest_value=bytes(fields[2]), place=_text(fields[1], "hasher place")
        )
    if kind in (KIND_SEQUENCE, KIND_PARALLEL):
        nodes = _child_nodes(children, depth)
        if len(nodes) != 2:
            raise CodecError("pair node needs exactly two children")
        cls = SequenceEvidence if kind == KIND_SEQUENCE else ParallelEvidence
        return cls(left=nodes[0], right=nodes[1])
    raise CodecError(f"unknown evidence node kind {kind:#04x}")


# --- hop records (the in-band fast path) ------------------------------


def encode_hop_body(hop: HopEvidence) -> bytes:
    """The flat hop-record TLV stream (payload + signature field) —
    a plain hop's node body, and what an epoch-batched record would
    have been had it been signed on its own."""
    return HopEvidence._body(hop)


# The canonical payload field order emitted by ``signed_payload()``:
# place, measurements, sequence, then the optional fixed-position tail.
# Ranks are positional, not numeric-by-type (sequence/ingress-port were
# added after chain-head/packet-digest and encode *before* them).
_CANONICAL_HOP_RANK = {
    HOP_F_PLACE: 0,
    HOP_F_MEASUREMENT: 1,
    HOP_F_SEQUENCE: 2,
    HOP_F_INGRESS_PORT: 3,
    HOP_F_CHAIN_HEAD: 4,
    HOP_F_PACKET_DIGEST: 5,
}


def _hop_fields(data: ByteSource) -> Tuple[dict, Optional[bytes]]:
    """Walk the flat hop-record field stream once: the hop node's
    constructor arguments, and the signed-payload prefix of the input
    to seed its ``_payload`` cache with (``None`` when not canonical).

    When the wire layout is canonical — payload fields in the exact
    order ``signed_payload()`` emits them (each at most once, except
    measurements, and the mandatory sequence field present), signature
    field last or absent as in batched inner hops — the signed-payload
    prefix of the input is seeded into the node's ``_payload`` cache,
    so appraisal-side digest and signature checks reuse the received
    bytes instead of re-encoding the record. Any deviation (reordered
    or duplicated payload fields, a missing sequence field, fields
    after the signature) falls back to the canonical re-encode, so a
    wire whose *content* matches what the signer signed still verifies
    regardless of field order, and a payload mismatch can never hide
    behind the seeded cache.

    Measurement class codes are bytes off the wire: one outside
    :class:`InertiaClass` is a :class:`CodecError`, like every other
    malformed input.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    place = None
    measurements: List[tuple] = []
    sequence = 0
    sequence_seen = False
    ingress_port = None
    chain_head = None
    packet_digest = None
    signature = b""
    offset = 0
    payload_end = None  # where the signed prefix stops, if canonical
    canonical = True
    last_rank = -1
    for tlv_type, value in TlvCodec.iter_views(view):
        if tlv_type == HOP_F_SIGNATURE:
            if payload_end is not None:
                canonical = False  # duplicate signature field
            payload_end = offset
        else:
            if payload_end is not None:
                canonical = False  # payload field after the signature
            rank = _CANONICAL_HOP_RANK.get(tlv_type, -1)
            if rank < last_rank or (
                rank == last_rank and tlv_type != HOP_F_MEASUREMENT
            ):
                canonical = False  # out-of-order or duplicated field
            else:
                last_rank = rank
        offset += 3 + len(value)
        if tlv_type == HOP_F_PLACE:
            place = _text(value, "hop place")
        elif tlv_type == HOP_F_MEASUREMENT:
            if len(value) < 1:
                raise CodecError("measurement TLV too short")
            try:
                inertia = InertiaClass(value[0])
            except ValueError as exc:
                raise CodecError(
                    f"unknown inertia class in hop record: {exc}"
                ) from exc
            measurements.append((inertia, bytes(value[1:])))
        elif tlv_type == HOP_F_SEQUENCE:
            if len(value) != 4:
                raise CodecError("sequence TLV must be 4 bytes")
            sequence = int.from_bytes(value, "big")
            sequence_seen = True
        elif tlv_type == HOP_F_INGRESS_PORT:
            if len(value) != 2:
                raise CodecError("ingress-port TLV must be 2 bytes")
            ingress_port = int.from_bytes(value, "big")
        elif tlv_type == HOP_F_CHAIN_HEAD:
            chain_head = bytes(value)
        elif tlv_type == HOP_F_PACKET_DIGEST:
            packet_digest = bytes(value)
        elif tlv_type == HOP_F_SIGNATURE:
            signature = bytes(value)
        else:
            raise CodecError(f"unknown hop-record TLV type {tlv_type}")
    if place is None:
        raise CodecError("hop record missing place")
    fields = dict(
        place=place,
        measurements=tuple(measurements),
        sequence=sequence,
        ingress_port=ingress_port,
        chain_head=chain_head,
        packet_digest=packet_digest,
        signature=signature,
    )
    # The canonical encoder always emits the sequence field (even for
    # sequence 0); a wire without one cannot be its own signed payload.
    if canonical and sequence_seen:
        end = len(view) if payload_end is None else payload_end
        return fields, bytes(view[:end])
    return fields, None


def _build_hop(cls, fields: dict, payload: Optional[bytes]):
    """The one constructor call per decoded hop, payload cache seeded."""
    hop = cls(**fields)
    if payload is not None:
        object.__setattr__(hop, "_payload", payload)
    return hop


def decode_hop_body(data: ByteSource) -> HopEvidence:
    """Decode the flat hop-record field stream into a hop node."""
    return _build_hop(HopEvidence, *_hop_fields(data))


# --- batched hop records (epoch-root header + Merkle proof) -----------


def decode_batched_hop_body(data: ByteSource) -> BatchedHopEvidence:
    """Decode one batched hop record (strictly: fixed-width crypto fields).

    The hop-payload sub-stream is walked as a view and its bytes seed
    the record's ``_payload`` cache (batched inner hops carry no
    signature field, so the whole sub-stream is the signed prefix): the
    Merkle leaf check in ``proof_ok`` and the per-epoch digest then
    reuse the received wire bytes instead of re-encoding the payload
    per packet.
    """
    hop = payload = None
    epoch_id = leaf_index = leaf_count = None
    epoch_root = None
    root_signature = None
    proof_path: List[tuple] = []
    for tlv_type, value in TlvCodec.iter_views(data):
        if tlv_type == BATCH_F_HOP:
            hop, payload = _hop_fields(value)
            if hop["signature"]:
                raise CodecError(
                    "batched hop record must not carry a per-record signature"
                )
        elif tlv_type == BATCH_F_EPOCH:
            if len(value) != 16:
                raise CodecError("epoch TLV must be 16 bytes")
            epoch_id = int.from_bytes(value[:8], "big")
            leaf_index = int.from_bytes(value[8:12], "big")
            leaf_count = int.from_bytes(value[12:16], "big")
        elif tlv_type == BATCH_F_ROOT:
            if len(value) != 32:
                raise CodecError("epoch-root TLV must be 32 bytes")
            epoch_root = bytes(value)
        elif tlv_type == BATCH_F_ROOT_SIG:
            if len(value) != 64:
                raise CodecError("epoch-root signature TLV must be 64 bytes")
            root_signature = bytes(value)
        elif tlv_type in (BATCH_F_SIBLING_LEFT, BATCH_F_SIBLING_RIGHT):
            if len(value) != 32:
                raise CodecError("proof sibling TLV must be 32 bytes")
            proof_path.append((bytes(value), tlv_type == BATCH_F_SIBLING_LEFT))
        else:
            raise CodecError(f"unknown batched-record TLV type {tlv_type}")
    if hop is None:
        raise CodecError("batched record missing hop payload")
    if epoch_id is None:
        raise CodecError("batched record missing epoch header")
    if epoch_root is None:
        raise CodecError("batched record missing epoch root")
    if root_signature is None:
        raise CodecError("batched record missing epoch-root signature")
    hop.update(
        epoch_id=epoch_id,
        epoch_root=epoch_root,
        root_signature=root_signature,
        leaf_index=leaf_index,
        leaf_count=leaf_count,
        proof_path=tuple(proof_path),
    )
    return _build_hop(BatchedHopEvidence, hop, payload)


def encode_record_stack(hops: Sequence[HopEvidence]) -> bytes:
    """Serialize hop nodes as the shim-body TLV stream.

    Each hop's stacked form *is* its canonical node wire (one TLV of
    kind 0x10), so this is a concatenation of cached encodings.
    """
    return b"".join(hop.wire for hop in hops)


def decode_record_stack(data: ByteSource) -> List[HopEvidence]:
    """Parse a shim-body TLV stream; non-record TLVs are skipped.

    Zero-copy: non-record TLVs (compiled policies) cost only a header
    walk, and record bodies are decoded straight from views of the
    input buffer.
    """
    hops: List[HopEvidence] = []
    for tlv_type, value in TlvCodec.iter_views(data):
        if tlv_type == RECORD_TLV_TYPE:
            hops.append(decode_hop_body(value))
        elif tlv_type == BATCHED_RECORD_TLV_TYPE:
            hops.append(decode_batched_hop_body(value))
    return hops
