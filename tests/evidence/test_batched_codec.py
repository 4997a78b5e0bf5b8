"""Round-trip + strict-rejection properties of the batched-record TLVs.

The batched hop record (kind 0x11) carries the hop payload, the
epoch-root header, and a Merkle inclusion proof. Round trips must be
byte-identical (content addressing); the decoder must reject every
malformed framing — wrong crypto-field widths, missing mandatory
fields, an inner per-record signature, unknown TLV types — rather than
guess, because these bytes arrive from the network.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evidence import (
    BATCHED_RECORD_TLV_TYPE,
    BatchedHopEvidence,
    decode_batched_hop_body,
    decode_node,
    decode_record_stack,
    encode_node,
    encode_record_stack,
)
from repro.evidence.codec import (
    RECORD_TLV_TYPE,
    decode_hop_body,
    encode_hop_body,
)
from repro.evidence.nodes import (
    BATCH_F_EPOCH,
    BATCH_F_HOP,
    BATCH_F_ROOT,
    BATCH_F_ROOT_SIG,
    BATCH_F_SIBLING_LEFT,
    BATCH_F_SIBLING_RIGHT,
    KIND_BATCHED_HOP,
    HopEvidence,
    InertiaClass,
)
from repro.util.errors import CodecError
from repro.util.tlv import Tlv, TlvCodec

batched_nodes = st.builds(
    BatchedHopEvidence,
    place=st.text(min_size=1, max_size=8),
    measurements=st.lists(
        st.tuples(st.sampled_from(InertiaClass), st.binary(max_size=16)),
        max_size=3,
    ).map(tuple),
    sequence=st.integers(min_value=0, max_value=2**32 - 1),
    ingress_port=st.none() | st.integers(min_value=0, max_value=0xFFFF),
    chain_head=st.none() | st.binary(min_size=1, max_size=32),
    packet_digest=st.none() | st.binary(min_size=1, max_size=32),
    signature=st.just(b""),  # batched records never sign per-record
    epoch_id=st.integers(min_value=0, max_value=2**64 - 1),
    epoch_root=st.binary(min_size=32, max_size=32),
    root_signature=st.binary(min_size=64, max_size=64),
    leaf_index=st.integers(min_value=0, max_value=2**32 - 1),
    leaf_count=st.integers(min_value=0, max_value=2**32 - 1),
    proof_path=st.lists(
        st.tuples(st.binary(min_size=32, max_size=32), st.booleans()),
        max_size=5,
    ).map(tuple),
)


def batched_body(node):
    """The 0x11 node's TLV body: what ``decode_batched_hop_body`` takes."""
    (element,) = TlvCodec.iter_decode(node.wire)
    return element.value


@settings(max_examples=200, deadline=None)
@given(node=batched_nodes)
def test_encode_decode_encode_is_stable(node):
    wire = encode_node(node)
    decoded = decode_node(wire)
    assert decoded == node
    assert encode_node(decoded) == wire
    assert decoded.content_digest == node.content_digest


@settings(max_examples=200, deadline=None)
@given(node=batched_nodes)
def test_body_round_trip_preserves_payload_and_proof(node):
    decoded = decode_batched_hop_body(batched_body(node))
    assert decoded == node
    # The Merkle leaf (signed payload) and the epoch header both
    # survive: what the proof binds is exactly what went over the wire.
    assert decoded.signed_payload() == node.signed_payload()
    assert decoded.epoch_payload() == node.epoch_payload()
    assert decoded.proof().path == node.proof().path


@settings(max_examples=100, deadline=None)
@given(nodes=st.lists(batched_nodes, max_size=4))
def test_record_stack_carries_batched_records(nodes):
    stack = encode_record_stack(nodes)
    assert decode_record_stack(stack) == nodes


@settings(max_examples=100, deadline=None)
@given(node=batched_nodes, cut=st.integers(min_value=1, max_value=16))
def test_truncated_wire_is_rejected(node, cut):
    wire = encode_node(node)
    with pytest.raises(CodecError):
        decode_node(wire[: len(wire) - cut])


def make_node(**overrides):
    fields = dict(
        place="s1",
        measurements=((InertiaClass.HARDWARE, b"\x01" * 32),),
        sequence=7,
        signature=b"",
        epoch_id=3,
        epoch_root=b"\x05" * 32,
        root_signature=b"\x06" * 64,
        leaf_index=1,
        leaf_count=4,
        proof_path=((b"\x07" * 32, True), (b"\x08" * 32, False)),
    )
    fields.update(overrides)
    return BatchedHopEvidence(**fields)


def reframe(body_elements):
    """Re-encode a batched body from raw TLV elements."""
    return TlvCodec.encode(body_elements)


def body_elements(node):
    return list(TlvCodec.iter_decode(batched_body(node)))


class TestStrictRejection:
    def test_wire_kind_constant_is_stable(self):
        assert BATCHED_RECORD_TLV_TYPE == KIND_BATCHED_HOP == 0x11
        assert RECORD_TLV_TYPE == 0x10  # per-packet framing unchanged

    @pytest.mark.parametrize("width", [0, 15, 17])
    def test_epoch_header_must_be_16_bytes(self, width):
        elements = [
            e if e.type != BATCH_F_EPOCH else Tlv(BATCH_F_EPOCH, b"\x00" * width)
            for e in body_elements(make_node())
        ]
        with pytest.raises(CodecError, match="16 bytes"):
            decode_batched_hop_body(reframe(elements))

    @pytest.mark.parametrize("width", [0, 31, 33])
    def test_epoch_root_must_be_32_bytes(self, width):
        elements = [
            e if e.type != BATCH_F_ROOT else Tlv(BATCH_F_ROOT, b"\x00" * width)
            for e in body_elements(make_node())
        ]
        with pytest.raises(CodecError, match="32 bytes"):
            decode_batched_hop_body(reframe(elements))

    @pytest.mark.parametrize("width", [0, 63, 65])
    def test_root_signature_must_be_64_bytes(self, width):
        elements = [
            e
            if e.type != BATCH_F_ROOT_SIG
            else Tlv(BATCH_F_ROOT_SIG, b"\x00" * width)
            for e in body_elements(make_node())
        ]
        with pytest.raises(CodecError, match="64 bytes"):
            decode_batched_hop_body(reframe(elements))

    @pytest.mark.parametrize("sibling_type", [
        BATCH_F_SIBLING_LEFT, BATCH_F_SIBLING_RIGHT,
    ])
    @pytest.mark.parametrize("width", [0, 31, 33])
    def test_proof_siblings_must_be_32_bytes(self, sibling_type, width):
        elements = body_elements(make_node(proof_path=()))
        elements.append(Tlv(sibling_type, b"\x00" * width))
        with pytest.raises(CodecError, match="sibling"):
            decode_batched_hop_body(reframe(elements))

    @pytest.mark.parametrize("missing,message", [
        (BATCH_F_HOP, "missing hop payload"),
        (BATCH_F_EPOCH, "missing epoch header"),
        (BATCH_F_ROOT, "missing epoch root"),
        (BATCH_F_ROOT_SIG, "missing epoch-root signature"),
    ])
    def test_mandatory_fields_cannot_be_dropped(self, missing, message):
        elements = [e for e in body_elements(make_node()) if e.type != missing]
        with pytest.raises(CodecError, match=message):
            decode_batched_hop_body(reframe(elements))

    def test_inner_per_record_signature_is_rejected(self):
        """A batched record that ALSO carries a per-record signature is
        malformed: trust must flow through exactly one path."""
        signed_hop = HopEvidence(
            place="s1",
            measurements=((InertiaClass.HARDWARE, b"\x01" * 32),),
            sequence=7,
            signature=b"\x09" * 64,
        )
        elements = [
            e
            if e.type != BATCH_F_HOP
            else Tlv(BATCH_F_HOP, encode_hop_body(signed_hop))
            for e in body_elements(make_node())
        ]
        with pytest.raises(CodecError, match="per-record signature"):
            decode_batched_hop_body(reframe(elements))

    def test_unknown_tlv_type_is_rejected(self):
        elements = body_elements(make_node())
        elements.append(Tlv(0x7F, b"surprise"))
        with pytest.raises(CodecError, match="unknown batched-record TLV"):
            decode_batched_hop_body(reframe(elements))

    def test_garbage_hop_payload_is_rejected(self):
        elements = [
            e if e.type != BATCH_F_HOP else Tlv(BATCH_F_HOP, b"\xff\xff\xff")
            for e in body_elements(make_node())
        ]
        with pytest.raises(CodecError):
            decode_batched_hop_body(reframe(elements))

    def test_hop_payload_is_the_merkle_leaf_bytes(self):
        """The BATCH_F_HOP TLV value must equal ``signed_payload()`` —
        the exact bytes the Merkle proof commits to."""
        node = make_node()
        (hop_tlv,) = [
            e for e in body_elements(node) if e.type == BATCH_F_HOP
        ]
        assert hop_tlv.value == node.signed_payload()
        assert decode_hop_body(hop_tlv.value).signature == b""
