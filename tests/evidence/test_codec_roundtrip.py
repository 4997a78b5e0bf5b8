"""Round-trip properties of the one evidence wire codec.

Every canonical node must survive encode -> decode -> encode with
byte-identical wire form and a stable content digest — that is what
makes content addressing sound across layers (a digest computed by a
switch must equal the digest an appraiser recomputes from the wire).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evidence import (
    BatchedHopEvidence,
    EmptyEvidence,
    HashEvidence,
    HopEvidence,
    MeasurementEvidence,
    NonceEvidence,
    ParallelEvidence,
    SequenceEvidence,
    SignedEvidence,
    decode_hop_body,
    decode_node,
    decode_record_stack,
    encode_hop_body,
    encode_node,
    encode_record_stack,
    registry_verify_batch,
)
from repro.evidence.codec import POLICY_TLV_TYPE, RECORD_TLV_TYPE
from repro.evidence.nodes import (
    HOP_F_MEASUREMENT,
    HOP_F_SEQUENCE,
    HOP_F_SIGNATURE,
    KIND_HOP,
    InertiaClass,
)
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.util.errors import CodecError
from repro.util.tlv import Tlv, TlvCodec

names = st.text(max_size=12)
small_bytes = st.binary(max_size=24)

hop_nodes = st.builds(
    HopEvidence,
    place=st.text(min_size=1, max_size=8),
    measurements=st.lists(
        st.tuples(st.sampled_from(InertiaClass), st.binary(max_size=16)),
        max_size=3,
    ).map(tuple),
    sequence=st.integers(min_value=0, max_value=2**32 - 1),
    ingress_port=st.none() | st.integers(min_value=0, max_value=0xFFFF),
    chain_head=st.none() | st.binary(min_size=1, max_size=32),
    packet_digest=st.none() | st.binary(min_size=1, max_size=32),
    signature=st.binary(max_size=64),
)

leaves = st.one_of(
    st.just(EmptyEvidence()),
    st.builds(NonceEvidence, name=names, value=small_bytes),
    st.builds(HashEvidence, digest_value=small_bytes, place=names),
    hop_nodes,
)


def _composites(children):
    return st.one_of(
        st.builds(
            MeasurementEvidence,
            asp=names,
            place=names,
            target=names,
            target_place=names,
            value=small_bytes,
            prior=children,
        ),
        st.builds(
            SignedEvidence, evidence=children, place=names, signature=small_bytes
        ),
        st.builds(SequenceEvidence, left=children, right=children),
        st.builds(ParallelEvidence, left=children, right=children),
    )


evidence_trees = st.recursive(leaves, _composites, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(node=evidence_trees)
def test_encode_decode_encode_is_stable(node):
    wire = encode_node(node)
    decoded = decode_node(wire)
    assert decoded == node
    assert encode_node(decoded) == wire


@settings(max_examples=200, deadline=None)
@given(node=evidence_trees)
def test_content_digest_stable_across_round_trip(node):
    decoded = decode_node(node.wire)
    assert decoded.content_digest == node.content_digest


@settings(max_examples=200, deadline=None)
@given(hop=hop_nodes)
def test_hop_body_round_trips_flat(hop):
    """The unwrapped (legacy shim) hop framing is stable too."""
    decoded = decode_hop_body(encode_hop_body(hop))
    assert decoded == hop
    assert decoded.payload_digest() == hop.payload_digest()
    assert decoded.link_digest() == hop.link_digest()


@settings(max_examples=100, deadline=None)
@given(hops=st.lists(hop_nodes, max_size=4))
def test_record_stack_is_concatenated_node_wires(hops):
    stack = encode_record_stack(hops)
    assert stack == b"".join(h.wire for h in hops)
    assert decode_record_stack(stack) == hops


@settings(max_examples=50, deadline=None)
@given(hops=st.lists(hop_nodes, max_size=3), junk=small_bytes)
def test_record_stack_skips_foreign_tlv_types(hops, junk):
    """Policy TLVs share the shim body; the record decoder skips them."""
    stack = Tlv(POLICY_TLV_TYPE, junk).encode() + encode_record_stack(hops)
    assert decode_record_stack(stack) == hops


def test_shim_framing_types_are_wire_stable():
    """0x10/0x20 are on-the-wire constants from the pre-substrate
    framing; changing them would break captured shim bodies."""
    assert RECORD_TLV_TYPE == KIND_HOP == 0x10
    assert POLICY_TLV_TYPE == 0x20


@settings(max_examples=100, deadline=None)
@given(a=evidence_trees, b=evidence_trees)
def test_digest_discriminates_distinct_wire_forms(a, b):
    assert (a.wire == b.wire) == (a.content_digest == b.content_digest)


# --- zero-copy decode (memoryview inputs, lazy materialization) --------


@settings(max_examples=100, deadline=None)
@given(node=evidence_trees)
def test_decode_accepts_memoryview(node):
    """Decoders take a view over the packet buffer, not owned bytes."""
    wire = encode_node(node)
    assert decode_node(memoryview(wire)) == node


@settings(max_examples=100, deadline=None)
@given(hops=st.lists(hop_nodes, max_size=4))
def test_record_stack_round_trips_from_memoryview(hops):
    stack = encode_record_stack(hops)
    decoded = decode_record_stack(memoryview(stack))
    assert decoded == hops
    for original, roundtripped in zip(hops, decoded):
        assert roundtripped.payload_digest() == original.payload_digest()


def test_signing_encodes_the_payload_once():
    """The signed copy shares the payload bytes it was signed over, and
    its wire form is what a fresh encode of the signed record gives."""
    hop = HopEvidence(
        place="s1", measurements=((InertiaClass.PROGRAM, b"m" * 8),), sequence=3
    )
    signed = hop.sign_with(KeyPair.generate("s1"))
    assert signed.__dict__["_payload"] is hop.signed_payload()
    fresh = HopEvidence(
        place="s1",
        measurements=hop.measurements,
        sequence=3,
        signature=signed.signature,
    )
    assert signed.wire == fresh.wire
    anchors = _registry_of(KeyPair.generate("s1"))
    assert registry_verify_batch(anchors, [signed.signature_item()]) == [True]


def _registry_of(pair):
    registry = KeyRegistry()
    registry.register_pair(pair)
    return registry


@settings(max_examples=100, deadline=None)
@given(hop=hop_nodes)
def test_decoded_hop_seeds_signed_payload_from_wire(hop):
    """Canonical wire seeds the payload cache — no re-encode needed for
    the decode-side signature/digest checks, and the seeded bytes must
    equal what re-encoding would have produced."""
    decoded = decode_hop_body(memoryview(encode_hop_body(hop)))
    assert decoded.__dict__.get("_payload") == hop.signed_payload()


@settings(max_examples=100, deadline=None)
@given(hop=hop_nodes)
def test_reordered_wire_falls_back_to_canonical_reencode(hop):
    """Payload fields out of canonical order must NOT seed the payload
    cache with the raw reordered bytes — the decoder re-encodes
    canonically, so signature and digest checks see exactly the bytes
    the signer signed and field order alone cannot flip a verdict."""
    elements = [
        (t, bytes(v)) for t, v in TlvCodec.iter_views(encode_hop_body(hop))
    ]
    trailer = [e for e in elements if e[0] == HOP_F_SIGNATURE]
    payload = [e for e in elements if e[0] != HOP_F_SIGNATURE]
    # Reverse the non-measurement fields (ordering among measurements
    # is meaningful, so keep it); place/sequence always both exist, so
    # the result is genuinely out of canonical order.
    measurements = [e for e in payload if e[0] == HOP_F_MEASUREMENT]
    others = [e for e in payload if e[0] != HOP_F_MEASUREMENT]
    reordered = list(reversed(others)) + measurements + trailer
    wire = b"".join(Tlv(t, v).encode() for t, v in reordered)
    decoded = decode_hop_body(memoryview(wire))
    assert decoded == hop
    assert decoded.signed_payload() == hop.signed_payload()
    assert decoded.payload_digest() == hop.payload_digest()


def test_wire_missing_sequence_field_is_not_seeded():
    """The canonical encoder always emits the sequence field (even for
    0); a wire that omits it decodes fine but must re-encode — seeding
    would hand the signature check bytes the signer never produced."""
    hop = HopEvidence(
        place="sw1",
        measurements=((InertiaClass.HARDWARE, b"m"),),
        sequence=0,
        ingress_port=None,
        chain_head=None,
        packet_digest=None,
        signature=b"\x5a" * 64,
    )
    stripped = b"".join(
        Tlv(t, bytes(v)).encode()
        for t, v in TlvCodec.iter_views(encode_hop_body(hop))
        if t != HOP_F_SEQUENCE
    )
    decoded = decode_hop_body(memoryview(stripped))
    assert decoded == hop
    assert decoded.__dict__.get("_payload") is None
    assert decoded.signed_payload() == hop.signed_payload()


def test_duplicated_payload_field_is_not_seeded():
    """A duplicated non-measurement field (last one wins in decode) is
    non-canonical: the seeded prefix would not equal the re-encode."""
    hop = HopEvidence(
        place="sw2",
        measurements=(),
        sequence=7,
        ingress_port=None,
        chain_head=None,
        packet_digest=None,
        signature=b"",
    )
    elements = [
        (t, bytes(v)) for t, v in TlvCodec.iter_views(encode_hop_body(hop))
    ]
    doubled = b"".join(
        Tlv(t, v).encode() for t, v in [elements[0]] + elements
    )
    decoded = decode_hop_body(memoryview(doubled))
    assert decoded == hop
    assert decoded.__dict__.get("_payload") is None
    assert decoded.signed_payload() == hop.signed_payload()


@pytest.mark.parametrize("code", [0, 6, 255])
def test_undefined_inertia_code_is_a_codec_error(code):
    """Measurement class codes are attacker-controlled bytes: one that
    names no :class:`InertiaClass` fails every decoder that reaches the
    hop body, plain or nested in an epoch-batched record."""
    fields = dict(
        place="s1",
        measurements=((InertiaClass.PROGRAM, b"ok"), (code, b"\x01" * 32)),
        sequence=1,
    )
    hop = HopEvidence(signature=b"\x5a" * 64, **fields)
    batched = BatchedHopEvidence(
        epoch_id=1,
        epoch_root=b"\x05" * 32,
        root_signature=b"\x06" * 64,
        leaf_count=1,
        **fields,
    )
    attempts = [
        (decode_hop_body, encode_hop_body(hop)),
        (decode_record_stack, hop.wire),
        (decode_node, hop.wire),
        (decode_record_stack, batched.wire),
        (decode_node, batched.wire),
    ]
    for decoder, data in attempts:
        with pytest.raises(CodecError, match="unknown inertia class"):
            decoder(data)
