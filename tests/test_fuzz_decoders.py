"""Fuzz tests: every wire decoder fails *cleanly* on arbitrary bytes.

Attestation parsers sit directly on the attack surface (the RA shim
arrives from the network), so decoders must never raise anything but
:class:`~repro.util.errors.CodecError` — no IndexError, no
UnicodeDecodeError, no silent nonsense.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompiledPolicy, HopDirective
from repro.core.wire import decode_compiled_policy, encode_compiled_policy
from repro.crypto.keys import KeyPair
from repro.evidence.codec import (
    decode_batched_hop_body,
    decode_hop_body,
    decode_node,
)
from repro.evidence.nodes import HopEvidence
from repro.net.headers import (
    EthernetHeader,
    Ipv4Header,
    RaShimHeader,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.evidence.codec import POLICY_TLV_TYPE
from repro.pera.config import BatchingSpec, CompositionMode, DetailLevel
from repro.pera.epoch import EpochBatcher
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.util.errors import CodecError
from repro.util.tlv import Tlv, TlvCodec

DECODERS = [
    ("tlv", TlvCodec.decode),
    ("ethernet", EthernetHeader.decode),
    ("ipv4", Ipv4Header.decode),
    ("udp", UdpHeader.decode),
    ("tcp", TcpHeader.decode),
    ("ra_shim", RaShimHeader.decode),
    ("packet", Packet.decode),
    ("record_stack", decode_record_stack),
    ("compiled_policy", decode_compiled_policy),
    ("evidence_node", decode_node),
    ("evidence_hop_body", decode_hop_body),
    ("evidence_batched_hop_body", decode_batched_hop_body),
]


@pytest.mark.parametrize("name,decoder", DECODERS, ids=[n for n, _ in DECODERS])
@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=256))
def test_decoder_raises_only_codec_error(name, decoder, data):
    try:
        decoder(data)
    except CodecError:
        pass  # the one acceptable failure mode


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=14, max_size=128))
def test_packet_decode_round_trips_when_it_succeeds(data):
    """If arbitrary bytes *do* parse as a packet, re-encoding the parse
    must reproduce a byte string that parses identically."""
    try:
        packet = Packet.decode(data)
    except CodecError:
        return
    again = Packet.decode(packet.encode())
    assert again == packet


@lru_cache(maxsize=None)
def _genuine_stack(batched: bool) -> bytes:
    """A one-record stack as a switch emits it: signed on its own
    (kind 0x10) or sealed under an epoch root (kind 0x11)."""
    keys = KeyPair.generate("s1")
    unsigned = [
        HopEvidence(
            place="s1",
            measurements=((InertiaClass.PROGRAM, bytes([index + 1]) * 32),),
            sequence=index,
        )
        for index in range(3)
    ]
    if not batched:
        return encode_record_stack([unsigned[1].sign_with(keys)])
    batcher = EpochBatcher("s1", keys, BatchingSpec(max_records=3))
    sealed = []
    for record in unsigned:
        batcher.add(record, sealed.append)
    batcher.seal()
    return encode_record_stack([sealed[1]])


def _bitflipped(genuine: bytes, data: bytes) -> bytes:
    mutated = bytearray(genuine)
    for index, byte in enumerate(data[: len(mutated)]):
        mutated[index % len(mutated)] ^= byte
    return bytes(mutated)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=200))
def test_bitflipped_real_records_never_crash(data):
    """Mutations of a genuine record stack fail cleanly too."""
    try:
        decode_record_stack(_bitflipped(_genuine_stack(batched=False), data))
    except CodecError:
        pass


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=300))
def test_bitflipped_real_batched_records_never_crash(data):
    """...and so do mutations of a genuine epoch-batched ``0x11``
    record: proof siblings, epoch header and the inner hop payload."""
    try:
        decode_record_stack(_bitflipped(_genuine_stack(batched=True), data))
    except CodecError:
        pass


sparse_flips = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
    max_size=3,
)


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "0x11"])
@settings(max_examples=200, deadline=None)
@given(noise=st.none() | st.binary(max_size=300), flips=sparse_flips)
def test_hop_decode_is_idempotent_when_it_succeeds(batched, noise, flips):
    """Whenever fuzzed bytes decode as a hop or a batched hop, decoding
    the result's own ``wire`` yields an equal node with the same
    ``wire`` (ROADMAP 4b). The bytes are pure noise fed to the body
    decoder, or a genuine record with a few bytes flipped — so the
    success branch is taken, not just the ``CodecError`` one."""
    try:
        if noise is not None:
            node = (decode_batched_hop_body if batched else decode_hop_body)(noise)
        else:
            fuzzed = bytearray(_genuine_stack(batched))
            for position, mask in flips:
                fuzzed[position % len(fuzzed)] ^= mask
            node = decode_node(bytes(fuzzed))
    except CodecError:
        return
    if not isinstance(node, HopEvidence):
        return  # a flipped kind byte made it some other node
    again = decode_node(node.wire)
    assert type(again) is type(node)
    assert again == node
    assert again.wire == node.wire


# --- the policy shim, structure-aware -----------------------------------------
#
# Random bytes almost never form a policy TLV, so the byte fuzzer above
# never reaches the per-field decoding. These cases start from a
# genuine encoded policy and damage exactly one inner field.

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
compiled_policies = st.builds(
    CompiledPolicy,
    policy_id=text.filter(bool),
    relying_party=text,
    nonce=st.binary(max_size=16),
    appraiser=text,
    hop=st.builds(
        HopDirective,
        test_text=text,
        attest=st.lists(text, max_size=3).map(tuple),
        detail=st.sampled_from(DetailLevel),
        composition=st.sampled_from(CompositionMode),
        sign=st.booleans(),
        out_of_band_to=text,
    ),
    terminal_place=text,
    required_functions=st.lists(
        st.tuples(text.filter(lambda place: "\x00" not in place), text),
        max_size=2,
    ).map(tuple),
    min_attested_hops=st.integers(min_value=0, max_value=0xFFFF),
)


@st.composite
def damaged_policy_bodies(draw):
    """A genuine policy TLV with one inner field emptied, truncated,
    extended or byte-flipped."""
    outer = TlvCodec.decode(encode_compiled_policy(draw(compiled_policies)))[0]
    inner = TlvCodec.decode(outer.value)
    index = draw(st.integers(min_value=0, max_value=len(inner) - 1))
    value = inner[index].value
    how = draw(st.sampled_from(["empty", "truncate", "extend", "flip"]))
    if how == "empty":
        value = b""
    elif how == "truncate":
        value = value[: draw(st.integers(min_value=0, max_value=len(value)))]
    elif how == "extend":
        value += draw(st.binary(min_size=1, max_size=4))
    elif value:
        flipped = bytearray(value)
        flipped[draw(st.integers(min_value=0, max_value=len(value) - 1))] ^= draw(
            st.integers(min_value=1, max_value=255)
        )
        value = bytes(flipped)
    inner[index] = Tlv(inner[index].type, value)
    return Tlv(POLICY_TLV_TYPE, TlvCodec.encode(inner)).encode()


# No pinned max_examples: the nightly profile deepens these. One bug
# per failure keeps the report (and the shrink) small.
@settings(deadline=None, report_multiple_bugs=False)
@given(body=damaged_policy_bodies())
def test_damaged_policy_field_raises_only_codec_error(body):
    try:
        decode_compiled_policy(body)
    except CodecError:
        pass


@settings(deadline=None, report_multiple_bugs=False)
@given(body=damaged_policy_bodies())
def test_damaged_policy_that_decodes_encodes_back(body):
    """encode∘decode is idempotent on whatever damaged bytes decode."""
    try:
        policy = decode_compiled_policy(body)
    except CodecError:
        return
    assert decode_compiled_policy(encode_compiled_policy(policy)) == policy


@settings(deadline=None)
@given(policy=compiled_policies)
def test_policy_round_trips(policy):
    assert decode_compiled_policy(encode_compiled_policy(policy)) == policy


def test_a_wide_min_hops_count_encodes_again():
    """Minimised from the damaged-policy fuzzer: a min-hops TLV extended
    past two bytes decodes, so it must encode back to itself."""
    policy = CompiledPolicy(
        "p", "rp", b"", "", HopDirective(test_text="", attest=()),
        min_attested_hops=1,
    )
    outer = TlvCodec.decode(encode_compiled_policy(policy))[0]
    inner = [
        Tlv(e.type, e.value + b"\x00\x00") if e.type == 13 else e
        for e in TlvCodec.decode(outer.value)
    ]
    decoded = decode_compiled_policy(
        Tlv(POLICY_TLV_TYPE, TlvCodec.encode(inner)).encode()
    )
    assert decoded.min_attested_hops == 0x10000
    assert decode_compiled_policy(encode_compiled_policy(decoded)) == decoded
