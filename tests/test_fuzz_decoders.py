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

from repro.core.wire import decode_compiled_policy
from repro.crypto.keys import KeyPair
from repro.evidence.codec import (
    decode_batched_hop_body,
    decode_hop_body,
    decode_node,
    iter_decode_nodes,
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
from repro.pera.config import BatchingSpec
from repro.pera.epoch import EpochBatcher
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.util.errors import CodecError
from repro.util.tlv import TlvCodec

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
    ("evidence_stream", lambda data: list(iter_decode_nodes(data))),
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
