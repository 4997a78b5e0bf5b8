"""Tests for the packet model."""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    IPPROTO_UDP,
    RA_UDP_PORT,
    Ipv4Header,
    RaShimHeader,
    UdpHeader,
    ip_to_int,
)
from repro.net.packet import Packet
from repro.telemetry.tracing import TraceContext
from repro.util.errors import CodecError


def make_udp(payload=b"hello", shim=None):
    return Packet.udp_packet(
        src_mac=0x1, dst_mac=0x2,
        src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.0.2"),
        src_port=5555, dst_port=7777, payload=payload, ra_shim=shim,
    )


class TestPacketEncodeDecode:
    def test_udp_round_trip(self):
        pkt = make_udp()
        assert Packet.decode(pkt.encode()) == pkt

    def test_tcp_round_trip(self):
        pkt = Packet.tcp_packet(
            src_mac=1, dst_mac=2, src_ip=3, dst_ip=4,
            src_port=80, dst_port=443, payload=b"data", flags=0x02,
        )
        assert Packet.decode(pkt.encode()) == pkt

    def test_udp_with_shim_round_trip(self):
        shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY, body=b"policy-bytes")
        pkt = make_udp(shim=shim)
        decoded = Packet.decode(pkt.encode())
        assert decoded.ra_shim == shim
        assert decoded == pkt

    def test_shim_forces_ra_port(self):
        pkt = make_udp(shim=RaShimHeader())
        assert pkt.udp.dst_port == RA_UDP_PORT

    def test_wire_length_matches_encoding(self):
        for pkt in [make_udp(), make_udp(shim=RaShimHeader(body=b"x" * 20))]:
            assert pkt.wire_length == len(pkt.encode())

    def test_length_fields_consistent(self):
        pkt = make_udp(payload=b"x" * 10)
        assert pkt.ipv4.total_length == 20 + 8 + 10
        assert pkt.udp.length == 8 + 10

    def test_unknown_ethertype_kept_as_payload(self):
        from repro.net.headers import EthernetHeader

        raw = EthernetHeader(dst=1, src=2, ethertype=0x86DD).encode() + b"v6stuff"
        pkt = Packet.decode(raw)
        assert pkt.ipv4 is None
        assert pkt.payload == b"v6stuff"


class TestPacketOperations:
    def test_five_tuple(self):
        pkt = make_udp()
        assert pkt.five_tuple == (
            ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), IPPROTO_UDP, 5555, 7777,
        )

    def test_with_shim_adjusts_lengths(self):
        pkt = make_udp(payload=b"x" * 4)
        shim = RaShimHeader(body=b"y" * 10)
        pkt2 = pkt.with_shim(shim)
        assert pkt2.udp.length == pkt.udp.length + shim.wire_length
        assert pkt2.ipv4.total_length == pkt.ipv4.total_length + shim.wire_length
        assert pkt2.wire_length == len(pkt2.encode())

    def test_with_shim_strip(self):
        shim = RaShimHeader(body=b"y" * 10)
        pkt = make_udp(shim=shim)
        stripped = pkt.with_shim(None)
        assert stripped.ra_shim is None
        assert stripped.wire_length == pkt.wire_length - shim.wire_length

    def test_with_shim_replace(self):
        pkt = make_udp(shim=RaShimHeader(body=b"a" * 4))
        pkt2 = pkt.with_shim(RaShimHeader(body=b"b" * 8))
        assert pkt2.wire_length == pkt.wire_length + 4
        assert Packet.decode(pkt2.encode()) == pkt2

    @given(
        st.binary(max_size=32),
        st.none() | st.binary(max_size=32),
        st.integers(0, 63),
        st.booleans(),
    )
    def test_with_shim_matches_replacing_every_field(self, old, new, dscp, ecn):
        """``with_shim`` builds the headers field by field; it must give
        what ``dataclasses.replace`` gives, ancillary metadata included."""
        pkt = make_udp(shim=RaShimHeader(body=old))
        pkt = replace(
            pkt, ipv4=replace(pkt.ipv4, dscp=dscp, identification=7, ttl=9)
        ).with_trace(TraceContext("t", hop=2, origin="h"))
        pkt = pkt.with_ecn(ecn)
        shim = None if new is None else RaShimHeader(body=new)
        delta = (shim.wire_length if shim else 0) - pkt.ra_shim.wire_length
        expected = replace(
            pkt,
            ra_shim=shim,
            udp=replace(pkt.udp, length=pkt.udp.length + delta),
            ipv4=replace(pkt.ipv4, total_length=pkt.ipv4.total_length + delta),
        )
        derived = pkt.with_shim(shim)
        assert derived == expected and derived.encode() == expected.encode()
        assert derived.trace is pkt.trace and derived.ecn == pkt.ecn

    def test_with_shim_names_every_header_field(self):
        """A field added to these headers must be carried by
        ``with_shim`` too; this list is the one it copies."""
        assert [f.name for f in fields(Ipv4Header)] == [
            "src", "dst", "protocol", "ttl", "total_length", "identification",
            "dscp",
        ]
        assert [f.name for f in fields(UdpHeader)] == ["src_port", "dst_port", "length"]
        assert [f.name for f in fields(Packet)] == [
            "eth", "ipv4", "udp", "tcp", "ra_shim", "payload", "trace", "ecn",
        ]

    def test_with_shim_on_tcp_rejected(self):
        pkt = Packet.tcp_packet(1, 2, 3, 4, 80, 443)
        with pytest.raises(CodecError):
            pkt.with_shim(RaShimHeader())

    def test_repr_compact(self):
        text = repr(make_udp(shim=RaShimHeader(body=b"xy")))
        assert "ra(" in text and "udp(" in text

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_round_trip_with_arbitrary_payload_and_body(self, payload, body):
        pkt = make_udp(payload=payload, shim=RaShimHeader(body=body))
        assert Packet.decode(pkt.encode()) == pkt


class TestEncodeCaching:
    def test_encode_is_memoized_on_the_instance(self):
        pkt = make_udp()
        first = pkt.encode()
        assert pkt.encode() is first  # same object, not a re-build

    def test_wire_length_agrees_before_and_after_encoding(self):
        fresh = make_udp(shim=RaShimHeader(body=b"x" * 20))
        computed = fresh.wire_length  # arithmetic path (nothing cached)
        encoded_len = len(fresh.encode())
        assert computed == encoded_len
        assert fresh.wire_length == encoded_len  # cached path

    def test_derived_packets_do_not_inherit_stale_bytes(self):
        pkt = make_udp(payload=b"original")
        pkt.encode()  # populate the cache
        hopped = replace(pkt, ipv4=replace(pkt.ipv4, ttl=pkt.ipv4.ttl - 1))
        assert hopped.encode() != pkt.encode()
        assert Packet.decode(hopped.encode()) == hopped

    def test_cache_does_not_affect_equality_or_hashing(self):
        cold, warm = make_udp(), make_udp()
        warm.encode()
        assert cold == warm
        assert hash(cold) == hash(warm)


IPS = st.integers(0, 2**32 - 1)
PORTS = st.integers(0, 65535)
SHIMS = st.builds(
    RaShimHeader,
    flags=st.integers(0, 7),
    hop_count=st.integers(0, 16),
    body=st.binary(max_size=96),
)


@st.composite
def any_packet(draw):
    """A UDP (with or without a shim) or TCP packet, built directly or
    decoded from its own wire bytes."""
    payload = draw(st.binary(max_size=96))
    if draw(st.booleans()):
        pkt = Packet.udp_packet(
            1, 2, draw(IPS), draw(IPS), draw(PORTS), draw(PORTS),
            payload=payload, ra_shim=draw(st.none() | SHIMS),
        )
    else:
        pkt = Packet.tcp_packet(
            1, 2, draw(IPS), draw(IPS), draw(PORTS), draw(PORTS),
            payload=payload, flags=draw(st.integers(0, 255)),
        )
    return Packet.decode(pkt.encode()) if draw(st.booleans()) else pkt


def _mutations(pkt, shim):
    """Every derived packet a switch or queue makes of ``pkt``."""
    out = [
        pkt.with_trace(TraceContext("t", hop=1, origin="h")),
        pkt.with_ecn(),
    ]
    if pkt.udp is not None:
        out += [pkt.with_shim(shim), pkt.with_shim(None)]
    return out


class TestWireLengthCache:
    """``wire_length`` is memoised on the instance; whatever was read,
    encoded or pickled first, it must equal the encoded length."""

    @given(any_packet(), SHIMS, st.booleans(), st.booleans())
    def test_wire_length_is_the_encoded_length(self, pkt, shim, read, encode):
        if read:
            pkt.wire_length  # memoise before deriving
        if encode:
            pkt.encode()
        assert pkt.wire_length == len(pkt.encode())
        for derived in _mutations(pkt, shim):
            if read:
                derived.wire_length
            assert derived.wire_length == len(derived.encode())
            # A derived packet's derived packets too (add, replace, strip).
            for again in _mutations(derived, shim):
                assert again.wire_length == len(again.encode())

    @given(any_packet(), st.booleans())
    def test_pickle_round_trip_keeps_the_length(self, pkt, read):
        if read:
            pkt.wire_length
        copy = pickle.loads(pickle.dumps(pkt))
        assert copy == pkt
        assert copy.wire_length == pkt.wire_length == len(copy.encode())
        if copy.udp is not None:
            stripped = copy.with_shim(None)
            assert stripped.wire_length == len(stripped.encode())
