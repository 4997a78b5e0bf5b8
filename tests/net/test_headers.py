"""Tests for byte-accurate header encode/decode."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    IPPROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    RaShimHeader,
    TcpHeader,
    UdpHeader,
    ip_to_int,
)
from repro.util.errors import CodecError


class TestAddressParsing:
    def test_ip_known_value(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001

    def test_ip_malformed(self):
        for bad in ["10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"]:
            with pytest.raises(CodecError):
                ip_to_int(bad)


class TestEthernet:
    def test_round_trip(self):
        hdr = EthernetHeader(dst=0x010203040506, src=0x0A0B0C0D0E0F)
        assert EthernetHeader.decode(hdr.encode()) == hdr

    def test_wire_length(self):
        assert len(EthernetHeader(0, 0).encode()) == EthernetHeader.WIRE_LEN

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            EthernetHeader.decode(b"\x00" * 13)


class TestIpv4:
    def test_round_trip(self):
        hdr = Ipv4Header(src=ip_to_int("10.0.0.1"), dst=ip_to_int("10.0.0.2"),
                         protocol=IPPROTO_UDP, ttl=17, total_length=48)
        assert Ipv4Header.decode(hdr.encode()) == hdr

    def test_checksum_valid_on_wire(self):
        from repro.util.bits import checksum16

        wire = Ipv4Header(src=1, dst=2).encode()
        assert checksum16(wire) == 0

    def test_corrupted_checksum_rejected(self):
        wire = bytearray(Ipv4Header(src=1, dst=2).encode())
        wire[15] ^= 0xFF  # flip a bit in src address
        with pytest.raises(CodecError, match="checksum"):
            Ipv4Header.decode(bytes(wire))

    def test_wrong_version_rejected(self):
        wire = bytearray(Ipv4Header(src=1, dst=2).encode())
        wire[0] = (6 << 4) | 5
        with pytest.raises(CodecError, match="version"):
            Ipv4Header.decode(bytes(wire))


class TestUdpTcp:
    def test_udp_round_trip(self):
        hdr = UdpHeader(src_port=1234, dst_port=80, length=20)
        assert UdpHeader.decode(hdr.encode()) == hdr

    def test_tcp_round_trip(self):
        hdr = TcpHeader(src_port=1, dst_port=2, seq=3, ack=4,
                        flags=TcpHeader.FLAG_SYN | TcpHeader.FLAG_ACK)
        assert TcpHeader.decode(hdr.encode()) == hdr

    def test_tcp_wire_length(self):
        assert len(TcpHeader(1, 2).encode()) == TcpHeader.WIRE_LEN


class TestRaShim:
    def test_round_trip(self):
        hdr = RaShimHeader(flags=RaShimHeader.FLAG_POLICY, hop_count=3, body=b"tlvs")
        assert RaShimHeader.decode(hdr.encode()) == hdr

    def test_bad_magic(self):
        wire = bytearray(RaShimHeader().encode())
        wire[0] = 0x00
        with pytest.raises(CodecError, match="magic"):
            RaShimHeader.decode(bytes(wire))

    def test_bad_version(self):
        wire = bytearray(RaShimHeader().encode())
        wire[2] = 99
        with pytest.raises(CodecError, match="version"):
            RaShimHeader.decode(bytes(wire))

    def test_truncated_body(self):
        wire = RaShimHeader(body=b"abcdef").encode()
        with pytest.raises(CodecError, match="truncated"):
            RaShimHeader.decode(wire[:-1])

    def test_with_hop_increments(self):
        assert RaShimHeader(hop_count=1).with_hop().hop_count == 2

    def test_wire_length(self):
        hdr = RaShimHeader(body=b"12345")
        assert hdr.wire_length == 13
        assert len(hdr.encode()) == 13

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=65535),
        st.binary(max_size=256),
    )
    def test_round_trip_property(self, flags, hops, body):
        hdr = RaShimHeader(flags=flags, hop_count=hops, body=body)
        assert RaShimHeader.decode(hdr.encode()) == hdr
