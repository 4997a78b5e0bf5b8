"""Byte-accurate protocol headers.

The PISA programmable parser (:mod:`repro.pisa.parser_engine`) consumes
these encodings, so they follow the real wire layouts: Ethernet II,
IPv4 (RFC 791), UDP (RFC 768), TCP (RFC 793), plus the RA shim header
this library defines for in-band attestation material.

Paper §5.2: "The policy will be compiled by the Relying Party and
serialized into an options header in the transport layer, to be
evaluated along the path of traffic that it is sending out." The
:class:`RaShimHeader` is that options header: it rides over UDP on a
well-known port and carries a TLV body (compiled policy + accrued
evidence stack).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.bits import checksum16
from repro.util.errors import CodecError

ETHERTYPE_IPV4 = 0x0800
IPPROTO_TCP = 6
IPPROTO_UDP = 17

# Well-known UDP destination port for the RA shim header (unassigned in
# the IANA registry; chosen for the simulation).
RA_UDP_PORT = 0x9A7A

RA_SHIM_MAGIC = 0x5241  # "RA"
RA_SHIM_VERSION = 1


def ip_to_int(address: str) -> int:
    """Parse dotted-quad ``address`` into a 32-bit integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise CodecError(f"malformed IPv4 address {address!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise CodecError(f"malformed IPv4 address {address!r}") from exc
        if not 0 <= octet <= 255:
            raise CodecError(f"IPv4 octet {octet} out of range in {address!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True)
class EthernetHeader:
    """Ethernet II header (14 bytes)."""

    dst: int
    src: int
    ethertype: int = ETHERTYPE_IPV4

    WIRE_LEN = 14

    def encode(self) -> bytes:
        return (
            self.dst.to_bytes(6, "big")
            + self.src.to_bytes(6, "big")
            + self.ethertype.to_bytes(2, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.WIRE_LEN:
            raise CodecError(f"Ethernet header needs 14 bytes, got {len(data)}")
        return cls(
            dst=int.from_bytes(data[0:6], "big"),
            src=int.from_bytes(data[6:12], "big"),
            ethertype=int.from_bytes(data[12:14], "big"),
        )


@dataclass(frozen=True)
class Ipv4Header:
    """IPv4 header without options (20 bytes).

    ``total_length`` covers header plus payload; :meth:`encode`
    recomputes the checksum so callers never set it by hand.
    """

    src: int
    dst: int
    protocol: int = IPPROTO_UDP
    ttl: int = 64
    total_length: int = 20
    identification: int = 0
    dscp: int = 0

    WIRE_LEN = 20

    def encode(self) -> bytes:
        version_ihl = (4 << 4) | 5
        head = bytes(
            [
                version_ihl,
                (self.dscp << 2) & 0xFF,
            ]
        )
        head += self.total_length.to_bytes(2, "big")
        head += self.identification.to_bytes(2, "big")
        head += (0).to_bytes(2, "big")  # flags + fragment offset
        head += bytes([self.ttl & 0xFF, self.protocol])
        head += (0).to_bytes(2, "big")  # checksum placeholder
        head += self.src.to_bytes(4, "big")
        head += self.dst.to_bytes(4, "big")
        csum = checksum16(head)
        return head[:10] + csum.to_bytes(2, "big") + head[12:]

    @classmethod
    def decode(cls, data: bytes) -> "Ipv4Header":
        if len(data) < cls.WIRE_LEN:
            raise CodecError(f"IPv4 header needs 20 bytes, got {len(data)}")
        version = data[0] >> 4
        ihl = data[0] & 0x0F
        if version != 4:
            raise CodecError(f"not an IPv4 header (version {version})")
        if ihl != 5:
            raise CodecError(f"IPv4 options unsupported (IHL {ihl})")
        if checksum16(data[:20]) != 0:
            raise CodecError("IPv4 header checksum mismatch")
        return cls(
            dscp=data[1] >> 2,
            total_length=int.from_bytes(data[2:4], "big"),
            identification=int.from_bytes(data[4:6], "big"),
            ttl=data[8],
            protocol=data[9],
            src=int.from_bytes(data[12:16], "big"),
            dst=int.from_bytes(data[16:20], "big"),
        )


@dataclass(frozen=True)
class UdpHeader:
    """UDP header (8 bytes). Checksum is left zero (legal for IPv4)."""

    src_port: int
    dst_port: int
    length: int = 8

    WIRE_LEN = 8

    def encode(self) -> bytes:
        return (
            self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.length.to_bytes(2, "big")
            + (0).to_bytes(2, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.WIRE_LEN:
            raise CodecError(f"UDP header needs 8 bytes, got {len(data)}")
        return cls(
            src_port=int.from_bytes(data[0:2], "big"),
            dst_port=int.from_bytes(data[2:4], "big"),
            length=int.from_bytes(data[4:6], "big"),
        )


@dataclass(frozen=True)
class TcpHeader:
    """TCP header without options (20 bytes); enough for flow matching."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    WIRE_LEN = 20

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def encode(self) -> bytes:
        data_offset = 5 << 4
        return (
            self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.seq.to_bytes(4, "big")
            + self.ack.to_bytes(4, "big")
            + bytes([data_offset, self.flags & 0xFF])
            + self.window.to_bytes(2, "big")
            + (0).to_bytes(2, "big")  # checksum (unused in simulation)
            + (0).to_bytes(2, "big")  # urgent pointer
        )

    @classmethod
    def decode(cls, data: bytes) -> "TcpHeader":
        if len(data) < cls.WIRE_LEN:
            raise CodecError(f"TCP header needs 20 bytes, got {len(data)}")
        return cls(
            src_port=int.from_bytes(data[0:2], "big"),
            dst_port=int.from_bytes(data[2:4], "big"),
            seq=int.from_bytes(data[4:8], "big"),
            ack=int.from_bytes(data[8:12], "big"),
            flags=data[13],
            window=int.from_bytes(data[14:16], "big"),
        )


@dataclass(frozen=True)
class RaShimHeader:
    """The in-band RA options header (paper §5.2).

    Layout (8-byte fixed part + TLV body):

        magic (2B) | version (1B) | flags (1B) | body_length (2B) | hop_count (2B)

    ``body`` is a TLV stream (see :mod:`repro.core.wire`): the compiled
    policy, the accrued evidence stack, and the nonce ride there.
    ``hop_count`` counts attesting hops that have processed the packet,
    so the appraiser can detect evidence stripped by a non-attesting
    adversary in the middle of the path.
    """

    flags: int = 0
    hop_count: int = 0
    body: bytes = b""

    WIRE_LEN = 8  # fixed part only

    FLAG_POLICY = 0x01  # body carries a compiled policy
    FLAG_EVIDENCE = 0x02  # body carries an evidence stack
    FLAG_TERMINAL = 0x04  # policy asks the last hop to divert to appraiser

    def encode(self) -> bytes:
        return (
            RA_SHIM_MAGIC.to_bytes(2, "big")
            + bytes([RA_SHIM_VERSION, self.flags & 0xFF])
            + len(self.body).to_bytes(2, "big")
            + self.hop_count.to_bytes(2, "big")
            + self.body
        )

    @classmethod
    def decode(cls, data: bytes) -> "RaShimHeader":
        if len(data) < cls.WIRE_LEN:
            raise CodecError(f"RA shim header needs 8 bytes, got {len(data)}")
        magic = int.from_bytes(data[0:2], "big")
        if magic != RA_SHIM_MAGIC:
            raise CodecError(f"bad RA shim magic {magic:#06x}")
        version = data[2]
        if version != RA_SHIM_VERSION:
            raise CodecError(f"unsupported RA shim version {version}")
        body_length = int.from_bytes(data[4:6], "big")
        if len(data) < cls.WIRE_LEN + body_length:
            raise CodecError(
                f"truncated RA shim body: declared {body_length}, "
                f"have {len(data) - cls.WIRE_LEN}"
            )
        return cls(
            flags=data[3],
            hop_count=int.from_bytes(data[6:8], "big"),
            body=data[cls.WIRE_LEN : cls.WIRE_LEN + body_length],
        )

    @property
    def wire_length(self) -> int:
        return self.WIRE_LEN + len(self.body)

    def with_hop(self) -> "RaShimHeader":
        return replace(self, hop_count=self.hop_count + 1)
