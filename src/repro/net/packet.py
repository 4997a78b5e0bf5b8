"""The packet model shared by hosts, switches and the simulator.

A :class:`Packet` is a parsed header stack plus payload. Switches
operate on the *parsed* form (that is what a PISA pipeline sees after
its parser stage); :meth:`encode`/:meth:`decode` give the byte-accurate
wire form for size accounting and for exercising the programmable
parser on real bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from repro.net.headers import (
    ETHERTYPE_IPV4,
    IPPROTO_TCP,
    IPPROTO_UDP,
    RA_UDP_PORT,
    EthernetHeader,
    Ipv4Header,
    RaShimHeader,
    TcpHeader,
    UdpHeader,
)
from repro.telemetry.tracing import TraceContext
from repro.util.errors import CodecError


@dataclass(frozen=True)
class Packet:
    """An immutable parsed packet.

    Mutation returns new packets (``dataclasses.replace`` style), which
    keeps the simulator honest: a switch cannot accidentally alias a
    packet it already forwarded.
    """

    eth: EthernetHeader
    ipv4: Optional[Ipv4Header] = None
    udp: Optional[UdpHeader] = None
    tcp: Optional[TcpHeader] = None
    ra_shim: Optional[RaShimHeader] = None
    payload: bytes = b""
    #: Causal trace metadata — ancillary data like an skb annotation,
    #: never on the wire: excluded from equality and the encoded form.
    trace: Optional[TraceContext] = field(
        default=None, compare=False, repr=False
    )
    #: ECN-style congestion-experienced mark, set by a congested
    #: egress queue (:mod:`repro.net.qdisc`). Ancillary metadata like
    #: ``trace`` — a stand-in for the IP ECN codepoint that keeps the
    #: wire form (and every size/digest computed from it) unchanged.
    ecn: bool = field(default=False, compare=False, repr=False)

    # --- construction helpers -------------------------------------------

    @classmethod
    def udp_packet(
        cls,
        src_mac: int,
        dst_mac: int,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload: bytes = b"",
        ttl: int = 64,
        ra_shim: Optional[RaShimHeader] = None,
    ) -> "Packet":
        """Build a UDP packet with consistent length fields."""
        shim_len = ra_shim.wire_length if ra_shim is not None else 0
        udp_len = UdpHeader.WIRE_LEN + shim_len + len(payload)
        actual_dst_port = RA_UDP_PORT if ra_shim is not None else dst_port
        return cls(
            eth=EthernetHeader(dst=dst_mac, src=src_mac),
            ipv4=Ipv4Header(
                src=src_ip,
                dst=dst_ip,
                protocol=IPPROTO_UDP,
                ttl=ttl,
                total_length=Ipv4Header.WIRE_LEN + udp_len,
            ),
            udp=UdpHeader(src_port=src_port, dst_port=actual_dst_port, length=udp_len),
            ra_shim=ra_shim,
            payload=payload,
        )

    @classmethod
    def tcp_packet(
        cls,
        src_mac: int,
        dst_mac: int,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload: bytes = b"",
        flags: int = 0,
        ttl: int = 64,
    ) -> "Packet":
        """Build a TCP packet with consistent length fields."""
        return cls(
            eth=EthernetHeader(dst=dst_mac, src=src_mac),
            ipv4=Ipv4Header(
                src=src_ip,
                dst=dst_ip,
                protocol=IPPROTO_TCP,
                ttl=ttl,
                total_length=Ipv4Header.WIRE_LEN + TcpHeader.WIRE_LEN + len(payload),
            ),
            tcp=TcpHeader(src_port=src_port, dst_port=dst_port, flags=flags),
            payload=payload,
        )

    # --- wire form -------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to wire bytes (Ethernet frame).

        The result is cached on the (frozen, immutable) instance:
        measurement engines, simulators and appraisers all want the
        same bytes, and mutation always goes through
        :func:`dataclasses.replace`, which produces a fresh object.
        """
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return cached
        out = self.eth.encode()
        if self.ipv4 is not None:
            out += self.ipv4.encode()
            if self.udp is not None:
                out += self.udp.encode()
                if self.ra_shim is not None:
                    out += self.ra_shim.encode()
            elif self.tcp is not None:
                out += self.tcp.encode()
        out += self.payload
        object.__setattr__(self, "_wire", out)
        return out

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse wire bytes back into a header stack.

        Unknown ethertypes/protocols keep the remainder as payload —
        the same graceful degradation a hardware parser exhibits.
        """
        eth = EthernetHeader.decode(data)
        rest = data[EthernetHeader.WIRE_LEN :]
        if eth.ethertype != ETHERTYPE_IPV4:
            return cls(eth=eth, payload=rest)
        ipv4 = Ipv4Header.decode(rest)
        rest = rest[Ipv4Header.WIRE_LEN :]
        if ipv4.protocol == IPPROTO_UDP:
            udp = UdpHeader.decode(rest)
            rest = rest[UdpHeader.WIRE_LEN :]
            shim: Optional[RaShimHeader] = None
            if udp.dst_port == RA_UDP_PORT and rest[:2] == b"\x52\x41":
                shim = RaShimHeader.decode(rest)
                rest = rest[shim.wire_length :]
            return cls(eth=eth, ipv4=ipv4, udp=udp, ra_shim=shim, payload=rest)
        if ipv4.protocol == IPPROTO_TCP:
            tcp = TcpHeader.decode(rest)
            return cls(
                eth=eth, ipv4=ipv4, tcp=tcp, payload=rest[TcpHeader.WIRE_LEN :]
            )
        return cls(eth=eth, ipv4=ipv4, payload=rest)

    # --- accessors -------------------------------------------------------

    @cached_property
    def wire_length(self) -> int:
        """Total frame length in bytes (without re-encoding).

        Memoised on the instance like :meth:`encode`: every hop reads
        it several times (queue depth, serialization, counters).
        """
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return len(cached)
        length = EthernetHeader.WIRE_LEN + len(self.payload)
        if self.ipv4 is not None:
            length += Ipv4Header.WIRE_LEN
        if self.udp is not None:
            length += UdpHeader.WIRE_LEN
        if self.tcp is not None:
            length += TcpHeader.WIRE_LEN
        if self.ra_shim is not None:
            length += self.ra_shim.wire_length
        return length

    @property
    def five_tuple(self) -> tuple:
        """(src_ip, dst_ip, protocol, src_port, dst_port) or Nones."""
        if self.ipv4 is None:
            return (None, None, None, None, None)
        l4 = self.udp or self.tcp
        return (
            self.ipv4.src,
            self.ipv4.dst,
            self.ipv4.protocol,
            l4.src_port if l4 else None,
            l4.dst_port if l4 else None,
        )

    def with_shim(self, shim: Optional[RaShimHeader]) -> "Packet":
        """Return a copy carrying (or stripped of) an RA shim header.

        Recomputes the UDP and IPv4 length fields so the wire form
        stays self-consistent.
        """
        if self.udp is None:
            raise CodecError("RA shim requires a UDP packet")
        old_len = self.ra_shim.wire_length if self.ra_shim is not None else 0
        new_len = shim.wire_length if shim is not None else 0
        delta = new_len - old_len
        # Built field by field: every attested hop takes this path, and
        # ``dataclasses.replace`` re-inspects the fields on each call.
        udp, ip = self.udp, self.ipv4
        return type(self)(
            eth=self.eth,
            ipv4=Ipv4Header(
                src=ip.src,
                dst=ip.dst,
                protocol=ip.protocol,
                ttl=ip.ttl,
                total_length=ip.total_length + delta,
                identification=ip.identification,
                dscp=ip.dscp,
            ),
            udp=UdpHeader(
                src_port=udp.src_port, dst_port=udp.dst_port, length=udp.length + delta
            ),
            tcp=self.tcp,
            ra_shim=shim,
            payload=self.payload,
            trace=self.trace,
            ecn=self.ecn,
        )

    def with_trace(self, trace: Optional[TraceContext]) -> "Packet":
        """Return a copy carrying ``trace`` as ancillary metadata.

        Trace context never reaches the wire, so the memoised encoded
        form and wire length (if any) are carried over to the copy.
        """
        return self._with_metadata(trace=trace)

    def with_ecn(self, marked: bool = True) -> "Packet":
        """Return a copy carrying the congestion-experienced mark.

        Like :meth:`with_trace`, the mark never reaches the wire, so
        the memoised encoded form and wire length are carried over.
        """
        return self._with_metadata(ecn=marked)

    def _with_metadata(self, **changes: object) -> "Packet":
        updated = replace(self, **changes)
        memo = self.__dict__
        for name in ("_wire", "wire_length"):
            if name in memo:
                updated.__dict__[name] = memo[name]
        return updated

    def __repr__(self) -> str:  # keep simulator logs readable
        parts = [f"eth({self.eth.ethertype:#06x})"]
        if self.ipv4 is not None:
            parts.append(f"ipv4({self.ipv4.src:#010x}->{self.ipv4.dst:#010x})")
        if self.udp is not None:
            parts.append(f"udp({self.udp.src_port}->{self.udp.dst_port})")
        if self.tcp is not None:
            parts.append(f"tcp({self.tcp.src_port}->{self.tcp.dst_port})")
        if self.ra_shim is not None:
            parts.append(f"ra(hops={self.ra_shim.hop_count},{len(self.ra_shim.body)}B)")
        return f"Packet[{' '.join(parts)} payload={len(self.payload)}B]"
