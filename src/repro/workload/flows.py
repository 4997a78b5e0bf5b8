"""Flow specifications, the packet-launching engine, and FCT sinks.

A :class:`FlowSpec` is pure data: who talks to whom, how many packets,
when, how fast, and whether the flow rides an attested path. The
:class:`FlowEngine` turns specs into scheduled sends through
``Simulator.schedule_on`` — the ownership-gated hook — so one build
function drives a monolithic :class:`~repro.net.simulator.Simulator`
and every shard of a :class:`~repro.net.sharding.ShardSimulator`
identically, with each packet sent exactly once.

Every workload packet's payload starts with a self-describing header
(magic, flow id, sequence number) so the receiving
:class:`FlowSink` can account flow progress and completion times
without any out-of-band bookkeeping — and without retaining the
packet objects, which at a million packets per campaign would dwarf
the simulation state itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.net.headers import RaShimHeader
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.util.errors import NetworkError

#: Magic prefix marking a workload-engine payload.
_FLOW_MAGIC = b"FLW1"
#: magic + 4-byte flow id + 4-byte sequence number.
FLOW_PAYLOAD_MIN_BYTES = len(_FLOW_MAGIC) + 8

_HEADER = struct.Struct(">4sII")


def encode_flow_payload(flow_id: int, seq: int, size: int) -> bytes:
    """A ``size``-byte payload carrying (flow id, sequence number)."""
    if size < FLOW_PAYLOAD_MIN_BYTES:
        raise NetworkError(
            f"flow payload needs >= {FLOW_PAYLOAD_MIN_BYTES} bytes, got {size}"
        )
    header = _HEADER.pack(_FLOW_MAGIC, flow_id & 0xFFFFFFFF, seq & 0xFFFFFFFF)
    return header + b"\x00" * (size - len(header))


def decode_flow_payload(payload: bytes) -> Optional[Tuple[int, int]]:
    """Return (flow id, sequence number), or None for foreign payloads."""
    if len(payload) < FLOW_PAYLOAD_MIN_BYTES:
        return None
    magic, flow_id, seq = _HEADER.unpack_from(payload)
    if magic != _FLOW_MAGIC:
        return None
    return flow_id, seq


@dataclass(frozen=True)
class FlowSpec:
    """One flow: a pacing of ``packets`` sends from ``src`` to ``dst``.

    ``kind`` is a free-form label ("mouse", "elephant", "request",
    "response") carried into completion records; ``attested`` flows
    get an RA shim from the engine's ``shim_for`` hook and keep their
    telemetry trace, bulk flows send untraced.
    """

    flow_id: int
    src: str
    dst: str
    src_port: int
    dst_port: int
    packets: int
    payload_bytes: int = 64
    start_s: float = 0.0
    gap_s: float = 2e-6
    kind: str = "bulk"
    attested: bool = False

    def __post_init__(self) -> None:
        if self.packets < 1:
            raise NetworkError(f"flow {self.flow_id} needs >= 1 packet")
        if self.payload_bytes < FLOW_PAYLOAD_MIN_BYTES:
            raise NetworkError(
                f"flow {self.flow_id} payload {self.payload_bytes} below "
                f"the {FLOW_PAYLOAD_MIN_BYTES}-byte flow header"
            )
        if self.start_s < 0 or self.gap_s < 0:
            raise NetworkError(f"flow {self.flow_id} has negative timing")
        if self.src == self.dst:
            raise NetworkError(f"flow {self.flow_id} sends to itself")

    @property
    def last_send_s(self) -> float:
        """Scheduled send time of the flow's final packet."""
        return self.start_s + (self.packets - 1) * self.gap_s


class FlowSink(Host):
    """A host that accounts workload flows instead of hoarding packets.

    Bulk workload packets update per-flow ``(count, first_arrival,
    last_arrival)`` records and are then discarded; attested packets
    (and any non-workload traffic) take the normal :class:`Host` path,
    staying in ``received`` for appraisal.
    """

    def __init__(self, name: str, mac: int, ip: int, port: int = 1) -> None:
        super().__init__(name, mac, ip, port)
        # flow id -> [packets received, first arrival, last arrival]
        self.flow_arrivals: Dict[int, List[float]] = {}
        self.packets_sunk = 0
        # flow id -> ECN-marked packets seen; congestion evidence the
        # campaign harvests (docs/CONGESTION.md).
        self.ecn_by_flow: Dict[int, int] = {}
        self.ecn_marked = 0

    def _account(self, flow_id: int, ecn: bool = False) -> None:
        now = self.sim.clock.now
        record = self.flow_arrivals.get(flow_id)
        if record is None:
            self.flow_arrivals[flow_id] = [1.0, now, now]
        else:
            record[0] += 1.0
            record[2] = now
        self.packets_sunk += 1
        if ecn:
            self.ecn_by_flow[flow_id] = self.ecn_by_flow.get(flow_id, 0) + 1
            self.ecn_marked += 1

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        decoded = decode_flow_payload(packet.payload)
        if decoded is not None:
            self._account(decoded[0], ecn=getattr(packet, "ecn", False))
            if packet.ra_shim is None:
                return  # bulk traffic: accounted, not retained
        super().handle_packet(packet, in_port)


class FlowEngine:
    """Schedules every packet of a flow population onto a simulator.

    ``hosts`` maps names to bound :class:`Host` objects (the full
    world — ownership gates decide which sends actually fire in a
    shard). ``shim_for`` supplies the RA shim for attested flows,
    typically a compiled path policy from
    :func:`repro.core.compiler.compile_policy_for_path`; returning
    ``None`` sends the flow unattested.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Mapping[str, Host],
        shim_for: Optional[
            Callable[[FlowSpec], Optional[RaShimHeader]]
        ] = None,
    ) -> None:
        self.sim = sim
        self.hosts = hosts
        self.shim_for = shim_for
        self.packets_scheduled = 0
        self.flows_launched = 0

    def launch(self, flows: Iterable[FlowSpec]) -> int:
        """Schedule all packets of ``flows``; returns the packet count.

        Sends are scheduled relative to the simulator's current clock
        (call at build time, clock 0, for absolute starts). Duplicate
        flow ids are rejected up front — the payload header cannot
        disambiguate them at the sink.
        """
        seen: Dict[int, str] = {}
        scheduled = 0
        for flow in flows:
            if flow.flow_id in seen:
                raise NetworkError(
                    f"duplicate flow id {flow.flow_id} "
                    f"({seen[flow.flow_id]} and {flow.src})"
                )
            seen[flow.flow_id] = flow.src
            src = self.hosts.get(flow.src)
            dst = self.hosts.get(flow.dst)
            if src is None or dst is None:
                raise NetworkError(
                    f"flow {flow.flow_id} references unknown host "
                    f"{flow.src if src is None else flow.dst!r}"
                )
            shim = (
                self.shim_for(flow)
                if (flow.attested and self.shim_for is not None)
                else None
            )
            for seq in range(flow.packets):
                payload = encode_flow_payload(
                    flow.flow_id, seq, flow.payload_bytes
                )
                self.sim.schedule_on(
                    flow.src,
                    flow.start_s + seq * flow.gap_s,
                    lambda f=flow, s=src, d=dst, p=payload, sh=shim: s.send_udp(
                        dst_mac=d.mac,
                        dst_ip=d.ip,
                        src_port=f.src_port,
                        dst_port=f.dst_port,
                        payload=p,
                        ra_shim=sh,
                        traced=f.attested,
                    ),
                )
                scheduled += 1
            self.flows_launched += 1
        self.packets_scheduled += scheduled
        return scheduled


def flow_completion_times(
    flows: Iterable[FlowSpec],
    arrivals: Mapping[int, List[float]],
) -> Dict[int, float]:
    """FCT per completed flow: last arrival minus scheduled start.

    ``arrivals`` maps flow id to the sinks' ``[count, first, last]``
    record (:attr:`FlowSink.flow_arrivals`, merged over sinks). Only
    flows whose sink saw *every* packet count as complete — partial
    flows (packets still in flight, or lost to faults) are omitted
    rather than reported with an optimistic tail.
    """
    fct: Dict[int, float] = {}
    for flow in flows:
        record = arrivals.get(flow.flow_id)
        if record is None or int(record[0]) < flow.packets:
            continue
        fct[flow.flow_id] = record[2] - flow.start_s
    return fct
