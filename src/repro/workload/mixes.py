"""Seeded datacenter traffic mixes: who sends how much, when.

Every generator takes an explicit seed and draws from its own
``random.Random`` in a fixed order, so a mix is a pure function of its
arguments — the property the byte-identity determinism sweep relies
on. Flow start times get a per-flow-id nanosecond-scale stagger, so
two flows from different sources never land at one destination at the
*exact* same float timestamp. (Such a tie would replay alike at any
shard count — same-time deliveries have a canonical order, see
docs/SHARDING.md — but every pinned workload is generated with the
stagger.)
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.util.errors import NetworkError
from repro.workload.flows import FlowSpec

#: Prime-modulus nanosecond stagger — unique per flow id (mod 1009).
_STAGGER_S = 1e-9
_STAGGER_MOD = 1009


def _staggered(start_s: float, flow_id: int) -> float:
    return start_s + (flow_id % _STAGGER_MOD) * _STAGGER_S


def poisson_starts(
    rng: random.Random, count: int, rate_per_s: float, t0: float = 0.0
) -> List[float]:
    """``count`` arrival times of a Poisson process at ``rate_per_s``."""
    if rate_per_s <= 0:
        raise NetworkError(f"arrival rate must be positive, got {rate_per_s}")
    starts: List[float] = []
    t = t0
    for _ in range(count):
        t += rng.expovariate(rate_per_s)
        starts.append(t)
    return starts


def on_off_starts(
    rng: random.Random,
    count: int,
    burst_len: int,
    on_rate_per_s: float,
    off_gap_s: float,
    t0: float = 0.0,
) -> List[float]:
    """``count`` arrivals from an on-off source: Poisson bursts of
    ``burst_len`` flows, separated by exponential off periods with
    mean ``off_gap_s``."""
    if burst_len < 1:
        raise NetworkError(f"burst length must be >= 1, got {burst_len}")
    if off_gap_s <= 0:
        raise NetworkError(f"off gap must be positive, got {off_gap_s}")
    starts: List[float] = []
    t = t0
    while len(starts) < count:
        for _ in range(min(burst_len, count - len(starts))):
            t += rng.expovariate(on_rate_per_s)
            starts.append(t)
        t += rng.expovariate(1.0 / off_gap_s)
    return starts


def _pick_pair(
    rng: random.Random, hosts: Sequence[str]
) -> Tuple[str, str]:
    src = rng.choice(hosts)
    dst = rng.choice(hosts)
    while dst == src:
        dst = rng.choice(hosts)
    return src, dst


def elephant_mice_mix(
    hosts: Sequence[str],
    seed: int,
    flows: int,
    mice_fraction: float = 0.9,
    mice_packets: Tuple[int, int] = (1, 8),
    elephant_packets: Tuple[int, int] = (64, 256),
    payload_bytes: int = 64,
    gap_s: float = 2e-6,
    arrival_rate_per_s: float = 200_000.0,
    arrival: str = "poisson",
    burst_len: int = 8,
    off_gap_s: float = 100e-6,
    first_flow_id: int = 0,
    base_port: int = 20000,
    t0: float = 0.0,
) -> List[FlowSpec]:
    """The classic heavy-tailed datacenter mix: many mice, few elephants.

    ``mice_fraction`` of flows draw their size uniformly from
    ``mice_packets``, the rest from ``elephant_packets``; arrivals are
    Poisson (``arrival="poisson"``) or bursty on-off
    (``arrival="on_off"``); endpoints are uniform distinct pairs.
    Deterministic in all arguments.
    """
    if len(hosts) < 2:
        raise NetworkError("a traffic mix needs at least two hosts")
    if not 0.0 <= mice_fraction <= 1.0:
        raise NetworkError(f"mice fraction {mice_fraction} out of [0, 1]")
    rng = random.Random(seed)
    if arrival == "poisson":
        starts = poisson_starts(rng, flows, arrival_rate_per_s, t0)
    elif arrival == "on_off":
        starts = on_off_starts(
            rng, flows, burst_len, arrival_rate_per_s, off_gap_s, t0
        )
    else:
        raise NetworkError(f"unknown arrival process {arrival!r}")
    specs: List[FlowSpec] = []
    for i, start in enumerate(starts):
        flow_id = first_flow_id + i
        src, dst = _pick_pair(rng, hosts)
        if rng.random() < mice_fraction:
            kind = "mouse"
            packets = rng.randint(*mice_packets)
        else:
            kind = "elephant"
            packets = rng.randint(*elephant_packets)
        specs.append(
            FlowSpec(
                flow_id=flow_id,
                src=src,
                dst=dst,
                src_port=base_port + (flow_id % 20000),
                dst_port=9000,
                packets=packets,
                payload_bytes=payload_bytes,
                start_s=_staggered(start, flow_id),
                gap_s=gap_s,
                kind=kind,
            )
        )
    return specs


def incast_mix(
    senders: Sequence[str],
    target: str,
    seed: int,
    packets: int = 32,
    payload_bytes: int = 256,
    gap_s: float = 1e-6,
    start_s: float = 0.0,
    sender_stagger_s: float = 1.3e-7,
    first_flow_id: int = 750_000,
    base_port: int = 30000,
) -> List[FlowSpec]:
    """Synchronized fan-in: every sender bursts at one target at once.

    The canonical congestion workload — ``len(senders)`` flows start
    within ``sender_stagger_s`` of each other and all land on
    ``target``, overrunning its egress queue upstream. The per-sender
    stagger is on top of the usual per-flow-id nanosecond stagger, so
    no two sends ever collide on a timestamp (the stagger stays
    collision-free for fan-ins below ~100). The seed is accepted for
    signature symmetry with the other mixes but incast is fully
    deterministic — there is nothing to draw.
    """
    if not senders:
        raise NetworkError("an incast mix needs at least one sender")
    if target in senders:
        raise NetworkError(f"incast target {target!r} is also a sender")
    if packets < 1:
        raise NetworkError(f"incast flows need >= 1 packet, got {packets}")
    del seed  # deterministic by construction; kept for mix symmetry
    specs: List[FlowSpec] = []
    for i, src in enumerate(senders):
        flow_id = first_flow_id + i
        specs.append(
            FlowSpec(
                flow_id=flow_id,
                src=src,
                dst=target,
                src_port=base_port + (flow_id % 20000),
                dst_port=9100,
                packets=packets,
                payload_bytes=payload_bytes,
                start_s=_staggered(start_s + i * sender_stagger_s, flow_id),
                gap_s=gap_s,
                kind="incast",
            )
        )
    return specs


def web_session_mix(
    hosts: Sequence[str],
    seed: int,
    sessions: int,
    servers: Optional[Sequence[str]] = None,
    request_packets: Tuple[int, int] = (1, 2),
    response_packets: Tuple[int, int] = (2, 16),
    payload_bytes: int = 64,
    gap_s: float = 2e-6,
    arrival_rate_per_s: float = 100_000.0,
    think_time_s: float = 30e-6,
    first_flow_id: int = 0,
    base_port: int = 40000,
    t0: float = 0.0,
) -> List[FlowSpec]:
    """Web-like request/response pairs: client asks, server answers.

    Each session is two flows — a short ``request`` from a client to a
    server, and a larger ``response`` back, starting ``think_time_s``
    after the request's last send (a crude server turnaround; the
    engine does not couple them causally, which keeps scheduling
    shard-safe). ``servers`` defaults to the full host list.
    """
    if len(hosts) < 2:
        raise NetworkError("a traffic mix needs at least two hosts")
    rng = random.Random(seed)
    server_pool = list(servers) if servers is not None else list(hosts)
    starts = poisson_starts(rng, sessions, arrival_rate_per_s, t0)
    specs: List[FlowSpec] = []
    flow_id = first_flow_id
    for start in starts:
        client = rng.choice(hosts)
        server = rng.choice(server_pool)
        while server == client:
            server = rng.choice(server_pool if len(server_pool) > 1 else hosts)
        req_packets = rng.randint(*request_packets)
        resp_packets = rng.randint(*response_packets)
        request = FlowSpec(
            flow_id=flow_id,
            src=client,
            dst=server,
            src_port=base_port + (flow_id % 20000),
            dst_port=80,
            packets=req_packets,
            payload_bytes=payload_bytes,
            start_s=_staggered(start, flow_id),
            gap_s=gap_s,
            kind="request",
        )
        flow_id += 1
        response = FlowSpec(
            flow_id=flow_id,
            src=server,
            dst=client,
            src_port=80,
            dst_port=base_port + (request.flow_id % 20000),
            packets=resp_packets,
            payload_bytes=payload_bytes,
            start_s=_staggered(
                request.last_send_s + think_time_s, flow_id
            ),
            gap_s=gap_s,
            kind="response",
        )
        flow_id += 1
        specs.extend((request, response))
    return specs
