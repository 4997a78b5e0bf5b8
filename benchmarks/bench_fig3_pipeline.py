"""E4 / Fig. 3 — per-packet cost of the PERA pipeline stages.

Compares a plain PISA switch against PERA at several design points.
Expected shape: signing dominates per-packet cost; pointwise
composition with caching recovers almost all of the RA overhead, which
is the motivation for the Fig. 4 tuning surface.
"""

import time

import pytest

from repro.core.fleet import bring_up, forward_prefix
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.packet import Packet
from repro.pera.config import (
    BatchingSpec,
    CompositionMode,
    DetailLevel,
    EvidenceConfig,
)
from repro.pera.switch import PeraSwitch
from repro.pisa.pipeline import CostModel, PacketContext
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.switch import PisaSwitch

from conftest import report, table


def make_switch(cls=PisaSwitch, **kwargs):
    switch = cls("s1", **kwargs)
    bring_up(switch, ipv4_forwarding_program())
    forward_prefix(switch)
    return switch


def make_packet(with_shim: bool):
    return Packet.udp_packet(
        src_mac=1, dst_mac=2,
        src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.1.1"),
        src_port=1000, dst_port=2000, payload=bytes(64),
        ra_shim=RaShimHeader(flags=RaShimHeader.FLAG_POLICY) if with_shim else None,
    )


def drive(switch, with_shim: bool, packets: int = 1):
    packet = make_packet(with_shim)
    for _ in range(packets):
        ctx = PacketContext.from_packet(packet, ingress_port=1)
        switch.process_context(ctx)
    return switch


CONFIGS = {
    "baseline (no RA)": None,
    "pointwise+cache": EvidenceConfig(composition=CompositionMode.POINTWISE),
    "chained": EvidenceConfig(composition=CompositionMode.CHAINED),
    "chained batched(32)": EvidenceConfig(
        composition=CompositionMode.CHAINED,
        batching=BatchingSpec(max_records=32, max_delay_s=0.0),
    ),
    "traffic-path": EvidenceConfig(composition=CompositionMode.TRAFFIC_PATH),
    "traffic-path expansive": EvidenceConfig(
        composition=CompositionMode.TRAFFIC_PATH, detail=DetailLevel.EXPANSIVE
    ),
}


@pytest.mark.parametrize("label", list(CONFIGS))
def test_fig3_per_packet_cost(benchmark, label):
    config = CONFIGS[label]
    if config is None:
        switch = make_switch(PisaSwitch)
        benchmark(lambda: drive(switch, with_shim=False))
    else:
        switch = make_switch(PeraSwitch, config=config)
        benchmark(lambda: drive(switch, with_shim=True))


def test_fig3_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cost_model = CostModel()
    rows = []
    packets = 200
    for label, config in CONFIGS.items():
        if config is None:
            switch = make_switch(PisaSwitch)
            drive(switch, with_shim=False, packets=packets)
            ra_cost = 0.0
            signatures = 0
        else:
            switch = make_switch(PeraSwitch, config=config)
            drive(switch, with_shim=True, packets=packets)
            switch.flush_epochs()  # no-op outside batched mode
            ra_cost = switch.ra_cost
            signatures = switch.ra_stats.signatures_produced
        pipeline_cost = switch.total_cost
        rows.append({
            "mode": label,
            "pipeline cost/pkt": round(pipeline_cost / packets, 1),
            "ra cost/pkt": round(ra_cost / packets, 1),
            "sigs/pkt": round(signatures / packets, 2),
            "overhead x": round(
                (pipeline_cost + ra_cost) / pipeline_cost, 2
            ),
        })
    report(
        "Fig. 3: PERA pipeline per-packet cost "
        f"(sign={cost_model.sign:.0f} units, lookup={cost_model.table_lookup:.0f})",
        table(rows),
    )
    by_mode = {r["mode"]: r for r in rows}
    # Shapes: per-packet signing dominates; caching recovers most of it.
    assert by_mode["baseline (no RA)"]["ra cost/pkt"] == 0
    assert by_mode["pointwise+cache"]["overhead x"] < 1.5
    assert by_mode["chained"]["overhead x"] > 5
    assert (
        by_mode["traffic-path expansive"]["ra cost/pkt"]
        >= by_mode["traffic-path"]["ra cost/pkt"]
    )
    # Epoch batching amortizes the signature: far fewer sigs, less cost.
    assert by_mode["chained batched(32)"]["sigs/pkt"] < 0.1
    assert (
        by_mode["chained batched(32)"]["ra cost/pkt"]
        < by_mode["chained"]["ra cost/pkt"]
    )


def _measure_pps(config, packets: int = 512) -> float:
    """Wall-clock packets/sec through one standalone switch."""
    switch = make_switch(PeraSwitch, config=config)
    switch.keys.sign(b"warmup")  # build the lazy Ed25519 base table
    packet = make_packet(with_shim=True)
    start = time.perf_counter()
    for _ in range(packets):
        ctx = PacketContext.from_packet(packet, ingress_port=1)
        switch.process_context(ctx)
    switch.flush_epochs()  # the last (partial) epoch counts too
    return packets / (time.perf_counter() - start)


def _measure_baseline_pps(packets: int = 512) -> float:
    """Wall-clock packets/sec through a plain no-RA PISA switch."""
    switch = make_switch(PisaSwitch)
    packet = make_packet(with_shim=False)
    start = time.perf_counter()
    for _ in range(packets):
        ctx = PacketContext.from_packet(packet, ingress_port=1)
        switch.process_context(ctx)
    return packets / (time.perf_counter() - start)


def test_fig3_batched_speedup(benchmark):
    """Tentpole claims: batching amortizes signing, and the crypto hot
    path keeps absolute chained overhead in check.

    Both attested modes run the same chained design point; the only
    difference is one Ed25519 signature per epoch (Merkle-root
    amortized) instead of one per packet. The hard gate is the ratio
    between the two attested modes — measured interleaved under the
    same machine conditions — while a plain no-RA switch anchors the
    absolute overhead ratios, which are *reported* (extra_info + table)
    rather than gated as machine-dependent wall-clock constants here;
    the chained mode's speed is gated by the ledger's ``switch_fig3``
    workload.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_packet = EvidenceConfig(composition=CompositionMode.CHAINED)
    batched = EvidenceConfig(
        composition=CompositionMode.CHAINED,
        batching=BatchingSpec(max_records=32, max_delay_s=0.0),
    )
    # Interleaved best-of-5 damps scheduler noise: measuring the modes
    # back-to-back each round keeps both sides of the ratio under the
    # same machine conditions before taking the per-side maximum.
    per_packet_pps = batched_pps = baseline_pps = 0.0
    for _ in range(5):
        baseline_pps = max(baseline_pps, _measure_baseline_pps())
        per_packet_pps = max(per_packet_pps, _measure_pps(per_packet))
        batched_pps = max(batched_pps, _measure_pps(batched))
    speedup = batched_pps / per_packet_pps
    chained_overhead = baseline_pps / per_packet_pps
    batched_overhead = baseline_pps / batched_pps
    benchmark.extra_info["baseline_pps"] = round(baseline_pps, 1)
    benchmark.extra_info["per_packet_pps"] = round(per_packet_pps, 1)
    benchmark.extra_info["batched_pps"] = round(batched_pps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["chained_overhead_x"] = round(chained_overhead, 1)
    benchmark.extra_info["batched_overhead_x"] = round(batched_overhead, 1)
    report(
        "Fig. 3 addendum: epoch-batched signing throughput",
        table([
            {"mode": "baseline (no RA)", "packets/sec": round(baseline_pps)},
            {"mode": "chained per-packet", "packets/sec": round(per_packet_pps)},
            {"mode": "chained batched(32)", "packets/sec": round(batched_pps)},
            {"mode": "speedup (batched/per-packet)", "packets/sec": f"{speedup:.2f}x"},
            {"mode": "chained overhead vs baseline", "packets/sec": f"{chained_overhead:.1f}x"},
            {"mode": "batched overhead vs baseline", "packets/sec": f"{batched_overhead:.1f}x"},
        ]),
    )
    # The amortization ratio: epoch batching must stay clearly cheaper
    # per packet than chained per-packet signing. Each faster signer
    # shrinks the per-packet side it divides by: the windowed base
    # table moved the gate from ≥5× to ≥4×, and extended-Euclid field
    # inversion (sign 281 → 168 µs; chained ~2.5k → ~3.6–3.9k pps)
    # reads 3.75–3.85× on a 2-core x86 host, python 3.11, so it is now
    # ≥3×, 20 % below the lower reading. This is the only hard gate
    # here: both sides of the ratio run interleaved on the same machine
    # in the same process, so it is immune to runner speed.
    assert speedup >= 3.0
    # The absolute overhead-vs-baseline ratios (chained ~34×, batched
    # ~9× on the reference runner; ~49× chained before extended-Euclid
    # inversion, ~63× before the widened base table) are reported in
    # extra_info and the table only: interpreter wall-clock constants
    # shift with machine and load, so pinning them here would flake on
    # slow runners and mask regressions on fast ones. Wall-clock
    # regressions are the ledger's to catch (``switch_fig3``, parent and
    # change run on one machine by ``run.py compare``).
