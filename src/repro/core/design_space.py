"""Fig. 4 design-space sweeps.

"Inertia, Detail and Composition are the primary indices in our design
space for PERA." This module runs a traffic workload across a grid of
:class:`~repro.pera.config.EvidenceConfig` points and reports, per
point, the quantities the figure motivates: cache hit rate, signatures
per packet, evidence bytes per packet, and RA processing cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.fleet import attested_chain
from repro.net.headers import RaShimHeader
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, DetailLevel, EvidenceConfig
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pera.switch import PeraSwitch
from repro.pisa.programs import ipv4_forwarding_program


@dataclass(frozen=True)
class SweepResult:
    """One design-space point's measured behaviour."""

    detail: DetailLevel
    composition: CompositionMode
    sampling: SamplingSpec
    packets_sent: int
    packets_delivered: int
    signatures_per_packet: float
    cache_hit_rate: float
    evidence_bytes_per_packet: float
    ra_cost_per_packet: float

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular reporting."""
        sampling = self.sampling.mode.value
        if self.sampling.mode is SamplingMode.ONE_IN_N:
            sampling = f"1-in-{self.sampling.n}"
        return {
            "detail": self.detail.value,
            "composition": self.composition.value,
            "sampling": sampling,
            "sent": self.packets_sent,
            "delivered": self.packets_delivered,
            "sigs/pkt": round(self.signatures_per_packet, 3),
            "cache hit": round(self.cache_hit_rate, 3),
            "ev bytes/pkt": round(self.evidence_bytes_per_packet, 1),
            "ra cost/pkt": round(self.ra_cost_per_packet, 1),
        }


def run_design_point(
    config: EvidenceConfig,
    packet_count: int = 50,
    switch_count: int = 3,
    inter_packet_s: float = 1e-4,
) -> SweepResult:
    """Send ``packet_count`` RA packets through a PERA chain at one
    design point and measure the evidence-handling behaviour."""
    sim = Simulator(linear_topology(switch_count))
    chain = attested_chain(
        sim,
        [ipv4_forwarding_program() for _ in range(switch_count)],
        switch_cls=PeraSwitch,
        config=config,
    )
    switches = chain.switches
    shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY)
    for index in range(packet_count):
        sim.schedule(index * inter_packet_s, lambda seq=index: chain.send(
            shim, seq.to_bytes(4, "big") + bytes(60), 1000, 2000
        ))
    sim.run()

    delivered = len(chain.dst.received_packets)
    total_signatures = sum(s.ra_stats.signatures_produced for s in switches)
    total_cost = sum(s.ra_cost for s in switches)
    total_evidence_bytes = sum(
        s.ra_stats.evidence_bytes_added for s in switches
    )
    hits = sum(s.cache.stats.hits for s in switches)
    misses = sum(s.cache.stats.misses for s in switches)
    return SweepResult(
        detail=config.detail,
        composition=config.composition,
        sampling=config.sampling,
        packets_sent=packet_count,
        packets_delivered=delivered,
        signatures_per_packet=total_signatures / max(1, packet_count),
        cache_hit_rate=hits / max(1, hits + misses),
        evidence_bytes_per_packet=total_evidence_bytes / max(1, packet_count),
        ra_cost_per_packet=total_cost / max(1, packet_count),
    )


def sweep(
    details: Optional[Sequence[DetailLevel]] = None,
    compositions: Optional[Sequence[CompositionMode]] = None,
    samplings: Optional[Sequence[SamplingSpec]] = None,
    packet_count: int = 50,
    switch_count: int = 3,
) -> List[SweepResult]:
    """Run the full (or a restricted) Fig. 4 grid."""
    details = list(details or DetailLevel)
    compositions = list(compositions or CompositionMode)
    samplings = list(samplings or [SamplingSpec()])
    results: List[SweepResult] = []
    for detail, composition, sampling in itertools.product(
        details, compositions, samplings
    ):
        config = EvidenceConfig(
            detail=detail, composition=composition, sampling=sampling
        )
        results.append(
            run_design_point(
                config, packet_count=packet_count, switch_count=switch_count
            )
        )
    return results


def format_table(results: Iterable[SweepResult]) -> str:
    """Render sweep results as an aligned text table."""
    rows = [result.row() for result in results]
    if not rows:
        return "(no results)"
    headers = list(rows[0])
    widths = {
        h: max(len(h), *(len(str(row[h])) for row in rows)) for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines)
