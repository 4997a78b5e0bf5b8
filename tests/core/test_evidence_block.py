"""The Fig. 3 Evidence block runs the same for a configured switch and a
policy hop.

A :class:`PeraSwitch` configured at a design-space point and a
:class:`NetworkAwarePeraSwitch` that receives a policy compiled to the
same point must produce the same hop records, the same accounting and
the same audit trail. The three regressions below are cases where a
policy hop's evidence went wrong because it borrowed the switch's own
configuration.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain, policy_shim
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.evidence.nodes import InertiaClass
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import (
    BatchingSpec,
    CompositionMode,
    DetailLevel,
    EvidenceConfig,
)
from repro.pera.records import decode_record_stack
from repro.pera.switch import PeraSwitch
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry import AuditKind, Telemetry


def _chain_with_appraiser(switch_count, telemetry=None, **switch_kwargs):
    """``h-src — s1..sN — h-dst`` plus an ``Appraiser`` host on s1."""
    topo = linear_topology(switch_count)
    topo.add_node("Appraiser", kind="host")
    topo.add_link("s1", 3, "Appraiser", 1)
    sim = Simulator(topo, telemetry=telemetry)
    chain = attested_chain(
        sim, [ipv4_forwarding_program()] * switch_count, **switch_kwargs
    )
    appraiser = Host("Appraiser", mac=0x3, ip=ip_to_int("10.0.2.1"))
    sim.bind(appraiser)
    return sim, chain, appraiser


def _ap1(chain, **point):
    return compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=chain.path,
        bindings={"client": chain.dst.name},
        **point,
    )


def _about(seconds):
    return pytest.approx(seconds, abs=5e-6)


def _tables_digest(record):
    return dict(record.measurements).get(InertiaClass.TABLES)


# --- three policy-hop regressions --------------------------------------------


class TestPolicyHopRegressions:
    def test_retry_goes_to_the_policy_target(self):
        """A policy-directed out-of-band record is retried to the target
        the policy named, not to the switch's own (unset) appraiser."""
        telemetry = Telemetry()
        sim, chain, appraiser = _chain_with_appraiser(
            1,
            telemetry=telemetry,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=100e-6),
        )
        faults = FaultPlan(seed=0)
        faults.crash_node(0.0, "Appraiser")
        faults.restart_node(120e-6, "Appraiser")
        FaultInjector(faults).attach(sim)
        shim = policy_shim(_ap1(chain, out_of_band=True))
        sim.schedule(50e-6, lambda: chain.send(shim, b"x", 1000, 2000))
        sim.run()

        stats = chain.switches[0].ra_stats
        assert (stats.oob_send_failures, stats.oob_retries) == (1, 1)
        assert (stats.oob_recovered, stats.oob_gave_up) == (1, 0)
        assert len(appraiser.control_received) == 1
        recovery = [
            (event.kind, event.detail["to"], event.time_s)
            for event in telemetry.audit.events
            if event.kind.startswith("recovery.")
        ]
        assert recovery == [
            # Sent at 50 us (plus a link's latency), failed, retried
            # once after the 100 us backoff: the appraiser is back.
            (AuditKind.RECOVERY_RETRY, "Appraiser", _about(50e-6)),
            (AuditKind.RECOVERY_RECOVERED, "Appraiser", _about(150e-6)),
        ]

    @pytest.mark.parametrize("first, second", [
        (DetailLevel.MINIMAL, DetailLevel.CONFIG),
        (DetailLevel.CONFIG, DetailLevel.MINIMAL),
    ])
    def test_cached_record_matches_the_requested_detail(self, first, second):
        """Pointwise records are cached per detail level: a policy asking
        for CONFIG after a MINIMAL one gets TABLES, and the reverse
        does not."""
        sim, chain, _ = _chain_with_appraiser(1)
        for detail in (first, second):
            compiled = _ap1(
                chain, detail=detail, composition=CompositionMode.POINTWISE
            )
            chain.send(policy_shim(compiled), b"x", 1000, 2000)
            sim.run()
        received = [
            decode_record_stack(packet.ra_shim.body)[0]
            for packet in chain.dst.received_packets
        ]
        assert [_tables_digest(r) is not None for r in received] == [
            InertiaClass.TABLES in detail.inertia_classes
            for detail in (first, second)
        ]

    def test_table_write_refreshes_a_policy_hops_cached_tables(self):
        """A table write invalidates a cached CONFIG record even when the
        switch's own configuration is MINIMAL."""
        sim, chain, _ = _chain_with_appraiser(
            1, config=EvidenceConfig(detail=DetailLevel.MINIMAL)
        )
        switch = chain.switches[0]
        shim = policy_shim(_ap1(
            chain,
            detail=DetailLevel.CONFIG,
            composition=CompositionMode.POINTWISE,
        ))
        chain.send(shim, b"before", 1000, 2000)
        sim.run()
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(
                MatchKind.LPM, ip_to_int("10.9.0.0"), prefix_len=16
            ),),
            action="forward", params=(2,),
        ))
        chain.send(shim, b"after", 1000, 2000)
        sim.run()
        before, after = (
            _tables_digest(decode_record_stack(packet.ra_shim.body)[0])
            for packet in chain.dst.received_packets
        )
        assert before is not None and after is not None
        assert before != after


# --- the differential property -----------------------------------------------

_POINTS = st.fixed_dictionaries({
    "detail": st.sampled_from(list(DetailLevel)),
    "composition": st.sampled_from(list(CompositionMode)),
    "out_of_band": st.booleans(),
    "batched": st.booleans(),
    "packets": st.integers(min_value=1, max_value=3),
})
_BATCHING = BatchingSpec(max_records=2, max_delay_s=1e-3)


def _run(point, policy_driven):
    """One stream at ``point`` through a 2-switch chain; what it left."""
    batching = _BATCHING if point["batched"] else None
    telemetry = Telemetry()
    if policy_driven:
        kwargs = dict(
            switch_cls=NetworkAwarePeraSwitch,
            config=EvidenceConfig(batching=batching),
        )
    else:
        kwargs = dict(
            switch_cls=PeraSwitch,
            config=EvidenceConfig(
                detail=point["detail"],
                composition=point["composition"],
                batching=batching,
            ),
            out_of_band=point["out_of_band"],
            appraiser_node="Appraiser" if point["out_of_band"] else None,
        )
    sim, chain, appraiser = _chain_with_appraiser(
        2, telemetry=telemetry, **kwargs
    )
    if policy_driven:
        shim = policy_shim(_ap1(
            chain,
            detail=point["detail"],
            composition=point["composition"],
            out_of_band=point["out_of_band"],
        ))
    else:
        shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY)
    for index in range(point["packets"]):
        sim.schedule(index * 100e-6, lambda index=index: chain.send(
            shim, bytes([index]), 1000, 2000
        ))
    sim.run()
    for switch in chain.switches:
        switch.flush_epochs()
    sim.run()
    in_band = [
        [_comparable(r) for r in decode_record_stack(packet.ra_shim.body)]
        for packet in chain.dst.received_packets
    ]
    out_of_band = [
        (sender, _comparable(record))
        for _, sender, record in appraiser.control_received
    ]
    return {
        "in_band": in_band,
        "out_of_band": out_of_band,
        "hops": [p.ra_shim.hop_count for p in chain.dst.received_packets],
        "ra_stats": [s.ra_stats for s in chain.switches],
        "ra_cost": [s.ra_cost for s in chain.switches],
        "audit": [event.kind for event in telemetry.audit.events],
    }


def _comparable(record):
    """A record's fields, less what hashes the packet's own bytes.

    ``packet_digest`` covers ``packet.encode()`` and so the policy TLV
    in the shim; the signature (or, batched, the epoch root, its
    signature and the proof path) is over that digest.
    """
    fields = {
        f.name: getattr(record, f.name) for f in dataclasses.fields(record)
    }
    if record.packet_digest is not None:
        for name in ("packet_digest", "signature", "epoch_root",
                     "root_signature", "proof_path"):
            fields.pop(name, None)
    return type(record).__name__, fields


@given(point=_POINTS)
def test_policy_hop_matches_a_configured_switch(point):
    configured = _run(point, policy_driven=False)
    assert _run(point, policy_driven=True) == configured
    # The stream really ran at the drawn point.
    assert len(configured["hops"]) == point["packets"]
    if point["out_of_band"]:
        assert len(configured["out_of_band"]) == 2 * point["packets"]
        assert not any(configured["in_band"])
    else:
        assert all(len(stack) == 2 for stack in configured["in_band"])
    config = EvidenceConfig(
        detail=point["detail"], composition=point["composition"]
    )
    batched = point["batched"] and config.per_packet_signature
    assert bool(configured["ra_stats"][0].epochs_sealed) == batched
