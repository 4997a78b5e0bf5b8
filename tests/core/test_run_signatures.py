"""Run signatures: one SHA-256 per campaign, pinned as committed goldens.

Each campaign's signature hashes its merged ``SimStats``, the audit
journal (with folded health alerts where the campaign runs rules), the
flight-recorder frames and a campaign-specific verdict / FCT / marker
summary. The goldens were minted from ``shards=1`` on the inline
backend; every shard count in {1, 2, 4} and one multiprocessing run
must reproduce them, so a refactor of any campaign entry point is
checked against the exact bytes it produced before — in seconds.

Wall-clock measurements (busy seconds, wall-time histograms) are
outside the signature by construction: none of the hashed exports
carries them.
"""

import hashlib
import json

import pytest

from repro.core.chaos import run_chaos_athens, standard_chaos_rules
from repro.core.fabric import (
    FabricShape,
    FatTreeShape,
    fabric_sampling_spec,
    run_fabric,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.core.usecases import run_config_assurance
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.pera.config import BatchingSpec

LEAF_SPINE = FabricShape(leaves=8, spines=2, hosts_per_leaf=2, flows_per_host=4)

CONGESTED = FatTreeShape(
    queue=QueueConfig(
        capacity_bytes=8192,
        capacity_packets=32,
        ecn_threshold_bytes=2048,
        pause_threshold_bytes=4096,
        recovery=RecoveryConfig(),
    ),
    incast_fan_in=8,
    corrupt_link_rate=0.3,
    routing=RoutingMode.FLOWLET,
)


def _signature(sharded, summary) -> str:
    """SHA-256 over the four deterministic exports of one run."""
    journal = json.dumps(
        [event.as_dict() for event in sharded.telemetry.audit.events],
        sort_keys=True,
    )
    payload = json.dumps(
        [
            sharded.stats_export(),
            journal,
            sharded.frames_export(),
            json.dumps(summary, sort_keys=True),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _fabric(chaos, shards, backend):
    run = run_fabric(
        LEAF_SPINE, shards=shards, backend=backend, seed=0, chaos=chaos
    )
    return _signature(run.result, {"delivered": run.delivered})


def _traffic(shape, seed, rules, shards, backend, per_flow_fct=True):
    run = run_fabric_traffic(
        shape,
        shards=shards,
        backend=backend,
        seed=seed,
        sampling=fabric_sampling_spec(),
        health=rules,
    )
    return _signature(run.result, {
        "forwarded": run.forwarded,
        "attested_hops": run.attested_hops,
        "oob": [run.oob_records, run.oob_verified],
        "ecn_delivered": run.ecn_delivered,
        "congestion_repicks": run.congestion_repicks,
        "fct_s": (
            {str(k): v for k, v in sorted(run.fct_s.items())}
            if per_flow_fct else sorted(run.fct_s)
        ),
        "fct_percentiles": run.fct_percentiles((0.5, 0.95, 0.99, 0.999)),
        "verdicts": {str(k): list(v) for k, v in sorted(run.verdicts.items())},
        "tx_by_port": {
            name: {str(port): n for port, n in sorted(ports.items())}
            for name, ports in sorted(run.tx_by_port.items())
        },
        "alerts": run.health.alerts,
    })


def _chaos(shards, backend):
    run = run_chaos_athens(
        seed=7, shards=shards, backend=backend, health=standard_chaos_rules()
    )
    return _signature(run.sharded, {
        "verdicts": [repr(v) for v in run.verdicts],
        "markers": [run.first_rejection, run.recovered_at],
        "exfiltrated": run.exfiltrated,
        "collector_records": run.collector_records,
        "fault_stats": repr(run.fault_stats),
        "ra_counters": run.ra_counters,
        "alerts": run.health.alerts,
    })


def _uc1(batching, shards, backend):
    run = run_config_assurance(
        shards=shards, backend=backend, batching=batching
    )
    return _signature(run.sharded, {
        "verdicts": [repr(v) for v in run.verdicts],
        "markers": [run.first_rejection, run.swap_at, run.detection_delay],
        "exfiltrated": run.exfiltrated,
    })


#: name -> (runner taking (shards, backend), golden hex digest).
CAMPAIGNS = {
    "fabric": (
        lambda s, b: _fabric(False, s, b),
        "ae5a7fa5ab38ede75014dbe5512acad60228c7be1fefb5003f92cafe375dcf7c",
    ),
    "fabric-chaos": (
        lambda s, b: _fabric(True, s, b),
        "949a5a8eff5c1ea2c0f94c3e04cccc80a2a2f71a1fb2c15319293a43a2613b46",
    ),
    "traffic-clean": (
        lambda s, b: _traffic(FatTreeShape(), 7, standard_fabric_rules(), s, b),
        "33268499ac80bf8b514dc9ac634add85757f561575abc794a52618a1513f92fd",
    ),
    "traffic-congested": (
        # Percentiles only: under incast, packets of two bulk flows tie
        # at one egress queue (the ordering docs/SHARDING.md says the
        # merge cannot pin) and interleave differently at shards=1 and
        # shards>=2, moving one mid-distribution flow's completion by a
        # serialization slot while every other export stays equal.
        lambda s, b: _traffic(
            CONGESTED, 3, standard_fabric_rules(queue_depth_bytes=4096.0),
            s, b, per_flow_fct=False,
        ),
        "b7e50fd82efe385bda345b2ff00d7cf6b0c706db8fe21c94fbb43db10a6eac3b",
    ),
    "chaos-athens": (
        _chaos,
        "17ea6684e3e027035009d09d49cb825be29d75199d9781dc8b0fc5f5facdb63f",
    ),
    "uc1": (
        lambda s, b: _uc1(None, s, b),
        "6a1b67c113e94770847d3e3acd3db9eeb88798eb49dc438808752b67216a3d80",
    ),
    "uc1-batched": (
        lambda s, b: _uc1(BatchingSpec(max_records=4, max_delay_s=0.0), s, b),
        "d205ae83a3b8d6b3f499d495d7d900dd7798e0be851992904c7c06ccca540f8c",
    ),
}


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_inline_signature_matches_golden(name, shards):
    run, golden = CAMPAIGNS[name]
    assert run(shards, "inline") == golden


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_mp_signature_matches_golden(name):
    run, golden = CAMPAIGNS[name]
    assert run(2, "mp") == golden


def test_signature_sees_the_run():
    # The goldens would be vacuous if the signature ignored its input.
    assert _fabric(True, 1, "inline") != _fabric(False, 1, "inline")
