"""Run signatures: four SHA-256 part digests per campaign, pinned as
committed goldens.

Each campaign's signature is one digest per deterministic export: its
merged ``SimStats`` (``stats``), the audit journal with folded health
alerts where the campaign runs rules (``journal``), the
flight-recorder frames (``frames``) and a campaign-specific verdict /
FCT / marker summary (``summary``). The goldens were minted from
``shards=1`` on the inline backend; every shard count in {1, 2, 4} and
one multiprocessing run must reproduce them, so a refactor of any
campaign entry point is checked against the exact bytes it produced
before — in seconds. A change that moves a golden on purpose shows
which export it moved.

Wall-clock measurements (busy seconds, wall-time histograms) are
outside the signature by construction: none of the hashed exports
carries them.
"""

import dataclasses
import functools
import hashlib
import json
from functools import partial
from typing import Dict

import pytest

from repro.core.chaos import run_chaos_athens, standard_chaos_rules
from repro.core.fabric import (
    FatTreeShape,
    fabric_sampling_spec,
    fabric_traffic_spec,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.core.usecases import run_config_assurance
from repro.faults import FaultInjector, FaultPlan
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.net.shardrun import run_sharded
from repro.pera.config import BatchingSpec
from repro.telemetry import AuditKind, run_bundle
from repro.telemetry.metrics import parse_name

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

#: The fat tree under link chaos, at its smallest shape on which both
#: faults below drop packets. Pod–core uplinks are the cut links at
#: shards 2 and 4, so the drops happen where the shards meet.
CHAOS_SHAPE = FatTreeShape(bulk_flows=10, web_sessions=0, attested_flows=0)
CHAOS_SEED = 7
LOSSY_UPLINK = ("p00a00", "zcore00")
FLAPPING_UPLINK = ("p01a01", "zcore03")


def _with_link_chaos(sim, build):
    """``build``, then mid-run loss on one pod–core uplink and a
    two-cycle flap on another."""
    ctx = build(sim)
    plan = FaultPlan(seed=sim.seed)
    plan.link_loss(20e-6, *LOSSY_UPLINK, rate=0.4)
    plan.link_loss(120e-6, *LOSSY_UPLINK, rate=0.0)
    plan.link_flap(
        40e-6, *FLAPPING_UPLINK, down_s=15e-6, up_s=30e-6, cycles=2
    )
    FaultInjector(plan).attach(sim)
    return ctx


TRAFFIC_CHAOS_CLEAN = fabric_traffic_spec(
    CHAOS_SHAPE, sampling=fabric_sampling_spec()
)
TRAFFIC_CHAOS = dataclasses.replace(
    TRAFFIC_CHAOS_CLEAN,
    build=partial(_with_link_chaos, build=TRAFFIC_CHAOS_CLEAN.build),
)


def _signature(sharded, summary) -> Dict[str, str]:
    """SHA-256 of each of the four deterministic exports of one run."""
    parts = {
        "stats": sharded.stats_export(),
        "journal": json.dumps(
            [event.as_dict() for event in sharded.telemetry.audit.events],
            sort_keys=True,
        ),
        "frames": sharded.frames_export(),
        "summary": json.dumps(summary, sort_keys=True),
    }
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in parts.items()
    }


def _traffic(shape, seed, rules, shards, backend):
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
        "fct_s": {str(k): v for k, v in sorted(run.fct_s.items())},
        "fct_percentiles": run.fct_percentiles((0.5, 0.95, 0.99, 0.999)),
        "verdicts": {str(k): list(v) for k, v in sorted(run.verdicts.items())},
        "tx_by_port": {
            name: {str(port): n for port, n in sorted(ports.items())}
            for name, ports in sorted(run.tx_by_port.items())
        },
        "alerts": run.health.alerts,
    })


def _merged_outputs(outputs):
    """The per-shard harvest outputs as one shard-count-invariant dict:
    counts summed, per-flow and per-switch maps merged."""
    merged = {}
    for out in outputs:
        for key, value in out.items():
            if isinstance(value, dict):
                merged.setdefault(key, {}).update(value)
            elif isinstance(value, int):
                merged[key] = merged.get(key, 0) + value
    return merged


def _spec_signature(spec, shards, backend):
    sharded = run_sharded(
        spec, shards=shards, backend=backend, seed=CHAOS_SEED
    )
    return _signature(sharded, _merged_outputs(sharded.outputs))


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


#: name -> (runner taking (shards, backend), golden part digests).
CAMPAIGNS = {
    "traffic-clean": (
        lambda s, b: _traffic(FatTreeShape(), 7, standard_fabric_rules(), s, b),
        {
            "stats": "34877cd322d2f6cb5790f92f73d76cdb8e7a3d7770918d7c9e4d66f00ca14a8b",
            "journal": "858f1aa50317939774e2b9ba795c9afb0a14f539893051f6578eab1637a6a42d",
            "frames": "2c799e4993a5f8aa42fe13afb7d5cb886efff98ef4812d4744102883b9af481c",
            "summary": "c9b13619996ebd0fea4e3fe7b92f0f6dc23420ddd333f8b711a99e0e415fbe4e",
        },
    ),
    "traffic-congested": (
        lambda s, b: _traffic(
            CONGESTED, 3, standard_fabric_rules(queue_depth_bytes=4096.0),
            s, b,
        ),
        {
            "stats": "78d924abbf575647f96499b1b9111d1258ad5004d000662e7afd5798dbf66e53",
            "journal": "d96be1e3abb119339e7771b1e0479ecf946ff0d9e5afa6f0e0c202742d398795",
            "frames": "bd0a4b16f60c21498ab9e9ec12efce0f731f30506bb9ab89e07e5f93732e9870",
            "summary": "bb7e884f67f4cf7a0c7a7e0f9a22d8f6e5f2de4868eceb0c0be7d87ec92f46e5",
        },
    ),
    "traffic-chaos": (
        partial(_spec_signature, TRAFFIC_CHAOS),
        {
            "stats": "d12ab9b1b36562157e0d6cd44583b6d0b4f00cecd5cdc708704a3113bb028a1e",
            "journal": "74022b4c4f1b16c1223d346242e26c58f3f85a734d402788ad9b5b776d5f4af6",
            "frames": "2a8d56c019a0cce3e5652be3f46adedbc3fab856e7b6d0479b6e163cf28d7377",
            "summary": "fa5f34cadbcf706d2dfed80d04dd39ada09c0916e193c50699af31f04e62b4dd",
        },
    ),
    "chaos-athens": (
        _chaos,
        {
            "stats": "599786618e04042a41568ddbceb42b7812a1d1abc73d0b16a072e73f1bfb9e94",
            "journal": "5440bbf2d68f50fa6319ff757d7526f6060bb9bab586a0bef1a8d992d8703b6f",
            "frames": "262c676baf7335ee1d3e5383694ffefac2e4fa5eb81e981e0a57ef9e4b7f73ab",
            "summary": "8089f35885502a392d7e003c19179652d3511732d6682a2bfe28b7b178cfde0d",
        },
    ),
    "uc1": (
        lambda s, b: _uc1(None, s, b),
        {
            "stats": "edc14bc2bd9816fd2b68a665169a9effd661927d2cf1da66a5ca80245962270f",
            "journal": "658349b29f079659c1b3b9231b184d29301a868ff800eed2b3375bb1ad9bb51a",
            "frames": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "summary": "4289a5d21efc07ec2a0527d067726cb9d34c7aa9c8514265c916a55206761afc",
        },
    ),
    "uc1-batched": (
        lambda s, b: _uc1(BatchingSpec(max_records=4, max_delay_s=0.0), s, b),
        {
            "stats": "279f1abe2dc4c1b1a1f8e7910a7657bb83a3220ab99566427d32773a55cb7ef8",
            "journal": "d2bb4798cd8f14fc73c2bf00c79d00cdb8a3ba695ece1aa27a355301800531de",
            "frames": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "summary": "4289a5d21efc07ec2a0527d067726cb9d34c7aa9c8514265c916a55206761afc",
        },
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
    # The goldens would be vacuous if the signature ignored its input:
    # the link chaos moves every part of the same spec's signature.
    chaos = _spec_signature(TRAFFIC_CHAOS, 1, "inline")
    assert chaos != CAMPAIGNS["traffic-clean"][1]
    clean = _spec_signature(TRAFFIC_CHAOS_CLEAN, 1, "inline")
    for part in ("stats", "journal", "frames", "summary"):
        assert chaos[part] != clean[part], part


def test_link_chaos_actually_fired():
    """The traffic-chaos golden is vacuous unless both faults fire and
    drop packets, and unless the drops land on shard-cut links."""
    on_link = {
        node: link for link in (LOSSY_UPLINK, FLAPPING_UPLINK) for node in link
    }
    for shards in (1, 2, 4):
        sharded = run_sharded(TRAFFIC_CHAOS, shards=shards, seed=CHAOS_SEED)
        assert sharded.stats.packets_dropped > 0
        faults = sorted(
            (event.detail["fault"], event.detail["target"])
            for event in sharded.telemetry.audit.events
            if event.kind in (AuditKind.FAULT_INJECTED, AuditKind.FAULT_CLEARED)
        )
        assert faults == sorted(
            [("link_loss", "|".join(LOSSY_UPLINK))] * 2
            + [("link_down", "|".join(FLAPPING_UPLINK))] * 2
            + [("link_up", "|".join(FLAPPING_UPLINK))] * 2
        )
        dropped = {}
        for key, count in sharded.metrics["counters"].items():
            name, labels = parse_name(key)
            labels = dict(labels)
            if name == "net.link.dropped" and labels["reason"] in (
                "fault_link_loss", "fault_link_down",
            ):
                link = on_link[labels["node"]]
                dropped[link] = dropped.get(link, 0) + count
        assert set(dropped) == {LOSSY_UPLINK, FLAPPING_UPLINK}
        if shards > 1:
            cut = {
                tuple(sorted((link.node_a, link.node_b)))
                for link in sharded.partition.cut_links
            }
            assert set(dropped) <= cut


@functools.lru_cache(maxsize=None)
def _chaos_run(shards, backend):
    """One chaos-athens campaign per (shards, backend), shared like
    :func:`_congested_run`."""
    run = run_chaos_athens(
        seed=7, shards=shards, backend=backend, health=standard_chaos_rules()
    )
    return run.sharded, run.health


@functools.lru_cache(maxsize=None)
def _congested_run(shards, backend):
    """One congested campaign per (shards, backend), shared by the tests
    below; neither mutates what it reads."""
    run = run_fabric_traffic(
        CONGESTED,
        shards=shards,
        backend=backend,
        seed=3,
        sampling=fabric_sampling_spec(),
        health=standard_fabric_rules(queue_depth_bytes=4096.0),
    )
    return run.result, run.health


@pytest.mark.parametrize("name, runner", [
    ("chaos-athens", _chaos_run),
    ("traffic-congested", _congested_run),
])
def test_run_bundle_carries_the_signed_bytes(name, runner):
    """The run bundle's stats, journal and frames sections are the bytes
    the goldens hash, and its whole deterministic part is the same at
    every shard count and backend."""
    golden = CAMPAIGNS[name][1]
    parts = set()
    for shards, backend in ((1, "inline"), (2, "inline"), (4, "inline"), (2, "mp")):
        sharded, health = runner(shards, backend)
        doc = run_bundle(sharded.telemetry, sharded, health)["deterministic"]
        for part in ("stats", "journal", "frames"):
            text = json.dumps(doc[part], sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == golden[part], (
                part, shards, backend,
            )
        parts.add(json.dumps(doc, sort_keys=True))
    assert len(parts) == 1


#: Per-link, per-port and per-pair counters whose sum is one
#: ``SimStats`` field.
CONSERVED = {
    "net.link.tx_packets": "packets_transmitted",
    "net.link.tx_bytes": "bytes_transmitted",
    "net.link.dropped": "packets_dropped",
    "net.control.messages": "control_messages",
    "net.control.bytes": "control_bytes",
    "net.control.dropped": "control_dropped",
    "net.qdisc.ecn_marked": "ecn_marked",
    "net.qdisc.pause_frames": "pause_frames",
}

SHARDINGS = [(1, "inline"), (2, "inline"), (4, "inline"), (2, "mp")]


def _assert_counters_sum_to_the_stats(sharded):
    """The labelled telemetry counters are outside the golden digests:
    pin them to the stats they itemise."""
    sums = dict.fromkeys(CONSERVED, 0.0)
    queue_full = 0.0
    for key, value in sharded.metrics["counters"].items():
        name, labels = parse_name(key)
        if name in sums:
            sums[name] += value
        if name == "net.link.dropped" and dict(labels)["reason"] == "queue_full":
            queue_full += value
    stats = sharded.stats
    for name, field in CONSERVED.items():
        assert sums[name] == getattr(stats, field), name
    assert queue_full == stats.queue_drops


@pytest.mark.parametrize("shards, backend", SHARDINGS)
def test_congested_counters_sum_to_the_stats(shards, backend):
    sharded, _ = _congested_run(shards, backend)
    stats = sharded.stats
    assert stats.ecn_marked and stats.pause_frames and stats.local_resends
    assert stats.queue_drops and stats.control_messages
    _assert_counters_sum_to_the_stats(sharded)


@pytest.mark.parametrize("shards, backend", SHARDINGS)
def test_chaos_counters_sum_to_the_stats(shards, backend):
    """Chaos is the run with link and control-channel drops."""
    sharded, _ = _chaos_run(shards, backend)
    stats = sharded.stats
    assert stats.packets_dropped and stats.control_dropped
    assert stats.control_messages and stats.control_bytes
    _assert_counters_sum_to_the_stats(sharded)
