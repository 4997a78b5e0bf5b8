"""The sharded core's determinism contract, pinned end to end.

Same seed => byte-identical merged outputs for 1, 2 and 4 shards, on
both backends, for three scenarios of increasing hostility:

- the leaf-spine fabric workload (pure dataplane load),
- UC1 config assurance (attestation verdicts + epoch batching),
- the chaos campaign (an installed :class:`~repro.faults.FaultPlan`
  with losses, a compromise, crash/restart and clock skew).

"Byte-identical" is taken literally: the comparisons below are over
JSON strings of the merged :class:`~repro.net.simulator.SimStats`,
the merged audit journal, metric counters and gauges, the scenario's
own verdict/exfiltration outputs, and every histogram whose base name
ends in ``_sim_seconds`` (sim-clock latencies are deterministic, so
they are *inside* the contract). Wall-clock histograms (e.g.
``core.path_appraise_seconds``) measure real elapsed time and are the
one deliberate exclusion — see docs/SHARDING.md.

The multiprocessing backend is exercised sparingly (one case per
scenario): it must agree with inline, but each mp case forks workers
and costs real wall time.
"""

import json

import pytest

from repro.core.chaos import run_chaos_athens
from repro.core.fabric import (
    FabricShape,
    FatTreeShape,
    fabric_sampling_spec,
    run_fabric,
    run_fabric_traffic,
)
from repro.core.usecases import run_config_assurance
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.pera.config import BatchingSpec
from repro.telemetry.metrics import parse_name

SHARD_COUNTS = (1, 2, 4)

FABRIC_SHAPE = FabricShape(
    leaves=8, spines=2, hosts_per_leaf=2, flows_per_host=4
)

#: The congested campaign: tight buffers so tail-drops, ECN marks and
#: PFC pause frames all fire, an incast converging from other pods
#: onto pod 0 (so backpressure crosses the pod-core shard cut), and a
#: corrupting edge-agg hop that link-local recovery must mask.
CONGESTED_SHAPE = FatTreeShape(
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


def metric_signature(result):
    """Counters, gauges and sim-clock histograms as deterministic
    JSON; wall-clock histograms excluded (the only section allowed to
    carry nondeterministic measurements)."""
    sim_histograms = {
        key: value
        for key, value in result.metrics.get("histograms", {}).items()
        if parse_name(key)[0].endswith("_sim_seconds")
    }
    return json.dumps(
        {
            "counters": result.metrics.get("counters", {}),
            "gauges": result.metrics.get("gauges", {}),
            "sim_histograms": sim_histograms,
        },
        sort_keys=True,
        default=str,
    )


def fabric_signature(shards, backend, chaos, seed=0):
    run = run_fabric(
        FABRIC_SHAPE, shards=shards, backend=backend, seed=seed, chaos=chaos
    )
    return json.dumps({
        "delivered": run.delivered,
        "stats": run.result.stats_export(),
        "audit": run.result.audit_export(),
        "metrics": metric_signature(run.result),
    }, sort_keys=True)


def uc1_signature(shards, backend, batching=None):
    result = run_config_assurance(shards=shards, backend=backend,
                                  batching=batching)
    return json.dumps({
        "verdicts": [repr(v) for v in result.verdicts],
        "exfiltrated": result.exfiltrated,
        "stats": result.sharded.stats_export(),
        "audit": result.sharded.audit_export(),
        "metrics": metric_signature(result.sharded),
    }, sort_keys=True)


def chaos_signature(shards, backend, seed):
    result = run_chaos_athens(seed=seed, shards=shards, backend=backend)
    return json.dumps({
        "verdicts": [repr(v) for v in result.verdicts],
        "exfiltrated": result.exfiltrated,
        "collector_records": result.collector_records,
        "fault_stats": result.fault_stats,
        "ra_counters": result.ra_counters,
        "stats": result.sharded.stats_export(),
        "audit": result.sharded.audit_export(),
        "metrics": metric_signature(result.sharded),
    }, sort_keys=True, default=str)


class TestFabricDeterminism:
    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_shard_sweep(self, chaos):
        sigs = {s: fabric_signature(s, "inline", chaos) for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert fabric_signature(2, "mp", chaos=True) == fabric_signature(
            2, "inline", chaos=True
        )

    def test_seeds_differ(self):
        # The sweep would be vacuous if the signature ignored the run.
        assert fabric_signature(2, "inline", chaos=True, seed=0) != \
            fabric_signature(2, "inline", chaos=True, seed=3)


def congested_signature(shards, backend, seed=3):
    run = run_fabric_traffic(
        CONGESTED_SHAPE,
        shards=shards,
        backend=backend,
        seed=seed,
        sampling=fabric_sampling_spec(),
    )
    return json.dumps({
        "forwarded": run.forwarded,
        "ecn_delivered": run.ecn_delivered,
        "congestion_repicks": run.congestion_repicks,
        "fct": run.fct_percentiles((0.5, 0.95, 0.99, 0.999)),
        "verdicts": {str(k): v for k, v in sorted(run.verdicts.items())},
        "stats": run.result.stats_export(),
        "audit": run.result.audit_export(),
        "frames": run.result.frames_export(),
        "metrics": metric_signature(run.result),
    }, sort_keys=True)


class TestCongestedDeterminism:
    """Queues, ECN, PFC pauses and recovery inside the byte-identity
    contract: the congestion subsystem introduces no new randomness
    and pause frames cross shard cuts through the typed outboxes."""

    def test_shard_sweep(self):
        sigs = {s: congested_signature(s, "inline") for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert congested_signature(2, "mp") == congested_signature(
            2, "inline"
        )

    def test_congestion_signals_actually_fired(self):
        # The sweep is vacuous unless the run really queued, marked,
        # paused and recovered.
        run = run_fabric_traffic(CONGESTED_SHAPE, shards=2, seed=3)
        stats = json.loads(run.result.stats_export())
        assert stats["queue_drops"] > 0
        assert stats["ecn_marked"] > 0
        assert stats["pause_frames"] > 0
        assert stats["recovery_retransmits"] > 0


class TestUC1Determinism:
    def test_shard_sweep(self):
        sigs = {s: uc1_signature(s, "inline") for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_shard_sweep_with_batching(self):
        # Epoch sealing rides the barrier drain hook; exercise both a
        # count-triggered and a timer-triggered batching config.
        for batching in (
            BatchingSpec(max_records=4, max_delay_s=0.0),
            BatchingSpec(max_records=6, max_delay_s=2e-3),
        ):
            sigs = {
                s: uc1_signature(s, "inline", batching=batching)
                for s in SHARD_COUNTS
            }
            assert sigs[2] == sigs[1]
            assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert uc1_signature(2, "mp") == uc1_signature(2, "inline")


class TestChaosDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shard_sweep_under_fault_plan(self, seed):
        sigs = {s: chaos_signature(s, "inline", seed) for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert chaos_signature(4, "mp", seed=0) == chaos_signature(
            4, "inline", seed=0
        )
