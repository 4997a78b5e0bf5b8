"""Tail flow-completion time under congestion, by attestation variant.

An 8-way incast converges on one pod-0 host of a k=4 fat-tree with
tight finite buffers (tail-drop, ECN marking, PFC pauses), while a
bulk/web background mix rides the flowlet-routed fast path. The same
congested campaign runs four times, varying only how attestation
evidence travels:

- ``baseline``      — no attested flows at all,
- ``in-band``       — every attested flow carries evidence in-band,
- ``out-of-band``   — every attested flow diverts evidence to the
  collector,
- ``epoch-batched`` — out-of-band with epoch sealing (BatchingSpec).

The reported rows are the FCT tail percentiles p50/p95/p99/p99.9 per
variant — the "attestation under congestion" cost the paper's story
needs quantified. The timed row is the in-band variant (the canonical
worst case: evidence competes with data for the congested buffers).

A second benchmark pins the LinkGuardian-style link-local recovery
claim: a 30%-corrupting edge→agg hop on the first attested flow's
path is masked by local retransmits — the report shows the raw
corruption pressure vs the effective end-to-end loss rate (zero) and
the resend latency each recovered flow actually paid, measured as the
per-flow FCT delta against the byte-identical clean run.

Everything lands in the report tables and ``CONGESTION_summary.json``
for CI artifact upload.
"""

import gc
import json
import pathlib
import time

from repro.core.fabric import FatTreeShape, run_fabric_traffic
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.pera.config import BatchingSpec

from conftest import report, table

_SUMMARY_PATH = pathlib.Path(__file__).parent / "CONGESTION_summary.json"

SEED = 20260807

#: Percentile grid for every FCT row in this module.
QS = (0.5, 0.95, 0.99, 0.999)

#: Tight buffers: at 256-byte incast payloads the 8 KiB / 32-packet
#: budget overflows within the first fan-in burst, ECN marks from
#: 2 KiB and PFC pauses from 4 KiB.
CONGESTED_QUEUE = QueueConfig(
    capacity_bytes=8192,
    capacity_packets=32,
    ecn_threshold_bytes=2048,
    pause_threshold_bytes=4096,
)

#: The shared congested stage; variants below only change how the
#: attested flows move their evidence.
BASE = dict(
    k=4,
    bulk_flows=200,
    web_sessions=20,
    attested_packets=6,
    queue=CONGESTED_QUEUE,
    incast_fan_in=8,
    routing=RoutingMode.FLOWLET,
)

VARIANTS = (
    ("baseline", dict(attested_flows=0)),
    ("in-band", dict(attested_flows=4, oob_fraction=0.0)),
    ("out-of-band", dict(attested_flows=4, oob_fraction=1.0)),
    (
        "epoch-batched",
        dict(
            attested_flows=4,
            oob_fraction=1.0,
            batching=BatchingSpec(max_records=4, max_delay_s=50e-6),
        ),
    ),
)

# Variant results, shared between the timed test and the report test
# so the sweep is not paid twice.
_cache = {}


def _variant_shape(overrides):
    return FatTreeShape(**{**BASE, **overrides})


def _run_variant(name, overrides):
    gc.collect()
    start = time.perf_counter()
    result = run_fabric_traffic(
        _variant_shape(overrides), shards=2, seed=SEED
    )
    wall = time.perf_counter() - start

    stats = json.loads(result.result.stats_export())
    assert stats["queue_drops"] > 0, f"{name}: incast never overflowed"
    assert stats["ecn_marked"] > 0, f"{name}: ECN never marked"
    accepted, rejected = result.verdict_counts
    if overrides.get("attested_flows"):
        assert rejected == 0, f"{name}: verdict churn"
        if overrides.get("oob_fraction", 0.0) < 1.0:
            assert accepted > 0, f"{name}: no in-band verdicts"
        else:  # all evidence diverts: the collector is the appraiser
            assert result.oob_records > 0, f"{name}: no OOB records"
            assert result.oob_verified == result.oob_records, name
    return {
        "name": name,
        "result": result,
        "stats": stats,
        "wall": wall,
        "fct": result.fct_percentiles(QS),
    }


def test_fct_congestion_variants(benchmark):
    """Timed: the in-band congested campaign (evidence and data share
    the congested buffers — the canonical worst case)."""
    result = benchmark.pedantic(
        lambda: _run_variant("in-band", dict(VARIANTS)["in-band"]),
        rounds=1,
        iterations=1,
    )
    _cache["in-band"] = result
    pct = result["fct"]
    benchmark.extra_info["flows_completed"] = len(result["result"].fct_s)
    benchmark.extra_info["queue_drops"] = result["stats"]["queue_drops"]
    benchmark.extra_info["ecn_marked"] = result["stats"]["ecn_marked"]
    benchmark.extra_info["pause_frames"] = result["stats"]["pause_frames"]
    for label, value in pct.items():
        benchmark.extra_info[f"fct_{label}_us"] = round(value * 1e6, 2)


def test_fct_congestion_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    runs = []
    for name, overrides in VARIANTS:
        if name in _cache:
            runs.append(_cache[name])
        else:
            runs.append(_run_variant(name, overrides))

    baseline = next(r for r in runs if r["name"] == "baseline")
    rows = []
    for run in runs:
        pct = run["fct"]
        rows.append({
            "variant": run["name"],
            **{
                label: f"{value * 1e6:.1f}us"
                for label, value in pct.items()
            },
            "drops": run["stats"]["queue_drops"],
            "ecn": run["stats"]["ecn_marked"],
            "pauses": run["stats"]["pause_frames"],
            "flows": len(run["result"].fct_s),
        })

    summary = {
        "seed": SEED,
        "shape": {
            **{k: v for k, v in BASE.items() if isinstance(v, (int, str))},
            "routing": BASE["routing"].value,
            "queue": {
                "capacity_bytes": CONGESTED_QUEUE.capacity_bytes,
                "capacity_packets": CONGESTED_QUEUE.capacity_packets,
                "ecn_threshold_bytes": CONGESTED_QUEUE.ecn_threshold_bytes,
                "pause_threshold_bytes":
                    CONGESTED_QUEUE.pause_threshold_bytes,
            },
        },
        "variants": {
            run["name"]: {
                "fct_us": {
                    label: round(value * 1e6, 3)
                    for label, value in run["fct"].items()
                },
                "queue_drops": run["stats"]["queue_drops"],
                "ecn_marked": run["stats"]["ecn_marked"],
                "pause_frames": run["stats"]["pause_frames"],
                "flows_completed": len(run["result"].fct_s),
            }
            for run in runs
        },
    }
    _SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    base_p99 = baseline["fct"]["p99"]
    inband_p99 = next(
        r for r in runs if r["name"] == "in-band"
    )["fct"]["p99"]
    report(
        "Tail FCT under 8-way incast by attestation variant "
        f"(k=4 fat-tree, tight buffers, seed {SEED})",
        [
            *table(rows),
            "",
            f"in-band p99 vs baseline: {inband_p99 * 1e6:.1f}us vs "
            f"{base_p99 * 1e6:.1f}us "
            f"({(inband_p99 - base_p99) / base_p99:+.1%})",
        ],
    )


# ---------------------------------------------------------------------------
# Link-local recovery: corruption masked below the transport

#: The recovery stage: roomy default buffers (loss must come from the
#: corrupting hop, not tail-drop) and up to 8 local retransmits.
RECOVERY_QUEUE = QueueConfig(recovery=RecoveryConfig(retransmit_limit=8))

CORRUPT_RATE = 0.3
RECOVERY_SEED = 7


def _recovery_run(rate):
    gc.collect()
    start = time.perf_counter()
    result = run_fabric_traffic(
        FatTreeShape(queue=RECOVERY_QUEUE, corrupt_link_rate=rate),
        shards=2,
        seed=RECOVERY_SEED,
    )
    return result, time.perf_counter() - start


def test_fct_recovery_masks_corruption(benchmark):
    """Timed: the corrupted campaign with link-local recovery. The
    report row is the LinkGuardian claim: raw corruption pressure on
    the wire, zero effective loss end to end, and the resend latency
    each recovered flow actually paid."""
    dirty = benchmark.pedantic(
        lambda: _recovery_run(CORRUPT_RATE)[0], rounds=1, iterations=1
    )
    clean, _ = _recovery_run(0.0)

    stats = json.loads(dirty.result.stats_export())
    retransmits = stats["recovery_retransmits"]
    assert retransmits > 0, "the corrupting hop never fired"
    assert stats["queue_drops"] == 0

    # Zero verdict churn: recovery is invisible to the appraiser.
    assert dirty.verdicts == clean.verdicts
    accepted, rejected = dirty.verdict_counts
    assert accepted > 0 and rejected == 0

    # Effective end-to-end loss: flows that completed clean but not
    # dirty (none, with retransmit budget 8 against rate 0.3).
    lost_flows = set(clean.fct_s) - set(dirty.fct_s)
    effective_loss = len(lost_flows) / max(1, len(clean.fct_s))
    assert effective_loss == 0.0

    # Resend latency: the per-flow FCT delta against the clean run is
    # exactly what the local retransmits cost the transport.
    deltas = [
        dirty.fct_s[flow] - clean.fct_s[flow]
        for flow in clean.fct_s
        if dirty.fct_s[flow] > clean.fct_s[flow]
    ]
    slowed = len(deltas)
    mean_delta = sum(deltas) / slowed if slowed else 0.0
    max_delta = max(deltas) if deltas else 0.0

    benchmark.extra_info["corrupt_rate"] = CORRUPT_RATE
    benchmark.extra_info["recovery_retransmits"] = retransmits
    benchmark.extra_info["effective_loss_rate"] = effective_loss
    benchmark.extra_info["flows_slowed"] = slowed
    benchmark.extra_info["resend_latency_mean_us"] = round(
        mean_delta * 1e6, 3
    )
    benchmark.extra_info["resend_latency_max_us"] = round(
        max_delta * 1e6, 3
    )

    summary = {}
    if _SUMMARY_PATH.exists():
        summary = json.loads(_SUMMARY_PATH.read_text(encoding="utf-8"))
    summary["recovery"] = {
        "seed": RECOVERY_SEED,
        "corrupt_rate": CORRUPT_RATE,
        "retransmit_limit": RECOVERY_QUEUE.recovery.retransmit_limit,
        "recovery_retransmits": retransmits,
        "effective_loss_rate": effective_loss,
        "flows_slowed": slowed,
        "resend_latency_mean_us": round(mean_delta * 1e6, 3),
        "resend_latency_max_us": round(max_delta * 1e6, 3),
        "verdict_churn": dirty.verdicts != clean.verdicts,
    }
    _SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    report(
        f"Link-local recovery vs a {CORRUPT_RATE:.0%}-corrupting hop "
        f"(k=4 fat-tree, seed {RECOVERY_SEED})",
        [
            f"local retransmits: {retransmits}; "
            f"effective end-to-end loss: {effective_loss:.1%}",
            f"flows slowed: {slowed}/{len(clean.fct_s)}; resend latency "
            f"mean {mean_delta * 1e6:.2f}us, max {max_delta * 1e6:.2f}us",
            f"verdict churn vs clean run: "
            f"{'YES' if dirty.verdicts != clean.verdicts else 'none'}",
        ],
    )
