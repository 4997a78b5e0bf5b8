"""Million-packet attested traffic campaign on a 125-switch fat-tree.

The flow-level engine acceptance benchmark: a k=10 fat-tree (100 edge
+ aggregation switches in 10 pods, 25 cores, 100 hosts) carries a
seeded heavy-tailed datacenter mix — ~16k elephant/mice flows plus
web request/response sessions on the flowlet-routed fast path, and
eight attested flows riding compiled AP1 path policies (half in-band,
half diverting evidence out-of-band to the collector) through the
full PISA+PERA pipeline with stateless ECMP selection.

The timed row is the 4-shard multiprocessing run; the report then
replays the identical campaign on 1 shard inline and asserts the
merged SimStats and audit journals are byte-identical — the
determinism contract of docs/SHARDING.md at million-packet scale.
Flow completion time percentiles, ECMP load spread, and appraisal
verdict counts land in the report table and in ``FABRIC_summary.json``
for CI artifact upload.
"""

import gc
import json
import os
import pathlib
import time

from repro.core.fabric import (
    FatTreeShape,
    fabric_sampling_spec,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.net.routing import RoutingMode
from repro.telemetry import run_bundle, write_run

from conftest import report, table

_SUMMARY_PATH = pathlib.Path(__file__).parent / "FABRIC_summary.json"
_RUN_PATH = pathlib.Path(__file__).parent / "FABRIC_RUN.json"

SEED = 20260807

# 125 switches, 100 hosts; ~16k flows push >1e6 switch forwardings.
SHAPE = FatTreeShape(
    k=10,
    hosts_per_edge=2,
    bulk_flows=16_000,
    web_sessions=400,
    attested_flows=8,
    attested_packets=8,
    elephant_packets=(64, 192),
    arrival_rate_per_s=2_000_000.0,
    routing=RoutingMode.FLOWLET,
    # Cap flowlets at 32 packets: with 2us intra-flow pacing the idle
    # gap never expires, so the budget is what rotates an elephant's
    # 64-192 packet burst across uplinks instead of pinning it.
    flowlet_n_packets=32,
)

#: Acceptance floor: switch-level forwarding events in one campaign.
MIN_FORWARDED = 1_000_000

#: Worst tolerated per-switch max/mean multipath spread (1.0 = even).
MAX_IMBALANCE = 1.5
#: Switches with fewer multipath picks than this are spread noise.
IMBALANCE_MIN_SAMPLES = 500

# The timed 4-shard result, reused by the report test so the
# million-packet campaign is not re-run a third time.
_cache = {}


def _run(shards, backend):
    gc.collect()
    start = time.perf_counter()
    result = run_fabric_traffic(
        SHAPE,
        shards=shards,
        backend=backend,
        seed=SEED,
        telemetry_active=False,
    )
    return result, time.perf_counter() - start


def _check(result):
    """The acceptance gates every configuration must clear."""
    assert result.forwarded >= MIN_FORWARDED
    assert result.unroutable == 0
    assert result.ecmp_imbalance(IMBALANCE_MIN_SAMPLES) <= MAX_IMBALANCE
    accepted, rejected = result.verdict_counts
    assert rejected == 0 and accepted > 0
    assert result.oob_records > 0
    assert result.oob_verified == result.oob_records


def test_fabric_traffic_campaign(benchmark):
    """Timed: the 4-shard mp campaign end to end (one round — the
    run is minutes long; medians over repeats buy nothing here)."""
    result = benchmark.pedantic(
        lambda: _run(4, "mp")[0], rounds=1, iterations=1
    )
    _cache["mp4"] = result
    _check(result)
    pct = result.fct_percentiles()
    accepted, rejected = result.verdict_counts
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["switches"] = SHAPE.switch_count
    benchmark.extra_info["forwarded"] = result.forwarded
    benchmark.extra_info["flows_completed"] = len(result.fct_s)
    benchmark.extra_info["fct_p50_us"] = round(pct["p50"] * 1e6, 2)
    benchmark.extra_info["fct_p99_us"] = round(pct["p99"] * 1e6, 2)
    benchmark.extra_info["ecmp_imbalance"] = round(
        result.ecmp_imbalance(IMBALANCE_MIN_SAMPLES), 4
    )
    benchmark.extra_info["verdicts_accepted"] = accepted
    benchmark.extra_info["verdicts_rejected"] = rejected
    benchmark.extra_info["oob_verified"] = result.oob_verified
    benchmark.extra_info["windows"] = result.result.windows
    benchmark.extra_info["critical_path_s"] = round(
        result.result.critical_path_s, 3
    )


def test_fabric_traffic_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    if "mp4" in _cache:
        four, wall4 = _cache["mp4"], None
    else:  # report test ran alone: pay for the campaign here
        four, wall4 = _run(4, "mp")
    one, wall1 = _run(1, "inline")
    _check(four)
    _check(one)

    # The determinism contract at full scale: shard count must not
    # change a byte of the merged stats or the audit ordering.
    identical = (
        one.result.stats_export() == four.result.stats_export()
        and one.result.audit_export() == four.result.audit_export()
    )
    assert identical, "1-shard and 4-shard campaigns diverged"
    assert one.fct_s == four.fct_s
    assert one.verdicts == four.verdicts
    assert one.tx_by_port == four.tx_by_port

    pct = four.fct_percentiles()
    accepted, rejected = four.verdict_counts
    imbalance = four.ecmp_imbalance(IMBALANCE_MIN_SAMPLES)
    rows = []
    for config, result, wall in (
        ("sharded x4 (mp)", four, wall4),
        ("sharded x1 (inline)", one, wall1),
    ):
        rows.append({
            "config": config,
            "forwarded": result.forwarded,
            "flows done": len(result.fct_s),
            "wall s": "-" if wall is None else round(wall, 1),
            "windows": result.result.windows,
            "critical s": round(result.result.critical_path_s, 1),
        })

    summary = {
        "seed": SEED,
        "shape": {
            "k": SHAPE.k,
            "switches": SHAPE.switch_count,
            "hosts": SHAPE.host_count,
            "bulk_flows": SHAPE.bulk_flows,
            "web_sessions": SHAPE.web_sessions,
            "attested_flows": SHAPE.attested_flows,
            "routing": SHAPE.routing.value,
        },
        "forwarded": four.forwarded,
        "attested_hops": four.attested_hops,
        "flows_completed": len(four.fct_s),
        "fct_us": {k: round(v * 1e6, 3) for k, v in pct.items()},
        "ecmp_imbalance": round(imbalance, 4),
        "verdicts": {"accepted": accepted, "rejected": rejected},
        "oob": {
            "records": four.oob_records,
            "verified": four.oob_verified,
        },
        "determinism_x1_vs_x4": identical,
    }
    with _SUMMARY_PATH.open("w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report(
        f"Fat-tree attested traffic, {SHAPE.switch_count} switches "
        f"({SHAPE.host_count} hosts, seed {SEED}, "
        f"cpu_count={os.cpu_count()})",
        [
            *table(rows),
            "",
            f"FCT p50/p95/p99 us: {round(pct['p50'] * 1e6, 1)} / "
            f"{round(pct['p95'] * 1e6, 1)} / {round(pct['p99'] * 1e6, 1)}",
            f"ECMP spread (worst max/mean): {imbalance:.3f} "
            f"(gate: <={MAX_IMBALANCE})",
            f"verdicts: {accepted} accepted, {rejected} rejected; "
            f"out-of-band: {four.oob_verified}/{four.oob_records} verified",
            f"x1 vs x4 byte-identical journals: {identical}",
        ],
    )


# ---------------------------------------------------------------------------
# Flight-recorder sampling overhead (docs/MONITORING.md)

# A mid-size shape: ~66k forwardings, big enough that per-run wall
# time (~1.5s) dwarfs timer noise, small enough to run six times.
OVERHEAD_SHAPE = FatTreeShape(bulk_flows=1_200, web_sessions=60)

#: Sampling must cost <3% (docs/MONITORING.md); asserted below.
MAX_SAMPLING_OVERHEAD = 0.03

OVERHEAD_ROUNDS = 3


def _timed_overhead_run(sampling):
    gc.collect()
    start = time.perf_counter()
    result = run_fabric_traffic(
        OVERHEAD_SHAPE,
        shards=1,
        backend="inline",
        seed=SEED,
        telemetry_active=True,
        sampling=sampling,
    )
    return result, time.perf_counter() - start


def test_fabric_sampling_overhead(benchmark):
    """Timed: the first round's sampled campaign; asserts the overhead
    fraction vs the identical unsampled run (min-of-N each,
    interleaved so drift hits both configurations alike)."""
    off_s, on_s = [], []
    for round_ in range(OVERHEAD_ROUNDS):
        base, wall_off = _timed_overhead_run(None)
        if round_ == 0:
            sampled, wall_on = benchmark.pedantic(
                _timed_overhead_run,
                args=(fabric_sampling_spec(),),
                rounds=1,
                iterations=1,
            )
        else:
            sampled, wall_on = _timed_overhead_run(fabric_sampling_spec())
        off_s.append(wall_off)
        on_s.append(wall_on)
        # Sampling must not perturb the campaign itself.
        assert sampled.forwarded == base.forwarded
        assert sampled.fct_s == base.fct_s
    overhead = (min(on_s) - min(off_s)) / min(off_s)
    frames = len(sampled.frames)
    assert frames, "sampling produced no frames"
    benchmark.extra_info["sampling_overhead_frac"] = round(overhead, 4)
    benchmark.extra_info["sampling_interval_us"] = round(
        fabric_sampling_spec().interval_s * 1e6, 1
    )
    benchmark.extra_info["frames"] = frames
    benchmark.extra_info["forwarded"] = sampled.forwarded

    # The CI artifact: the same campaign once more under the standard
    # health rules, written as its repro.run/v1 bundle (rendered by
    # `python -m repro.telemetry.report timeline|health|chrome`).
    monitored = run_fabric_traffic(
        OVERHEAD_SHAPE,
        shards=1,
        backend="inline",
        seed=SEED,
        telemetry_active=True,
        health=standard_fabric_rules(),
    )
    write_run(
        run_bundle(monitored.result.telemetry, monitored.result, monitored.health),
        _RUN_PATH,
    )

    report(
        "Flight-recorder sampling overhead "
        f"({OVERHEAD_SHAPE.switch_count} switches, seed {SEED})",
        [
            f"unsampled best-of-{OVERHEAD_ROUNDS}: {min(off_s):.3f}s; "
            f"sampled: {min(on_s):.3f}s",
            f"overhead: {overhead:+.2%} (gate: <{MAX_SAMPLING_OVERHEAD:.0%})",
            f"frames: {frames} at "
            f"{fabric_sampling_spec().interval_s * 1e6:.0f}us cadence; "
            f"health alerts: {len(monitored.health.alerts)}",
        ],
    )
    assert overhead < MAX_SAMPLING_OVERHEAD
