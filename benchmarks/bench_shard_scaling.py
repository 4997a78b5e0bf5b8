"""Packets/sec vs shard count on a 104-switch leaf–spine fabric.

The sharded-core acceptance benchmark: the fabric workload
(:mod:`repro.core.fabric` — 100 leaves x 4 spines, 200 hosts, every
flow crossing the spine cut) runs under
:func:`~repro.core.fabric.run_fabric` at 1/2/4 shards, next to one
bare-event-loop row (the same :func:`~repro.core.fabric.fabric_spec`
built onto a plain :class:`~repro.net.simulator.Simulator` right here:
no windows, no barriers, no merge — the event core's own speed). The
table records two throughput numbers per row:

- **wall pkts/s** — packets over real elapsed time on *this* box. On a
  single-core runner every shard time-slices one CPU, so this column
  shows the coordination overhead, not the speedup.
- **critical-path pkts/s** — packets over ``max`` per-shard busy time
  (:attr:`~repro.net.shardrun.ShardedResult.critical_path_s`), the
  standard conservative-PDES capacity metric: what the wall clock
  converges to once each shard has its own core. The >=2x scaling gate
  asserts on this column, with ``cpu_count`` recorded alongside so the
  context is never implicit.

Busy time covers everything ``run_window`` does (exchange, pickling
and waiting for the slower shard excluded), so the critical path is
the residual serial fraction of the *simulation* work — the quantity
sharding exists to shrink. Every timing in this file, benchmark
``extra_info`` and report table alike, is reduced over its repeats by
:func:`_noise_floor`.

One more row runs the performance ledger's ``fabric_bulk`` shape (k=4
fat-tree, 2000 bulk flows + 50 web sessions, ~25k events parked at
build time) at 1 and 2 shards *inline* and records their wall ratio:
with no pipe and no second process anywhere, whatever 2 shards cost
over 1 is the engine's own per-window work. ``check_regression.py``
gates that ratio.
"""

import gc
import os
import time

import pytest

from repro.core.fabric import (
    FabricShape,
    FatTreeShape,
    fabric_spec,
    run_fabric,
    run_fabric_traffic,
)
from repro.net.routing import RoutingMode
from repro.net.simulator import Simulator

from conftest import report, table

# 104 switches, 200 hosts, 2000 offered packets, all cross-spine.
SHAPE = FabricShape(leaves=100, spines=4, hosts_per_leaf=2, flows_per_host=10)
SHARD_COUNTS = (1, 2, 4)

#: Acceptance floor: critical-path throughput at 4 shards over 1 shard.
MIN_SCALING_X4 = 2.0

#: The ledger's ``fabric_bulk`` inputs (benchmarks/ledger/workloads.py).
BULK_SHAPE = FatTreeShape(
    k=4, bulk_flows=2000, web_sessions=50, attested_flows=0,
    routing=RoutingMode.FLOWLET, flowlet_n_packets=32,
)
BULK_SEED = 3

#: Repeats per config in the report table; best run wins. A single
#: shot is fragile on a shared 1-CPU runner (one GC pause or scheduler
#: preemption lands entirely inside one config's measurement).
ROUNDS = 3


def _noise_floor(seconds):
    """The one reduction over repeated timings: the minimum (each
    quantity taken independently, as is standard for noise-floor
    timing on a shared runner)."""
    return min(seconds)


def _bare_event_loop():
    """The fabric workload on one plain :class:`Simulator` heap.

    ``schedule_on``/``owns`` are identities there, so the spec's build
    and harvest run verbatim. Returns ``(sim, packets_delivered)``.
    """
    spec = fabric_spec(SHAPE)
    sim = Simulator(spec.make_topology())
    ctx = spec.build(sim)
    sim.run()
    return sim, spec.harvest(sim, ctx)["delivered"]


def _timed(fn):
    """Run ``fn`` :data:`ROUNDS` times; returns the list of
    ``(result, wall_s)`` samples for the caller to reduce with
    :func:`_noise_floor`."""
    samples = []
    for _ in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        out = fn()
        samples.append((out, time.perf_counter() - start))
    return samples


def _warmup():
    """Pay first-call costs (imports, table builds) off the clock so
    they don't land on whichever measured row runs first."""
    run_fabric(
        FabricShape(leaves=4, spines=2, hosts_per_leaf=1, flows_per_host=1),
        shards=2,
        telemetry_active=False,
    )


def test_shard_scaling_monolith(benchmark):
    # Named for the committed baseline row in BENCH_results.json.
    sim, delivered = benchmark(_bare_event_loop)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["packets"] = sim.stats.packets_transmitted
    assert delivered == SHAPE.packets_offered


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_scaling_sharded(benchmark, shards):
    critical_paths = []

    def once():
        run = run_fabric(SHAPE, shards=shards, telemetry_active=False)
        critical_paths.append(run.result.critical_path_s)
        return run

    result = benchmark(once)
    critical = _noise_floor(critical_paths)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["packets"] = result.packets_transmitted
    benchmark.extra_info["windows"] = result.result.windows
    benchmark.extra_info["critical_path_s"] = round(critical, 6)
    benchmark.extra_info["critical_pkts_per_s"] = round(
        result.packets_transmitted / critical
    )
    assert result.delivered == SHAPE.packets_offered


def _timed_bulk_run(shards):
    gc.collect()
    start = time.perf_counter()
    result = run_fabric_traffic(
        BULK_SHAPE, seed=BULK_SEED, shards=shards, telemetry_active=False
    )
    return result, time.perf_counter() - start


def test_shard_scaling_fat_tree_bulk_inline(benchmark):
    """Timed: the 2-shard inline run; extra_info carries its wall over
    the identical 1-shard run (noise floor of each, interleaved so
    host drift hits both alike)."""
    walls = {1: [], 2: []}
    forwarded = set()
    for _ in range(ROUNDS):
        for shards in walls:
            result, wall = _timed_bulk_run(shards)
            walls[shards].append(wall)
            forwarded.add(result.forwarded)
    assert len(forwarded) == 1, "shard count changed the campaign"
    floor = {shards: _noise_floor(walls[shards]) for shards in walls}
    ratio = floor[2] / floor[1]

    # The timed row re-runs the 2-shard configuration so its median
    # lands in BENCH_results.json for the regression gate.
    result = benchmark.pedantic(
        lambda: _timed_bulk_run(2)[0], rounds=1, iterations=1
    )
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["packets"] = result.forwarded
    benchmark.extra_info["windows"] = result.result.windows
    benchmark.extra_info["inline_x1_wall_s"] = round(floor[1], 4)
    benchmark.extra_info["inline_x2_wall_s"] = round(floor[2], 4)
    benchmark.extra_info["inline_x2_over_x1_wall"] = round(ratio, 3)
    rows = [
        {
            "config": f"sharded x{shards} (inline)",
            "wall s": round(floor[shards], 3),
            "wall pkts/s": round(result.forwarded / floor[shards]),
        }
        for shards in walls
    ]
    report(
        f"Shard engine tax, k={BULK_SHAPE.k} fat-tree bulk "
        f"({result.forwarded} forwarded pkts, seed {BULK_SEED}, "
        f"cpu_count={os.cpu_count()})",
        [*table(rows), "", f"inline x2 over x1 wall: {ratio:.2f}"],
    )


def test_shard_scaling_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _warmup()

    rows = []
    samples = _timed(_bare_event_loop)
    (sim, delivered), _ = samples[0]
    wall = _noise_floor(w for _, w in samples)
    packets = sim.stats.packets_transmitted
    rows.append({
        "config": "bare event loop",
        "windows": "-",
        "delivered": delivered,
        "wall s": round(wall, 3),
        "wall pkts/s": round(packets / wall),
        "critical s": round(wall, 3),
        "critical pkts/s": round(packets / wall),
    })

    def sharded_row(config, shards, backend):
        samples = _timed(lambda: run_fabric(
            SHAPE, shards=shards, backend=backend, telemetry_active=False
        ))
        result = samples[0][0]
        wall = _noise_floor(w for _, w in samples)
        critical = _noise_floor(
            r.result.critical_path_s for r, _ in samples
        )
        packets = result.packets_transmitted
        rows.append({
            "config": config,
            "windows": result.result.windows,
            "delivered": result.delivered,
            "wall s": round(wall, 3),
            "wall pkts/s": round(packets / wall),
            "critical s": round(critical, 3),
            "critical pkts/s": round(packets / critical),
        })
        return packets / critical

    critical_rate = {
        shards: sharded_row(f"sharded x{shards} (inline)", shards, "inline")
        for shards in SHARD_COUNTS
    }
    sharded_row("sharded x2 (mp)", 2, "mp")

    scaling = critical_rate[4] / critical_rate[1]
    report(
        f"Shard scaling, {SHAPE.switch_count}-switch leaf-spine fabric "
        f"({SHAPE.host_count} hosts, {SHAPE.packets_offered} pkts, "
        f"cpu_count={os.cpu_count()})",
        [
            *table(rows),
            "",
            f"critical-path scaling at 4 shards: {scaling:.2f}x "
            f"(gate: >={MIN_SCALING_X4}x)",
        ],
    )

    # Every config delivers the full offered load.
    assert all(row["delivered"] == SHAPE.packets_offered for row in rows)
    # The acceptance gate: the slowest shard at x4 carries less than
    # half the work a single shard carries.
    assert scaling >= MIN_SCALING_X4
