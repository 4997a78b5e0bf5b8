"""Packets/sec vs shard count on the ledger's k=4 fat-tree bulk campaign.

The sharded-core acceptance benchmark: the performance ledger's
``fabric_bulk`` inputs (k=4 fat-tree, 2000 bulk flows + 50 web
sessions, flowlet routing, seed 3) run under
:func:`~repro.core.fabric.run_fabric_traffic` at 1/2/4 shards, next to
one bare-event-loop row (the same
:func:`~repro.core.fabric.fabric_traffic_spec` built onto a plain
:class:`~repro.net.simulator.Simulator` right here: no windows, no
barriers, no merge — the event core's own speed). Pod–core uplinks are
the shard cut, so every cross-pod flow crosses it. The table records
two throughput numbers per row:

- **wall pkts/s** — forwarded packets over real elapsed time on *this*
  box. On a single-core runner every shard time-slices one CPU, so
  this column shows the coordination overhead, not the speedup.
- **critical-path pkts/s** — forwarded packets over ``max`` per-shard
  busy time (:attr:`~repro.net.shardrun.ShardedResult.critical_path_s`),
  the standard conservative-PDES capacity metric: what the wall clock
  converges to once each shard has its own core. The >=2x scaling gate
  asserts on this column, with ``cpu_count`` recorded alongside so the
  context is never implicit.

Busy time covers everything ``run_window`` does (exchange, pickling
and waiting for the slower shard excluded), so the critical path is
the residual serial fraction of the *simulation* work — the quantity
sharding exists to shrink. Every timing in this file, benchmark
``extra_info`` and report table alike, is reduced over its repeats by
:func:`_noise_floor`.

One more row runs the campaign at 1 and 2 shards *inline* and records
their wall ratio: with no pipe and no second process anywhere,
whatever 2 shards cost over 1 is the engine's own per-window work.
``check_regression.py`` gates that ratio.
"""

import gc
import os
import time

import pytest

from repro.core.fabric import (
    FatTreeShape,
    fabric_traffic_spec,
    run_fabric_traffic,
)
from repro.net.routing import RoutingMode
from repro.net.simulator import Simulator

from conftest import report, table

SHARD_COUNTS = (1, 2, 4)

#: Acceptance floor: critical-path throughput at 4 shards over 1 shard.
MIN_SCALING_X4 = 2.0

#: The ledger's ``fabric_bulk`` inputs (benchmarks/ledger/workloads.py).
BULK_SHAPE = FatTreeShape(
    k=4, bulk_flows=2000, web_sessions=50, attested_flows=0,
    routing=RoutingMode.FLOWLET, flowlet_n_packets=32,
)
BULK_SEED = 3

#: Repeats per config in the report table and the inline-ratio row;
#: best run wins. A single shot is fragile on a
#: shared 1-CPU runner (one GC pause or scheduler preemption lands
#: entirely inside one config's measurement).
ROUNDS = 3


def _noise_floor(seconds):
    """The one reduction over repeated timings: the minimum (each
    quantity taken independently, as is standard for noise-floor
    timing on a shared runner)."""
    return min(seconds)


def _bare_event_loop():
    """The campaign on one plain :class:`Simulator` heap.

    ``schedule_on``/``owns`` are identities there, so the spec's build
    and harvest run verbatim. Returns the harvest output.
    """
    spec = fabric_traffic_spec(BULK_SHAPE)
    sim = Simulator(spec.make_topology(), seed=BULK_SEED)
    ctx = spec.build(sim)
    sim.run(max_events=8_000_000)
    return spec.harvest(sim, ctx)


def _run(shards, backend="inline"):
    return run_fabric_traffic(
        BULK_SHAPE, seed=BULK_SEED, shards=shards, backend=backend,
        telemetry_active=False,
    )


def _timed(fn, rounds=ROUNDS):
    """Run ``fn`` ``rounds`` times; returns the list of
    ``(result, wall_s)`` samples for the caller to reduce with
    :func:`_noise_floor`."""
    samples = []
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        out = fn()
        samples.append((out, time.perf_counter() - start))
    return samples


def test_shard_scaling_monolith(benchmark):
    # Named for the committed baseline row in BENCH_results.json.
    output = benchmark(_bare_event_loop)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["packets"] = output["forwarded"]
    assert output["unroutable"] == 0


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_scaling_sharded(benchmark, shards):
    critical_paths = []

    def once():
        run = _run(shards)
        critical_paths.append(run.result.critical_path_s)
        return run

    result = benchmark(once)
    critical = _noise_floor(critical_paths)
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["packets"] = result.forwarded
    benchmark.extra_info["windows"] = result.result.windows
    benchmark.extra_info["critical_path_s"] = round(critical, 6)
    benchmark.extra_info["critical_pkts_per_s"] = round(
        result.forwarded / critical
    )
    assert result.unroutable == 0


def test_shard_scaling_fat_tree_bulk_inline(benchmark):
    """Timed: the 2-shard inline run; extra_info carries its wall over
    the identical 1-shard run (noise floor of each, interleaved so
    host drift hits both alike)."""
    walls = {1: [], 2: []}
    forwarded = set()
    for _ in range(ROUNDS):
        for shards in walls:
            [(result, wall)] = _timed(lambda: _run(shards), rounds=1)
            walls[shards].append(wall)
            forwarded.add(result.forwarded)
    assert len(forwarded) == 1, "shard count changed the campaign"
    floor = {shards: _noise_floor(walls[shards]) for shards in walls}
    ratio = floor[2] / floor[1]

    # The timed row re-runs the 2-shard configuration so its median
    # lands in BENCH_results.json for the regression gate.
    result = benchmark.pedantic(lambda: _run(2), rounds=1, iterations=1)
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

    rows = []
    samples = _timed(_bare_event_loop)
    forwarded = samples[0][0]["forwarded"]
    wall = _noise_floor(w for _, w in samples)
    rows.append({
        "config": "bare event loop",
        "windows": "-",
        "forwarded": forwarded,
        "wall s": round(wall, 3),
        "wall pkts/s": round(forwarded / wall),
        "critical s": round(wall, 3),
        "critical pkts/s": round(forwarded / wall),
    })

    def sharded_row(config, shards, backend):
        samples = _timed(lambda: _run(shards, backend))
        result = samples[0][0]
        wall = _noise_floor(w for _, w in samples)
        critical = _noise_floor(
            r.result.critical_path_s for r, _ in samples
        )
        rows.append({
            "config": config,
            "windows": result.result.windows,
            "forwarded": result.forwarded,
            "wall s": round(wall, 3),
            "wall pkts/s": round(result.forwarded / wall),
            "critical s": round(critical, 3),
            "critical pkts/s": round(result.forwarded / critical),
        })
        return result.forwarded / critical

    critical_rate = {
        shards: sharded_row(f"sharded x{shards} (inline)", shards, "inline")
        for shards in SHARD_COUNTS
    }
    sharded_row("sharded x2 (mp)", 2, "mp")

    scaling = critical_rate[4] / critical_rate[1]
    report(
        f"Shard scaling, k={BULK_SHAPE.k} fat-tree bulk "
        f"({BULK_SHAPE.switch_count} switches, {BULK_SHAPE.host_count} "
        f"hosts, {forwarded} forwarded pkts, seed {BULK_SEED}, "
        f"cpu_count={os.cpu_count()})",
        [
            *table(rows),
            "",
            f"critical-path scaling at 4 shards: {scaling:.2f}x "
            f"(gate: >={MIN_SCALING_X4}x)",
        ],
    )

    # Every config forwards the same campaign.
    assert len({row["forwarded"] for row in rows}) == 1
    # The acceptance gate: the slowest shard at x4 carries less than
    # half the work a single shard carries.
    assert scaling >= MIN_SCALING_X4
