"""Benchmark regression gate.

Compares a fresh ``BENCH_results.json`` against a committed baseline
and fails (exit 1) when any watched benchmark's median slowed down by
more than the threshold (default 25%). Watched benchmarks are the
hot-path suites the repository makes throughput claims about:
``bench_fig3_pipeline``, ``bench_substrate_crypto``, the sharded
event-core scaling run ``bench_shard_scaling`` (the ledger's k=4
fat-tree ``fabric_bulk`` inputs at 1/2/4 shards), the million-packet
fat-tree campaign ``bench_fabric_traffic``, and the congested
tail-FCT campaign ``bench_fct_congestion``.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        [--threshold 0.25] [--min-median-us 10]

Benchmarks present in only one file are reported but never fail the
gate (new benchmarks must be able to land; retired ones to leave).
Medians below ``--min-median-us`` are skipped: sub-10µs no-op anchors
(the ``*_report`` table tests) and cache-hit micro-ops jitter far more
than 25% on shared CI runners and carry no regression signal.

The gate also enforces two same-machine budgets recorded in the
*fresh* file's extra-info; both are absolute, not baseline-relative:

- the flight-recorder cost: any ``sampling_overhead_frac``
  (``bench_fabric_traffic``'s overhead test) must stay below
  ``--max-sampling-overhead`` (default 0.03 — docs/MONITORING.md's <3%
  promise);
- the shard engine's tax: any ``inline_x2_over_x1_wall``
  (``bench_shard_scaling``'s inline-ratio row: 2 shards over 1, both
  in one process) must stay at or below
  :data:`MAX_INLINE_X2_OVER_X1_WALL` (the engine reads ~1.1–1.25;
  docs/SHARDING.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

WATCHED_MODULES = (
    "bench_fig3_pipeline",
    "bench_substrate_crypto",
    "bench_shard_scaling",
    "bench_fabric_traffic",
    "bench_fct_congestion",
)

#: Ceiling on 2-shard inline wall over 1-shard inline wall, same
#: inputs, same process: what the window engine itself may cost.
MAX_INLINE_X2_OVER_X1_WALL = 1.5


def load_medians(path: str) -> Dict[str, float]:
    """Map fullname -> median seconds for the watched benchmarks."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    medians: Dict[str, float] = {}
    for bench in document.get("benchmarks", []):
        fullname = bench.get("fullname", bench.get("name", ""))
        if not any(module in fullname for module in WATCHED_MODULES):
            continue
        median = bench.get("stats", {}).get("median")
        if isinstance(median, (int, float)):
            medians[fullname] = float(median)
    return medians


def load_extra_info(path: str, key: str) -> Dict[str, float]:
    """Map fullname -> the numeric extra-info value ``key``, where
    a benchmark recorded one."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[str, float] = {}
    for bench in document.get("benchmarks", []):
        fullname = bench.get("fullname", bench.get("name", ""))
        value = bench.get("extra_info", {}).get(key)
        if isinstance(value, (int, float)):
            values[fullname] = float(value)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_results.json")
    parser.add_argument("fresh", help="freshly generated BENCH_results.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated slowdown fraction (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-median-us",
        type=float,
        default=10.0,
        help="skip benchmarks whose baseline median is below this (µs)",
    )
    parser.add_argument(
        "--max-sampling-overhead",
        type=float,
        default=0.03,
        help="maximum tolerated flight-recorder sampling overhead "
        "fraction recorded in the fresh run (default 0.03 = 3%%)",
    )
    args = parser.parse_args(argv)

    baseline = load_medians(args.baseline)
    fresh = load_medians(args.fresh)
    if not baseline:
        print(f"no watched benchmarks in baseline {args.baseline}")

    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in fresh:
            print(f"SKIP  {name}: not in fresh run")
            continue
        if base * 1e6 < args.min_median_us:
            print(f"SKIP  {name}: baseline median {base * 1e6:.2f}µs below floor")
            continue
        current = fresh[name]
        change = (current - base) / base
        status = "FAIL" if change > args.threshold else "ok"
        print(
            f"{status:4}  {name}: {base * 1e6:.1f}µs -> {current * 1e6:.1f}µs "
            f"({change:+.1%})"
        )
        if change > args.threshold:
            failures.append((name, change))
    for name in sorted(set(fresh) - set(baseline)):
        print(f"NEW   {name}: {fresh[name] * 1e6:.1f}µs (no baseline)")

    overheads = load_extra_info(args.fresh, "sampling_overhead_frac")
    for name, overhead in sorted(overheads.items()):
        over = overhead >= args.max_sampling_overhead
        status = "FAIL" if over else "ok"
        print(
            f"{status:4}  {name}: sampling overhead {overhead:+.2%} "
            f"(gate: <{args.max_sampling_overhead:.0%})"
        )
        if over:
            failures.append((name, overhead))

    ratios = load_extra_info(args.fresh, "inline_x2_over_x1_wall")
    for name, ratio in sorted(ratios.items()):
        over = ratio > MAX_INLINE_X2_OVER_X1_WALL
        status = "FAIL" if over else "ok"
        print(
            f"{status:4}  {name}: 2 shards inline cost {ratio:.2f}x of 1 "
            f"(gate: <={MAX_INLINE_X2_OVER_X1_WALL})"
        )
        if over:
            failures.append((name, ratio))

    if failures:
        print(f"\n{len(failures)} benchmark gate failure(s)")
        return 1
    print("\nno benchmark regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
