"""One workload, one process: set up, repeat, optionally trace, report.

``run.py`` starts this file as a fresh subprocess per workload so no
import, cache or allocator state leaks between workloads. The worker
prints exactly one JSON document on its last stdout line.

``setup_s`` runs from the moment the parent spawned the interpreter
(``--spawned-at``, a ``time.monotonic()`` reading — the clock is shared
by every process on the host) to the moment the first repeat may start:
interpreter start, imports, the Ed25519 table warm-up and input
generation are all in it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.evidence.verify import shared_cache  # noqa: E402


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped
    (the ``mp`` shard workers), in MB; Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cold(run):
    """Call ``run`` (a workload's ``run`` or one of its twins) cold.

    A repeat that finds the last repeat's verdicts in the process-global
    verify cache measures a different program, so the cache is emptied
    (its hit/miss counters with it) and the heap collected first.
    """
    shared_cache.clear()
    gc.collect()
    if len(shared_cache):
        raise RuntimeError("shared verify cache not empty after clear()")
    started = time.perf_counter()
    repeat = run()
    if repeat is not None:
        repeat.total_s = time.perf_counter() - started
    return repeat


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: tracing.Tracer,
    repeat: workloads.Repeat,
    untraced_s: float,
    telemetry_overhead: float,
) -> dict:
    """The per-layer metrics BENCHMARK.json declares, by name.

    ``*.self_s`` is span time minus child spans; a bare ``*_s`` is the
    span's inclusive time. Counts come off the wrappers' arguments and
    results or off public result fields (``repeat.facts``).
    """
    facts = repeat.facts
    counts = spans.counts
    net_self = spans.self_s("net", exclude=("net.qdisc",))
    events = facts.get("net.events", 0)
    windows = facts.get("net.shard.windows", 0)
    critical = facts.get("net.shard.critical_path_s", 0.0)
    sync = max(repeat.walls.get("run", 0.0) - critical, 0.0)
    pisa_packets = spans.calls("pisa.pipeline")
    pisa_self = spans.self_s("pisa")
    hops = spans.calls("pera.produce")
    switches = list(spans.seen.get("switches", {}).values())
    cache_hits = counts.get("pera.cache_hits", 0)
    cache_lookups = cache_hits + counts.get("pera.cache_misses", 0)
    epochs = counts.get("pera.epochs_sealed", 0)
    sign_calls = spans.calls("crypto.sign")
    sign_self = spans.self_s("crypto.sign")
    batch_calls = spans.calls("crypto.verify_batch")
    batch_sigs = counts.get("crypto.verify_batch.sigs", 0)
    # Untouched since the traced repeat, which began from clear().
    hits = shared_cache.stats.hits
    misses = shared_cache.stats.misses
    rejects = spans.samples.get("core.reject_s", [])
    return {
        "net.events": events,
        "net.self_s": net_self,
        "net.us_per_event": _ratio(net_self, events) * 1e6,
        "net.qdisc.offers": spans.calls("net.qdisc.offer"),
        "net.qdisc.self_s": spans.self_s("net.qdisc"),
        "net.qdisc.drops": facts.get("net.qdisc.drops", 0),
        "net.qdisc.ecn_marks": facts.get("net.qdisc.ecn_marks", 0),
        "net.qdisc.pauses": facts.get("net.qdisc.pauses", 0),
        "net.shard.windows": windows,
        "net.shard.critical_path_s": critical,
        "net.shard.busy_sum_s": facts.get("net.shard.busy_sum_s", 0.0),
        "net.shard.sync_s": sync,
        "net.shard.us_per_window": _ratio(sync, windows) * 1e6,
        "net.sim.fct_p50_us": facts.get("net.sim.fct_p50_us", 0.0),
        "net.sim.fct_p99_us": facts.get("net.sim.fct_p99_us", 0.0),
        "net.sim.fct_p999_us": facts.get("net.sim.fct_p999_us", 0.0),
        "workload.flows": facts.get("workload.flows", 0),
        "workload.gen_s": spans.inclusive_s("workload.gen"),
        "workload.launch_s": spans.inclusive_s("workload.launch"),
        "pisa.packets": pisa_packets,
        "pisa.self_s": pisa_self,
        "pisa.us_per_pkt": _ratio(pisa_self, pisa_packets) * 1e6,
        "pisa.cost_units_per_pkt": _ratio(
            counts.get("pisa.cost_units", 0.0), pisa_packets
        ),
        "pera.hops": hops,
        "pera.self_s": spans.self_s("pera"),
        "pera.measure_s": spans.inclusive_s("pera.measure"),
        "pera.cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "pera.signatures": sum(
            switch.ra_stats.signatures_produced for switch in switches
        ),
        "pera.epochs_sealed": epochs,
        "pera.records_per_epoch": _ratio(
            counts.get("pera.records_batched", 0), epochs
        ),
        "pera.ra_cost_units_per_pkt": _ratio(
            sum(switch.ra_cost for switch in switches), hops
        ),
        "crypto.sign.calls": sign_calls,
        "crypto.sign.self_s": sign_self,
        "crypto.sign.us_per_call": _ratio(sign_self, sign_calls) * 1e6,
        "crypto.verify.calls": spans.calls("crypto.verify"),
        "crypto.verify.self_s": spans.self_s("crypto.verify"),
        "crypto.verify_batch.calls": batch_calls,
        "crypto.verify_batch.sigs": batch_sigs,
        "crypto.verify_batch.mean_batch": _ratio(batch_sigs, batch_calls),
        "crypto.verify_batch.self_s": spans.self_s("crypto.verify_batch"),
        # Inclusive: a failing batch bisects down to single verifies.
        "crypto.verify_batch.us_per_sig": _ratio(
            spans.inclusive_s("crypto.verify_batch"), batch_sigs
        ) * 1e6,
        "crypto.hash.calls": (
            spans.calls("crypto.hash.digest") + spans.calls("crypto.hash.chain")
        ),
        "crypto.hash.self_s": spans.self_s("crypto.hash"),
        "crypto.merkle.builds": spans.calls("crypto.merkle.build"),
        "crypto.merkle.self_s": spans.self_s("crypto.merkle"),
        "evidence.encode.calls": counts.get("evidence.encode.calls", 0),
        "evidence.encode.bytes": counts.get("evidence.encode.bytes", 0),
        "evidence.encode.self_s": spans.self_s("evidence.encode"),
        "evidence.decode.calls": counts.get("evidence.decode.calls", 0),
        "evidence.decode.bytes": counts.get("evidence.decode.bytes", 0),
        "evidence.decode.self_s": spans.self_s("evidence.decode"),
        "evidence.verify_cache.hits": hits,
        "evidence.verify_cache.misses": misses,
        "evidence.verify_cache.hit_ratio": _ratio(hits, hits + misses),
        "core.appraise.calls": counts.get("core.appraise.calls", 0),
        "core.appraise.self_s": spans.self_s("core.appraise"),
        "core.appraise.accepted": counts.get("core.appraise.accepted", 0),
        "core.appraise.rejected": counts.get("core.appraise.rejected", 0),
        "core.reject_p50_us": (
            statistics.median(rejects) * 1e6 if rejects else 0.0
        ),
        "core.compile.self_s": spans.self_s("core.compile"),
        "core.build_s": spans.inclusive_s("core.build"),
        "core.harvest_s": spans.inclusive_s("core.harvest"),
        "telemetry.audit_events": facts.get("telemetry.audit_events", 0),
        "telemetry.frames": facts.get("telemetry.frames", 0),
        "telemetry.health_s": spans.inclusive_s("telemetry.health"),
        "telemetry.overhead_frac": telemetry_overhead,
        "ledger.coverage_frac": _ratio(spans.covered_s, repeat.total_s),
        "ledger.trace_overhead_frac": _ratio(repeat.total_s, untraced_s) - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--passes", choices=("untraced", "traced", "both"),
                        default="untraced")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workloads.warm_up()
    workload = workloads.build(args.workload)
    workload.setup(args.seed, args.scale)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The traced pass needs one untraced repeat of its own: it is the
    # base of the tracing overhead and the signature the traced repeat
    # must reproduce. Only the untraced pass is time-budgeted.
    budget = args.seconds if args.passes != "traced" else 0.0
    repeats = []
    began = time.perf_counter()
    while True:
        repeats.append(_cold(workload.run))
        if args.repeats:
            if len(repeats) >= args.repeats:
                break
        elif time.perf_counter() - began >= budget:
            break
    peak_rss_mb = _peak_rss_mb()

    failures = [f for repeat in repeats for f in repeat.failures]
    attempted = sum(repeat.attempted for repeat in repeats)
    signature = repeats[0].signature
    for index, repeat in enumerate(repeats[1:], start=1):
        attempted += 1
        if repeat.signature != signature:
            failures.append(f"sim_signature of repeat {index} differs")

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": len(repeats),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "headline": workload.headline,
        "native": workload.metrics(repeats),
        "sim_signature": signature,
        "walls": [repeat.walls for repeat in repeats],
    }

    if args.passes != "untraced":
        untraced_s = repeats[-1].total_s
        telemetry_overhead = 0.0
        quiet = _cold(workload.without_telemetry)
        if quiet is not None:
            telemetry_overhead = _ratio(
                repeats[-1].walls["run"], quiet.walls["run"]
            ) - 1.0
        spans = tracing.Tracer()
        tracing.install(spans)
        try:
            traced = _cold(workload.run)
        finally:
            spans.uninstall()
        attempted += traced.attempted + 1
        failures.extend(f"traced: {f}" for f in traced.failures)
        if traced.signature != signature:
            failures.append("sim_signature of the traced repeat differs")
        document["per_layer"] = layer_metrics(
            spans, traced, untraced_s, telemetry_overhead
        )
        document["spans"] = spans.table()
        document["traced_s"] = traced.total_s

    reference = _cold(workload.reference)
    if reference is not None:
        attempted += reference.attempted + 1
        failures.extend(f"reference: {f}" for f in reference.failures)
        if reference.signature != signature:
            failures.append("sharded run is not byte-identical to 1 shard")

    document["attempted"] = attempted
    document["failed"] = len(failures)
    document["failures"] = failures[:20]
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
