#!/usr/bin/env python3
"""Fault-matrix sweep: every fault family, one campaign at a time.

Where ``chaos_athens.py`` throws every fault at once, this sweep
replays the same attested deployment once per fault *family* —
link loss, a flapping link, an Athens-style compromise, an appraiser
outage, packet corruption, clock skew, and in-band evidence stripping
— each with a minimal single-fault plan and an expected protocol
signal. A family passes only when its signal actually appeared
(drops counted, evidence rejected, retries engaged, ...), so the
matrix proves each resilience mechanism fires in isolation.

Run:  python examples/fault_matrix.py [--seed N] [--packets N]
                                      [--shards K] [--backend inline|mp]

Every campaign runs on the sharded simulation core (docs/SHARDING.md)
partitioned into ``--shards`` K event loops (default 1, the baseline);
the closing determinism check replays the matrix at 1 shard inline and
compares the canonical merged journals byte for byte.
"""

import argparse

from repro.core.chaos import fault_matrix_kinds, run_fault_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--packets", type=int, default=18)
    parser.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition each campaign into K event loops (default 1)",
    )
    parser.add_argument(
        "--backend", choices=("inline", "mp"), default="inline",
        help="runner backend: in-process (inline) or one worker "
        "process per shard (mp)",
    )
    args = parser.parse_args()

    print(f"=== fault matrix (seed {args.seed}, {args.packets} packets, "
          f"{args.shards} shard(s) via {args.backend}) ===")
    entries = run_fault_matrix(
        seed=args.seed, packets=args.packets,
        shards=args.shards, backend=args.backend,
    )
    failed = []
    for kind in fault_matrix_kinds():
        entry = entries[kind]
        status = "ok " if entry.signal_seen else "MISSING"
        print(f"  {kind:18s} [{status}] {entry.signal}")
        accepted = sum(1 for v in entry.result.verdicts if v.accepted)
        print(f"  {'':18s}  {len(entry.result.verdicts)} appraised, "
              f"{accepted} accepted, "
              f"{entry.result.stats.packets_dropped} dropped, "
              f"{entry.result.fault_stats.injected} fault(s) injected")
        if not entry.signal_seen:
            failed.append(kind)
    assert not failed, f"expected signals missing for: {failed}"

    print("\n=== determinism ===")
    replay = run_fault_matrix(seed=args.seed, packets=args.packets)
    for kind in fault_matrix_kinds():
        a = entries[kind].result.sharded
        b = replay[kind].result.sharded
        identical = (
            a.audit_export() == b.audit_export()
            and a.stats_export() == b.stats_export()
        )
        print(f"  {kind:18s} {args.shards}-shard {args.backend} vs "
              f"1-shard inline byte-identical: {identical}")
        assert identical, f"{kind}: shard count changed the story"


if __name__ == "__main__":
    main()
