#!/usr/bin/env python3
"""Chaos engineering for remote attestation: Athens under fire.

The Athens-affair scenario (UC1) re-run while the fault injector
attacks the deployment from every side: the middle link flaps and
drops packets, an attacker swaps a rogue program onto s1 through its
own P4Runtime endpoint, the out-of-band appraiser crashes, and a late
corruption window flips bits in delivered packets.

What the run demonstrates:

- attestation still *detects* the compromise under packet loss,
- the switches' retry/backoff mirrors evidence through the appraiser
  outage (and journal when they give up),
- the controller reprovisions the vetted program by out-bidding the
  attacker's election id,
- corrupted evidence is rejected, never a crash,
- the whole story replays byte-identically from the same seed.

Run:  python examples/chaos_athens.py [--seed N] [--run-out FILE]
                                      [--shards K] [--backend inline|mp]

The campaign runs on the sharded simulation core (docs/SHARDING.md)
partitioned into ``--shards`` K event loops (default 1, the baseline);
``--backend mp`` forks one worker process per shard. The merged
canonical audit journal is byte-identical for *any* shard count and
backend, which the determinism check at the end demonstrates against a
1-shard inline replay. ``--run-out`` writes the run's ``repro.run/v1``
bundle; render it with ``python -m repro.telemetry.report FILE``.
"""

import argparse
import json

from repro.core.chaos import run_chaos_athens, run_degraded_oob
from repro.faults import FailMode
from repro.telemetry import run_bundle, write_run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--run-out", default=None,
        help="write the run's repro.run/v1 bundle to this file",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the run into K event loops (default 1)",
    )
    parser.add_argument(
        "--backend", choices=("inline", "mp"), default="inline",
        help="runner backend: in-process (inline) or one worker "
        "process per shard (mp)",
    )
    args = parser.parse_args()

    print(f"=== chaos plan (seed {args.seed}, "
          f"{args.shards} shard(s) via {args.backend}) ===")
    result = run_chaos_athens(
        seed=args.seed, shards=args.shards, backend=args.backend
    )
    print(result.plan.describe())

    print("\n=== recovery narrative ===")
    print(result.narrative())
    assert result.first_rejection is not None, "compromise went undetected"
    assert result.recovered_at is not None, "deployment never recovered"

    # The first rejected packet's full causal story, from the journal.
    first_bad = result.verdicts[result.first_rejection]
    print("\n=== why the first rejection happened ===")
    print(first_bad.explain(result.telemetry))

    print("\n=== degraded mode: appraiser down for the whole run ===")
    closed = run_degraded_oob(seed=args.seed)  # fail-closed default
    print(f"fail-closed verdict : {closed.verdict.describe().splitlines()[0]}")
    open_ = run_degraded_oob(seed=args.seed, fail_mode=FailMode.OPEN)
    print(f"fail-open verdict   : {open_.verdict.describe().splitlines()[0]}")
    assert not closed.verdict.accepted and closed.verdict.degraded
    assert open_.verdict.accepted and open_.verdict.degraded

    print("\n=== determinism ===")
    # Replay on the baseline (1 shard, inline): the canonical merged
    # journal must depend on neither partitioning nor backend.
    replay = run_chaos_athens(seed=args.seed)
    identical = journal(replay) == journal(result)
    print(f"replay with seed {args.seed}: {args.shards}-shard "
          f"{args.backend} vs 1-shard inline journals byte-identical: "
          f"{identical}")
    assert identical, "same seed must replay byte-identically"

    if args.run_out:
        write_run(
            run_bundle(result.telemetry, result.sharded, result.health),
            args.run_out,
        )
        print(f"run bundle written to {args.run_out}")


def journal(result) -> str:
    """The run's canonical audit journal as JSON bytes."""
    return json.dumps(
        [event.as_dict() for event in result.telemetry.audit], sort_keys=True
    )


if __name__ == "__main__":
    main()
