#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py                      # whole ledger
    python3 benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/ledger/run.py compare A.json B.json

Each workload runs in a fresh subprocess (``worker.py``), closed loop,
one client. With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are measured, tracing off; with ``--trace 1`` the per-layer metrics,
from wrappers this directory installs around the library. Without
``--trace`` both passes run and the result is written under ``out/`` as
a ``repro.ledger/v1`` document. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is non-zero when any checked operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro.ledger/v1"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def _worker(workload: str, seed: int, seconds: float, extra: List[str]) -> dict:
    """Run one worker subprocess to completion; its last line is JSON."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: float, passes: str,
    scale: str, repeats: int,
) -> dict:
    extra = ["--scale", scale, "--passes", passes]
    if repeats:
        extra += ["--repeats", str(repeats)]
    probes = SETUP_PROBES if scale == "full" else 1
    setups = [
        _worker(workload, seed, seconds, [*extra, "--setup-only"])["setup_s"]
        for _ in range(probes - 1)
    ]
    document = _worker(workload, seed, seconds, extra)
    setups.append(document["setup_s"])
    document["setup_values"] = setups
    return document


def end_to_end(document: dict) -> Dict[str, dict]:
    """The BENCHMARK.json end-to-end metrics of one workload run.

    ``ops_per_s`` is the workload's headline native metric (README.md
    lists which); every workload has one, so the metric is never zero.
    """
    headline = document["native"][document["headline"]]
    return {
        "setup_s": {
            "value": statistics.median(document["setup_values"]),
            "unit": "s",
            "values": document["setup_values"],
        },
        "peak_rss_mb": {
            "value": document["peak_rss_mb"],
            "unit": "mb",
            "values": [document["peak_rss_mb"]],
        },
        "ops_per_s": {
            "value": headline["value"],
            "unit": "1/s",
            "values": headline["values"],
        },
    }


def _check_names(kind: str, emitted, declared: List[dict]) -> None:
    wanted = {entry["name"] for entry in declared}
    if set(emitted) != wanted:
        raise SystemExit(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(wanted - set(emitted))}, "
            f"undeclared {sorted(set(emitted) - wanted)}"
        )


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"  {title}")
    for name, metric in metrics.items():
        spread = ""
        if metric.get("n", 1) > 1 and "min" in metric:
            spread = (
                f"  (min {metric['min']:.6g}, max {metric['max']:.6g}, "
                f"n {metric['n']})"
            )
        print(f"    {name:36s} {metric['value']:>16.6g} {metric['unit']}{spread}")


def measure(args: argparse.Namespace, spec: dict) -> int:
    declared = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else declared
    if args.workload and args.workload not in declared:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {declared}")
    passes = {None: "both", 0: "untraced", 1: "traced"}[args.trace]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    results = {}
    attempted = failed = 0
    for workload in selected:
        document = run_workload(
            workload, args.seed, args.seconds, passes, args.scale, args.repeats
        )
        document["end_to_end"] = end_to_end(document)
        _check_names("end-to-end", document["end_to_end"], spec["end_to_end"])
        if "per_layer" in document:
            _check_names("per-layer", document["per_layer"], spec["per_layer"])
        results[workload] = document
        attempted += document["attempted"]
        failed += document["failed"]

        print(f"{workload}: {document['repeats']} repeats, "
              f"{document['attempted']} operations attempted, "
              f"{document['failed']} failed")
        print(f"  sim_signature {document['sim_signature']}")
        for failure in document["failures"]:
            print(f"  FAILED: {failure}")
        if passes != "traced":
            _print_metrics("end to end (tracing off)", document["end_to_end"])
            _print_metrics("end to end, by native name", document["native"])
        if "per_layer" in document:
            _print_metrics("per layer (traced pass)", {
                name: {"value": value, "unit": units[name]}
                for name, value in document["per_layer"].items()
            })

    ledger = {
        "schema": SCHEMA,
        "provenance": {
            "seed": args.seed,
            "git_revision": _git_revision(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seconds": args.seconds,
            "scale": args.scale,
            "passes": passes,
        },
        "bounds": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer_units": units,
        "workloads": results,
    }
    out = args.out
    if out is None and not args.workload:
        out = HERE / "out" / f"ledger-seed{args.seed}-{int(time.time())}.json"
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")

    # The contract line: one workload, one pass. A whole-ledger run
    # reports the totals and leaves the metrics to the document.
    metrics: Dict[str, dict] = {}
    if args.workload and passes == "untraced":
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in results[args.workload]["end_to_end"].items()
        }
    elif args.workload and passes == "traced":
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in results[args.workload]["per_layer"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# --- compare ---------------------------------------------------------------------


def _spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the inter-quartile
    distance with four or more values, the full range with fewer."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle
    return (max(values) - min(values)) / middle


def _rows(document: dict, bounds: Dict[str, dict]):
    """(metric, median, values, better, bound) of one workload run."""
    for name, metric in document.get("end_to_end", {}).items():
        bound = bounds[name]
        yield name, metric["value"], metric["values"], bound["better"], bound["bound"]
    for name, metric in document.get("native", {}).items():
        yield name, metric["value"], metric["values"], metric["better"], metric["bound"]


def _verdict(base, change, better: str, bound: float) -> str:
    base_median, base_values = base
    change_median, change_values = change
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change_median - base_median) / base_median
    if max(_spread(base_values), _spread(change_values)) > bound:
        if better == "lower":
            cleanly_better = max(change_values) < min(base_values)
        else:
            cleanly_better = min(change_values) > max(base_values)
        return "ok" if cleanly_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(args: argparse.Namespace) -> int:
    documents = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a {SCHEMA} document")
        documents.append(document)
    base, change = documents
    bad = 0
    header = (f"{'workload':18s} {'metric':24s} {'base':>14s} {'change':>14s} "
              f"{'delta':>8s} {'bound':>6s}  status")
    print(header)
    for workload, base_run in base["workloads"].items():
        change_run = change["workloads"].get(workload)
        if change_run is None:
            continue
        change_rows = {
            row[0]: row for row in _rows(change_run, change["bounds"])
        }
        for name, median, values, better, bound in _rows(base_run, base["bounds"]):
            if name not in change_rows:
                continue
            _, other_median, other_values, _, _ = change_rows[name]
            status = _verdict(
                (median, values), (other_median, other_values), better, bound
            )
            bad += status == "regressed"
            delta = (other_median - median) / median
            print(f"{workload:18s} {name:24s} {median:14.6g} "
                  f"{other_median:14.6g} {delta:+8.1%} {bound:6.0%}  {status}")
        same = base_run["sim_signature"] == change_run["sim_signature"]
        counts_same = (
            _counts(base_run, base["per_layer_units"])
            == _counts(change_run, change["per_layer_units"])
        )
        bad += not (same and counts_same)
        print(f"{workload:18s} {'sim_signature':24s} "
              f"{'same' if same else 'CHANGED':>14s}")
        print(f"{workload:18s} {'counts':24s} "
              f"{'same' if counts_same else 'CHANGED':>14s}")
    return 1 if bad else 0


def _counts(document: dict, units: Dict[str, str]) -> Dict[str, float]:
    """The per-layer metrics that repeat exactly: everything not in a
    host-time unit, plus the simulated-time ``net.sim.*`` statistics."""
    return {
        name: value
        for name, value in document.get("per_layer", {}).items()
        if units[name] not in ("s", "us", "frac") or name.startswith("net.sim.")
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        return compare(parser.parse_args(argv[1:]))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload (untraced pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only; default both")
    parser.add_argument("--repeats", type=int, default=0,
                        help="exact repeat count instead of --seconds")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=None)
    return measure(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
