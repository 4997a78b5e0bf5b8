"""Smoke test of the ledger at ``--scale tiny`` (about ten seconds).

Run it directly: ``python -m pytest benchmarks/ledger/test_ledger_smoke.py``
(it is outside ``testpaths``, so tier-1 does not collect it).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: fabric_sharded's layers run in forked workers, out of the tracer's reach.
SINGLE_PROCESS = [
    w["name"] for w in SPEC["workloads"] if w["name"] != "fabric_sharded"
]


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seed", "7",
         *args],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    documents = []
    for index in range(2):
        out = tmp_path_factory.mktemp("ledger") / f"{index}.json"
        last = _run("--repeats", "2", "--out", str(out))
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        documents.append(json.loads(out.read_text()))
    return documents


def test_names_are_exactly_the_declared_ones(ledgers):
    document = ledgers[0]
    assert document["schema"] == "repro.ledger/v1"
    assert set(document["provenance"]) >= {
        "seed", "git_revision", "python", "cpu_count"
    }
    assert sorted(document["workloads"]) == sorted(
        w["name"] for w in SPEC["workloads"]
    )
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for run in document["workloads"].values():
        assert set(run["end_to_end"]) == end_to_end
        assert set(run["per_layer"]) == per_layer
        assert all(m["value"] > 0 for m in run["end_to_end"].values())
    for name in end_to_end | per_layer | set(document["workloads"]):
        assert NAME.fullmatch(name), name


def test_counts_and_signatures_repeat_exactly(ledgers):
    first, second = ledgers
    units = first["per_layer_units"]
    for workload, run in first["workloads"].items():
        other = second["workloads"][workload]
        assert run["sim_signature"] == other["sim_signature"], workload
        for name, value in run["per_layer"].items():
            if units[name] in ("count", "bytes", "ratio", "units"):
                assert value == other["per_layer"][name], (workload, name)


def test_traced_pass_covers_the_single_process_workloads(ledgers):
    for document in ledgers:
        for workload in SINGLE_PROCESS:
            layers = document["workloads"][workload]["per_layer"]
            assert layers["ledger.coverage_frac"] >= 0.9, workload


def test_cold_repeats_never_hit_the_verify_cache(ledgers):
    layers = ledgers[0]["workloads"]["fabric_attested"]["per_layer"]
    assert layers["evidence.verify_cache.hits"] == 0
    assert layers["evidence.verify_cache.misses"] > 0
    # cold pass all misses, warm pass all hits
    layers = ledgers[0]["workloads"]["appraise_stream"]["per_layer"]
    assert layers["evidence.verify_cache.hit_ratio"] == 0.5


@pytest.mark.parametrize("trace, declared", [
    ("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"]),
])
def test_contract_line(trace, declared):
    last = _run("--workload", "switch_fig3", "--seconds", "0", "--trace", trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]


def test_compare_flags_a_regression(ledgers, tmp_path):
    base, change = (json.loads(json.dumps(ledgers[0])) for _ in range(2))
    for document, rate in ((base, 1000.0), (change, 500.0)):
        headline = document["workloads"]["fabric_bulk"]["end_to_end"]["ops_per_s"]
        headline["value"] = rate
        headline["values"] = [rate, rate]
    paths = []
    for index, document in enumerate((base, change)):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", paths[0], paths[0]],
        stdout=subprocess.PIPE, text=True,
    )
    assert same.returncode == 0 and "regressed" not in same.stdout
    worse = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", *paths],
        stdout=subprocess.PIPE, text=True,
    )
    assert worse.returncode == 1 and "regressed" in worse.stdout
