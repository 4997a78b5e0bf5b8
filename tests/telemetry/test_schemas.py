"""Exported documents must validate against the checked-in JSON Schemas.

This is the tier-1 guard behind ``docs/schemas/``: a change to the run
bundle's layout without a schema bump (or vice versa) fails here, not
in a downstream consumer of CI artifacts. Three kinds of bundle are
checked: a chaos run with health rules (sharded, multiprocessing), a
congested fat-tree run with sampling and health rules, and a
benchmark-session bundle with no sharded run behind it.
"""

import json
import pathlib

import pytest

from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.telemetry import Telemetry, chrome_trace, run_bundle, write_run
from repro.telemetry.report import load_run
from repro.telemetry.schema import validate, validate_strict

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[2] / "docs" / "schemas"
RUN_SCHEMA = json.loads((SCHEMA_DIR / "run_v1.schema.json").read_text())
TRACE_SCHEMA = json.loads((SCHEMA_DIR / "chrome_trace_v1.schema.json").read_text())


def traced_run() -> Telemetry:
    """A real (tiny) simulated run with tracing + audit events."""
    tel = Telemetry()
    topo = Topology()
    topo.add_node("h1", kind="host")
    topo.add_node("h2", kind="host")
    topo.add_link("h1", 1, "h2", 1)
    sim = Simulator(topo, telemetry=tel)
    h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
    h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
    sim.bind(h1)
    sim.bind(h2)
    h1.send_udp(
        dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
        src_port=1000, dst_port=2000, payload=b"x",
    )
    sim.run()
    return tel


def chaos_bundle(**kwargs):
    from repro.core.chaos import run_chaos_athens, standard_chaos_rules

    result = run_chaos_athens(health=standard_chaos_rules(), **kwargs)
    return run_bundle(result.telemetry, result.sharded, result.health)


def round_trip(doc, tmp_path):
    """``load_run(write_run(doc))``."""
    return load_run(write_run(doc, tmp_path / "RUN.json"))


class TestExportedDocuments:
    def test_audit_export_matches_schema(self):
        doc = run_bundle(traced_run())
        assert doc["deterministic"]["journal"], (
            "the run should have recorded audit events"
        )
        assert validate_strict(doc, RUN_SCHEMA) == []

    def test_audit_export_survives_json_round_trip(self, tmp_path):
        doc = run_bundle(traced_run())
        loaded = round_trip(doc, tmp_path)
        assert loaded == doc
        assert validate_strict(loaded, RUN_SCHEMA) == []

    def test_chrome_trace_matches_schema(self):
        doc = chrome_trace(run_bundle(traced_run()))
        assert validate_strict(doc, TRACE_SCHEMA) == []

    def test_rebuilt_chrome_trace_matches_schema(self, tmp_path):
        loaded = round_trip(run_bundle(traced_run()), tmp_path)
        for timebase in ("wall", "sim"):
            doc = chrome_trace(loaded, timebase=timebase)
            assert validate_strict(doc, TRACE_SCHEMA) == []

    def test_chaos_timeseries_matches_schema(self):
        doc = chaos_bundle()
        run = doc["deterministic"]
        assert run["frames"], "the chaos run should have recorded frames"
        assert run["alerts"], "the chaos run should have raised alerts"
        assert validate_strict(doc, RUN_SCHEMA) == []

    def test_timeseries_survives_json_round_trip(self, tmp_path):
        doc = chaos_bundle()
        loaded = round_trip(doc, tmp_path)
        assert loaded == doc
        assert validate_strict(loaded, RUN_SCHEMA) == []

    def test_sharded_timeseries_runtime_section_allowed(self, tmp_path):
        doc = chaos_bundle(shards=2, backend="mp")
        assert len(doc["runtime"]["shard_busy_s"]) == 2
        assert len(doc["runtime"]["frames_runtime"]) == 2
        assert doc["provenance"]["shards"] == 2
        assert doc["provenance"]["backend"] == "mp"
        assert validate_strict(doc, RUN_SCHEMA) == []
        assert round_trip(doc, tmp_path) == doc

    def test_congested_fat_tree_bundle_matches_schema(self, tmp_path):
        from repro.core.fabric import (
            FatTreeShape,
            fabric_sampling_spec,
            run_fabric_traffic,
            standard_fabric_rules,
        )
        from repro.net.qdisc import QueueConfig

        result = run_fabric_traffic(
            FatTreeShape(
                queue=QueueConfig(
                    capacity_bytes=8192,
                    capacity_packets=32,
                    ecn_threshold_bytes=2048,
                    pause_threshold_bytes=4096,
                ),
                incast_fan_in=8,
            ),
            seed=3,
            sampling=fabric_sampling_spec(),
            health=standard_fabric_rules(queue_depth_bytes=4096.0),
        )
        doc = run_bundle(result.result.telemetry, result.result, result.health)
        run = doc["deterministic"]
        assert run["stats"]["queue_drops"] > 0
        assert "level" in {rule["type"] for rule in run["rules"]}
        assert validate_strict(doc, RUN_SCHEMA) == []
        assert round_trip(doc, tmp_path) == doc

    def test_benchmark_session_bundle_matches_schema(self, tmp_path):
        # What benchmarks/conftest.py writes: the session's telemetry,
        # no sharded run behind it.
        doc = run_bundle(traced_run())
        assert doc["deterministic"]["stats"] is None
        assert doc["provenance"]["shards"] is None
        assert validate_strict(doc, RUN_SCHEMA) == []
        assert round_trip(doc, tmp_path) == doc


def minimal_run() -> dict:
    """The smallest valid bundle, with one journal event."""
    doc = run_bundle(Telemetry())
    doc["deterministic"]["journal"] = [{
        "seq": 1, "time_s": 0.0, "kind": "trace.started",
        "actor": "h1", "trace": "a" * 12, "hop": 0,
    }]
    return doc


class TestSubsetValidator:
    def test_accepts_valid_audit_document(self):
        assert validate(minimal_run(), RUN_SCHEMA) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema="repro.run/v2"), "const"),
        (lambda d: d["deterministic"].pop("journal_dropped"), "missing required"),
        (lambda d: d["deterministic"]["journal"][0].update(trace="NOT-HEX"),
         "does not match"),
        (lambda d: d["deterministic"]["journal"][0].update(seq=0), "below minimum"),
        (lambda d: d["deterministic"]["journal"][0].update(surprise=1),
         "unexpected property"),
        (lambda d: d["deterministic"]["journal"][0].update(hop="one"),
         "expected type"),
    ])
    def test_rejects_malformed_audit_documents(self, mutate, fragment):
        doc = minimal_run()
        mutate(doc)
        errors = validate(doc, RUN_SCHEMA)
        assert errors, "mutation should have been caught"
        assert any(fragment in error for error in errors)

    def test_rejects_bad_trace_phase(self):
        doc = {
            "traceEvents": [
                {"name": "x", "ph": "B", "pid": 1, "tid": 1},
            ],
            "otherData": {"schema": "repro.trace/v1", "timebase": "wall"},
        }
        errors = validate(doc, TRACE_SCHEMA)
        assert any("not in enum" in error for error in errors)

    def test_strict_reports_every_violation(self):
        errors = validate_strict({"deterministic": {}}, RUN_SCHEMA)
        assert any("schema" in error for error in errors)
        assert any("runtime" in error for error in errors)
        assert any("journal_dropped" in error for error in errors)
