"""Exported documents must validate against the checked-in JSON Schemas.

This is the tier-1 guard behind ``docs/schemas/``: a change to the
export layout without a schema bump (or vice versa) fails here, not in
a downstream consumer of CI artifacts.
"""

import json
import pathlib

import pytest

from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.telemetry import Telemetry
from repro.telemetry.export import audit_snapshot, chrome_trace
from repro.telemetry.report import chrome_trace_from_snapshot
from repro.telemetry.schema import validate, validate_strict

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[2] / "docs" / "schemas"
AUDIT_SCHEMA = json.loads((SCHEMA_DIR / "audit_v1.schema.json").read_text())
TRACE_SCHEMA = json.loads((SCHEMA_DIR / "chrome_trace_v1.schema.json").read_text())
TIMESERIES_SCHEMA_DOC = json.loads(
    (SCHEMA_DIR / "timeseries_v1.schema.json").read_text()
)


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


class TestExportedDocuments:
    def test_audit_export_matches_schema(self):
        doc = audit_snapshot(traced_run())
        assert doc["events"], "the run should have recorded audit events"
        assert validate_strict(doc, AUDIT_SCHEMA) == []

    def test_audit_export_survives_json_round_trip(self, tmp_path):
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(audit_snapshot(traced_run())))
        assert validate_strict(json.loads(path.read_text()), AUDIT_SCHEMA) == []

    def test_chrome_trace_matches_schema(self):
        doc = chrome_trace(traced_run())
        assert validate_strict(doc, TRACE_SCHEMA) == []

    def test_rebuilt_chrome_trace_matches_schema(self):
        from repro.telemetry.export import snapshot

        doc = chrome_trace_from_snapshot(snapshot(traced_run()))
        assert validate_strict(doc, TRACE_SCHEMA) == []

    def test_chaos_timeseries_matches_schema(self):
        from repro.core.chaos import run_chaos_athens, standard_chaos_rules

        result = run_chaos_athens(health=standard_chaos_rules())
        doc = result.timeseries()
        assert doc["frames"], "the chaos run should have recorded frames"
        assert doc["alerts"], "the chaos run should have raised alerts"
        assert validate_strict(doc, TIMESERIES_SCHEMA_DOC) == []

    def test_timeseries_survives_json_round_trip(self, tmp_path):
        from repro.core.chaos import run_chaos_athens, standard_chaos_rules
        from repro.telemetry.timeseries import dump_timeseries

        result = run_chaos_athens(health=standard_chaos_rules())
        path = tmp_path / "TIMESERIES.json"
        dump_timeseries(result.timeseries(), path)
        doc = json.loads(path.read_text())
        assert validate_strict(doc, TIMESERIES_SCHEMA_DOC) == []

    def test_sharded_timeseries_runtime_section_allowed(self):
        from repro.core.chaos import run_chaos_athens, standard_chaos_rules
        from repro.telemetry.timeseries import timeseries_snapshot

        result = run_chaos_athens(shards=2, health=standard_chaos_rules())
        doc = timeseries_snapshot(
            result.frames,
            result.sampling.interval_s,
            frames_dropped=result.frames_dropped,
            alerts=result.health.alerts,
            rules=result.health.rules,
            runtime={"shards": result.sharded.frames_runtime},
        )
        assert validate_strict(doc, TIMESERIES_SCHEMA_DOC) == []


class TestSubsetValidator:
    def test_accepts_valid_audit_document(self):
        doc = {
            "schema": "repro.audit/v1",
            "events_dropped": 0,
            "events": [{
                "seq": 1, "time_s": 0.0, "kind": "trace.started",
                "actor": "h1", "trace": "a" * 12, "hop": 0,
            }],
        }
        assert validate(doc, AUDIT_SCHEMA) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema="repro.audit/v2"), "const"),
        (lambda d: d.pop("events_dropped"), "missing required"),
        (lambda d: d["events"][0].update(trace="NOT-HEX"), "does not match"),
        (lambda d: d["events"][0].update(seq=0), "below minimum"),
        (lambda d: d["events"][0].update(surprise=1), "unexpected property"),
        (lambda d: d["events"][0].update(hop="one"), "expected type"),
    ])
    def test_rejects_malformed_audit_documents(self, mutate, fragment):
        doc = {
            "schema": "repro.audit/v1",
            "events_dropped": 0,
            "events": [{
                "seq": 1, "time_s": 0.0, "kind": "trace.started",
                "actor": "h1", "trace": "a" * 12, "hop": 0,
            }],
        }
        mutate(doc)
        errors = validate(doc, AUDIT_SCHEMA)
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
        errors = validate_strict({"events": []}, AUDIT_SCHEMA)
        assert any("schema" in error for error in errors)
        assert any("events_dropped" in error for error in errors)
