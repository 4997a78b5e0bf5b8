"""Tests for the run bundle's runtime part and its Chrome-trace view."""

import json

import pytest

from repro.telemetry import Telemetry, chrome_trace, run_bundle, write_run


def worked_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.counter("net.link.tx_packets", link="a->b").inc(3)
    tel.gauge("net.sim.packets_dropped").set(1)
    tel.histogram("ra.appraise_seconds", appraiser="A").observe(0.002)
    with tel.span("pisa.parse", track="s1"):
        with tel.span("pisa.stage", track="s1", table="ipv4_lpm") as inner:
            inner.note(hit=True)
    return tel


class TestSnapshot:
    def test_document_shape(self):
        doc = run_bundle(worked_telemetry())["runtime"]
        assert doc["metrics"]["counters"]["net.link.tx_packets{link=a->b}"] == 3.0
        assert doc["spans_dropped"] == 0
        names = [s["name"] for s in doc["spans"]]
        assert names == ["pisa.stage", "pisa.parse"]
        stage, parse = doc["spans"]
        assert stage["depth"] == 1
        assert stage["args"] == {"table": "ipv4_lpm", "hit": True}
        assert stage["wall_duration_s"] >= 0.0
        # Wall offsets count from the earliest span start.
        assert parse["wall_start_s"] == 0.0 < stage["wall_start_s"]

    def test_snapshot_includes_global_collectors(self):
        doc = run_bundle(Telemetry())
        assert "evidence.verify_cache.hit_rate" in doc["runtime"]["metrics"]["gauges"]

    def test_dump_json_round_trips(self, tmp_path):
        path = write_run(run_bundle(worked_telemetry()), tmp_path / "RUN.json")
        doc = json.loads(path.read_text())
        assert doc["runtime"]["metrics"]["gauges"]["net.sim.packets_dropped"] == 1.0


class TestChromeTrace:
    def test_complete_events_and_thread_names(self):
        doc = chrome_trace(run_bundle(worked_telemetry()))
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in completes} == {"pisa.parse", "pisa.stage"}
        assert metas[0]["args"]["name"] == "s1"
        for event in completes:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["cat"] == "pisa"

    def test_sim_timebase(self):
        doc = chrome_trace(run_bundle(worked_telemetry()), timebase="sim")
        assert doc["otherData"]["timebase"] == "sim"
        # Same-event work is instantaneous in simulated time.
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] == 0.0 for e in completes)

    def test_bad_timebase_rejected(self):
        with pytest.raises(ValueError, match="timebase"):
            chrome_trace(run_bundle(Telemetry()), timebase="lunar")

    def test_write_is_valid_json(self, tmp_path):
        path = write_run(run_bundle(worked_telemetry()), tmp_path / "RUN.json")
        doc = chrome_trace(json.loads(path.read_text()))
        assert "traceEvents" in json.loads(json.dumps(doc))
