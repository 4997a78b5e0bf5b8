"""Tests for telemetry exports: JSON snapshot, Chrome trace, summary."""

import json

import pytest

from repro.telemetry import (
    Telemetry,
    chrome_trace,
    dump_json,
    snapshot,
    summary,
    write_chrome_trace,
)


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
        doc = snapshot(worked_telemetry())
        assert doc["active"] is True
        assert doc["metrics"]["counters"]["net.link.tx_packets{link=a->b}"] == 3.0
        assert doc["spans_dropped"] == 0
        names = [s["name"] for s in doc["spans"]]
        assert names == ["pisa.stage", "pisa.parse"]
        stage = doc["spans"][0]
        assert stage["depth"] == 1
        assert stage["args"] == {"table": "ipv4_lpm", "hit": True}
        assert stage["wall_duration_s"] >= 0.0

    def test_snapshot_includes_global_collectors(self):
        doc = snapshot(Telemetry())
        assert "evidence.verify_cache.hit_rate" in doc["metrics"]["gauges"]

    def test_dump_json_round_trips(self, tmp_path):
        path = dump_json(worked_telemetry(), tmp_path / "tel.json")
        doc = json.loads(path.read_text())
        assert doc["metrics"]["gauges"]["net.sim.packets_dropped"] == 1.0


class TestChromeTrace:
    def test_complete_events_and_thread_names(self):
        doc = chrome_trace(worked_telemetry())
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in completes} == {"pisa.parse", "pisa.stage"}
        assert metas[0]["args"]["name"] == "s1"
        for event in completes:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["cat"] == "pisa"

    def test_sim_timebase(self):
        doc = chrome_trace(worked_telemetry(), timebase="sim")
        assert doc["otherData"]["timebase"] == "sim"
        # Same-event work is instantaneous in simulated time.
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] == 0.0 for e in completes)

    def test_bad_timebase_rejected(self):
        with pytest.raises(ValueError, match="timebase"):
            chrome_trace(Telemetry(), timebase="lunar")

    def test_write_is_valid_json(self, tmp_path):
        path = write_chrome_trace(worked_telemetry(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestSummary:
    def test_mentions_everything_recorded(self):
        text = summary(worked_telemetry())
        assert "net.link.tx_packets{link=a->b}" in text
        assert "net.sim.packets_dropped" in text
        assert "ra.appraise_seconds{appraiser=A}" in text
        assert "pisa.stage" in text

    def test_empty_telemetry(self):
        tel = Telemetry(active=False)
        assert summary(tel) == "(no telemetry recorded)"

    def test_max_rows_truncates(self):
        tel = Telemetry()
        for i in range(5):
            tel.counter(f"c{i}").inc()
        text = summary(tel, max_rows=2)
        assert "... 3 more" in text


class TestAutoDump:
    def test_flush_writes_only_what_was_registered(self, tmp_path):
        tel = worked_telemetry()
        assert tel.flush() == []
        tel.auto_dump(
            json_path=tmp_path / "t.json",
            trace_path=tmp_path / "t_trace.json",
        )
        written = tel.flush()
        assert [p.name for p in written] == ["t.json", "t_trace.json"]
        for path in written:
            json.loads(path.read_text())
