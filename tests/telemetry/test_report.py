"""Tests for the post-run report CLI (`python -m repro.telemetry.report`)."""

import json

import pytest

from repro.telemetry import (
    AuditKind,
    Check,
    Telemetry,
    TraceContext,
    run_bundle,
    write_run,
)
from repro.telemetry.report import (
    load_run,
    main,
    overview,
    render_report,
)

TID = "abcdef012345"


def worked_telemetry() -> Telemetry:
    tel = Telemetry()
    ctx = TraceContext(trace_id=TID, origin="h1")
    tel.audit_event(AuditKind.TRACE_STARTED, "h1", trace=ctx)
    tel.audit_event(
        AuditKind.EVIDENCE_CREATED, "s1", trace=ctx.hopped("h1"),
        digest=b"\xaa\xbb", place="s1", sequence=1,
    )
    tel.audit_event(
        AuditKind.CHECK_FAILED, "A", trace=ctx.hopped("h1").hopped("s1"),
        check=Check.MEASUREMENT, message="does not match", place="s1",
    )
    tel.audit_event(
        AuditKind.VERDICT_ISSUED, "A", trace=ctx.hopped("h1").hopped("s1"),
        accepted=False, records=1, failures=1,
    )
    tel.audit_event(AuditKind.CONTROL_SENT, "s1", recipient="collector")
    with tel.span("pisa.parse", track="s1", trace=TID, hop=1):
        pass
    return tel


def with_stats(doc, **stats):
    """A bundle as a sharded run would carry it: with merged stats."""
    doc["deterministic"]["stats"] = stats
    return doc


@pytest.fixture
def audit_path(tmp_path):
    """A run bundle of :func:`worked_telemetry` (no sharded run)."""
    return write_run(run_bundle(worked_telemetry()), tmp_path / "RUN.json")


class TestLoadAudit:
    def test_round_trips(self, audit_path):
        doc = load_run(audit_path)
        assert doc["schema"] == "repro.run/v1"
        assert len(doc["deterministic"]["journal"]) == 5

    def test_rejects_non_audit_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match="no schema"):
            load_run(path)


class TestRendering:
    def test_overview_counts(self, audit_path):
        text = overview(load_run(audit_path))
        assert "events:   5" in text
        assert "traces:   1" in text
        assert "verdicts: 1 (1 rejected)" in text
        assert "failed checks: 1" in text
        assert AuditKind.VERDICT_ISSUED in text  # by-kind table

    def test_report_includes_narrative_and_untraced_note(self, audit_path):
        text = render_report(load_run(audit_path))
        assert f"trace {TID}:" in text
        assert "verdict REJECTED" in text
        assert "1 events carry no trace" in text

    def test_single_trace_filter(self, audit_path):
        text = render_report(load_run(audit_path), trace=TID)
        assert f"trace {TID}:" in text
        assert "carry no trace" not in text

    def test_overview_without_stats_omits_congestion_block(self, audit_path):
        assert "congestion & recovery" not in overview(load_run(audit_path))

    def test_overview_surfaces_congestion_stats(self, audit_path):
        doc = with_stats(
            load_run(audit_path),
            queue_drops=12,
            ecn_marked=34,
            pause_frames=5,
            local_resends=7,
            recovery_retransmits=7,
            recovery_held=2,
        )
        text = overview(doc)
        assert "congestion & recovery:" in text
        assert "queue drops" in text and "12" in text
        assert "ECN marks" in text and "34" in text
        assert "pause frames" in text and "5" in text
        assert "local resends" in text
        assert "recovery retransmits" in text

    def test_overview_defaults_missing_stat_keys_to_zero(self, audit_path):
        text = overview(with_stats(load_run(audit_path)))
        assert "congestion & recovery:" in text
        assert "queue drops" in text


class TestChromeReconstruction:
    def test_flow_events_from_snapshot(self, audit_path, capsys):
        assert main(["chrome", str(audit_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["schema"] == "repro.trace/v1"
        assert doc["otherData"]["timebase"] == "wall"
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "t")]
        assert [f["id"] for f in flows] == [TID]
        assert flows[0]["ph"] == "s"  # the first occurrence starts the flow


class TestMain:
    def test_renders_report(self, audit_path, capsys):
        for argv in ([str(audit_path)], ["report", str(audit_path)]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "audit report (repro.run/v1)" in out
            assert f"trace {TID}:" in out

    def test_chrome_out_requires_telemetry(self, tmp_path, capsys):
        # The chrome view reads spans from a run bundle's runtime part;
        # a bare audit journal has none.
        path = tmp_path / "audit.json"
        path.write_text(json.dumps({"schema": "repro.audit/v1", "events": []}))
        assert main(["chrome", str(path)]) == 2
        assert "repro.run/v1" in capsys.readouterr().err

    def test_chrome_out_writes_trace(self, audit_path, capsys):
        assert main(["chrome", str(audit_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "s" for e in doc["traceEvents"])

    def test_stats_flag_adds_congestion_block(
        self, audit_path, tmp_path, capsys
    ):
        path = write_run(
            with_stats(
                load_run(audit_path),
                queue_drops=3, pause_frames=1, local_resends=2,
            ),
            tmp_path / "with_stats.json",
        )
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "congestion & recovery:" in out
        assert "queue drops" in out


@pytest.fixture
def timeseries_path(tmp_path):
    doc = run_bundle(Telemetry())
    doc["deterministic"].update(
        frames=[
            {"w": 0, "t": 0.002, "v": {"net.link.tx_packets{link=a:1->b:1}": 3.0}},
            {"w": 2, "t": 0.006, "v": {
                "net.link.tx_packets{link=a:1->b:1}": 1.0,
                "net.link.dropped": 2.0,
            }},
        ],
        interval_s=0.002,
        alerts=[
            {
                "seq": 1, "time_s": 0.006, "kind": "alert.raised",
                "actor": "health",
                "detail": {"rule": "drops", "window": 2, "value": 2.0},
            },
        ],
        rules=[{"name": "drops", "type": "threshold", "metric": "net.link.dropped"}],
    )
    return write_run(doc, tmp_path / "RUN.json")


class TestTimelineSubcommand:
    def test_renders_sparklines(self, timeseries_path, capsys):
        assert main(["timeline", str(timeseries_path)]) == 0
        out = capsys.readouterr().out
        assert "timeline (repro.run/v1)" in out
        assert "net.link.tx_packets{link=a:1->b:1}" in out
        assert "total 4" in out

    def test_metric_filter(self, timeseries_path, capsys):
        assert main(
            ["timeline", str(timeseries_path), "--metric", "dropped"]
        ) == 0
        out = capsys.readouterr().out
        assert "net.link.dropped" in out
        assert "tx_packets" not in out


class TestHealthSubcommand:
    def test_renders_alert_timeline(self, timeseries_path, capsys):
        assert main(["health", str(timeseries_path)]) == 0
        out = capsys.readouterr().out
        assert "rules:   1" in out
        assert "alert.raised drops" in out
        assert "RAISED" in out  # never cleared -> still raised at end


class TestErrorExits:
    """Satellite contract: bad inputs exit 2 with a clear one-line
    stderr message in every mode — never a traceback."""

    def test_missing_file_timeline(self, tmp_path, capsys):
        assert main(["timeline", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.json" in err

    def test_missing_file_legacy_mode(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["health", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_mismatch(self, tmp_path, capsys):
        # The retired audit and timeseries exports are named, not read.
        wrong = tmp_path / "wrong.json"
        for schema in ("repro.audit/v1", "repro.timeseries/v1"):
            wrong.write_text(json.dumps({"schema": schema, "events": []}))
            for view in ("report", "timeline", "health"):
                assert main([view, str(wrong)]) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1
                assert schema in err and "repro.run/v1" in err

    def test_audit_document_without_events(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"metrics": {}}))
        assert main([str(wrong)]) == 2
        assert "repro.run/v1" in capsys.readouterr().err
