"""The health/SLO rule engine's semantics, rule by rule.

Each rule family's raise/clear contract from docs/MONITORING.md is
pinned on tiny hand-built frame streams (windows are cheap to write
out literally), plus the alert-event shape the audit fold depends on
and the purity property that makes post-merge evaluation canonical.
"""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.audit import AuditKind, event_from_dict
from repro.telemetry.health import (
    AbsenceRule,
    HEALTH_ACTOR,
    LevelRule,
    RatioRule,
    ThresholdRule,
    evaluate_health,
    fold_alerts,
    label_filter,
)


def frames_from(*window_deltas):
    """Build a sparse frame list from per-window delta dicts."""
    frames = []
    for window, delta in window_deltas:
        frames.append({"w": window, "t": float(window + 1), "v": delta})
    return frames


class TestThresholdRule:
    def test_raises_and_clears_on_window_deltas(self):
        rule = ThresholdRule(name="drops", metric="net.link.dropped")
        frames = frames_from(
            (0, {"net.link.dropped": 2.0}),
            (1, {"other": 1.0}),
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        kinds = [(a["kind"], a["detail"]["window"]) for a in report.alerts]
        assert kinds == [("alert.raised", 0), ("alert.cleared", 1)]
        assert report.active == {}

    def test_respects_label_filter(self):
        rule = ThresholdRule(
            name="rejects",
            metric="verdicts",
            labels=label_filter(accepted=False),
        )
        frames = frames_from(
            (0, {"verdicts{accepted=True}": 5.0}),
            (1, {"verdicts{accepted=False}": 1.0}),
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.first_raise_window("rejects") == 1

    def test_absent_windows_count_as_zero_deltas(self):
        rule = ThresholdRule(name="drops", metric="m")
        frames = frames_from(
            (0, {"m": 1.0}),
            (5, {"m": 1.0}),  # windows 1-4 omitted entirely
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        cleared = [a for a in report.alerts if a["kind"] == "alert.cleared"]
        assert cleared[0]["detail"]["window"] == 1

    def test_still_raised_at_end_is_active(self):
        rule = ThresholdRule(name="drops", metric="m")
        report = evaluate_health(
            frames_from((0, {"m": 1.0})), [rule], interval_s=1.0
        )
        assert report.active == {"drops": 0}
        assert report.raised and not report.cleared


class TestLevelRule:
    def test_raises_on_cumulative_level_not_delta(self):
        """A queue filling by small deltas crosses the level threshold
        even though no single window's delta does."""
        rule = LevelRule(name="depth", metric="q.depth", threshold=5.0)
        frames = frames_from(
            (0, {"q.depth": 3.0}),
            (1, {"q.depth": 3.0}),   # cumulative 6 > 5 -> raise
            (2, {"q.depth": -4.0}),  # cumulative 2 <= 5 -> clear
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        kinds = [(a["kind"], a["detail"]["window"]) for a in report.alerts]
        assert kinds == [("alert.raised", 1), ("alert.cleared", 2)]

    def test_max_aggregate_bounds_worst_key(self):
        rule = LevelRule(name="depth", metric="q.depth", threshold=5.0)
        frames = frames_from(
            (0, {"q.depth{node=a}": 2.0, "q.depth{node=b}": 6.0}),
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.first_raise_window("depth") == 0

    def test_level_is_the_worst_key_not_the_total(self):
        """Two keys at 3 sum past the threshold, but no one queue does."""
        rule = LevelRule(name="depth", metric="q.depth", threshold=5.0)
        frames = frames_from(
            (0, {"q.depth{node=a}": 3.0, "q.depth{node=b}": 3.0}),
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.alerts == []

    def test_no_matching_series_stays_silent(self):
        rule = LevelRule(name="depth", metric="q.depth", threshold=0.0)
        frames = frames_from((0, {"other": 100.0}))
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.alerts == []


class TestRatioRule:
    def test_trailing_window_aggregation(self):
        rule = RatioRule(
            name="fail-rate",
            numerator="v",
            numerator_labels=label_filter(ok=False),
            denominator="v",
            threshold=0.25,
            over_windows=2,
        )
        # Window 0: 1 failure / 2 total = 0.5 -> raise.
        # Window 1 adds 6 passes: trailing ratio 1/8 = 0.125 -> clear.
        frames = frames_from(
            (0, {"v{ok=False}": 1.0, "v{ok=True}": 1.0}),
            (1, {"v{ok=True}": 6.0}),
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        kinds = [a["kind"] for a in report.alerts]
        assert kinds == ["alert.raised", "alert.cleared"]

    def test_zero_denominator_is_compliant(self):
        rule = RatioRule(
            name="rate", numerator="bad", denominator="all", threshold=0.1
        )
        frames = frames_from((0, {"unrelated": 3.0}))
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.alerts == []


class TestAbsenceRule:
    def test_arms_then_raises_after_silence_then_clears(self):
        rule = AbsenceRule(name="stall", metric="seals", for_windows=2)
        frames = frames_from(
            (0, {"seals": 1.0}),   # arms
            (3, {"seals": 1.0}),   # silent at 1, 2 -> raised at 2; resumes
        )
        report = evaluate_health(frames, [rule], interval_s=1.0)
        kinds = [(a["kind"], a["detail"]["window"]) for a in report.alerts]
        assert kinds == [("alert.raised", 2), ("alert.cleared", 3)]

    def test_never_arms_without_activity(self):
        rule = AbsenceRule(name="stall", metric="seals", for_windows=1)
        frames = frames_from((0, {"other": 1.0}), (5, {"other": 1.0}))
        report = evaluate_health(frames, [rule], interval_s=1.0)
        assert report.alerts == []


class TestAlertEvents:
    def test_alert_shape_matches_audit_export(self):
        rule = ThresholdRule(name="drops", metric="m")
        report = evaluate_health(
            frames_from((0, {"m": 1.0})), [rule], interval_s=0.5
        )
        (alert,) = report.alerts
        assert alert["actor"] == HEALTH_ACTOR
        assert alert["time_s"] == pytest.approx(0.5)  # window close time
        # The exact dict round-trips through the audit event loader.
        event = event_from_dict(alert)
        assert event.kind == AuditKind.ALERT_RAISED

    def test_fold_alerts_orders_canonically(self):
        tel = Telemetry(active=True)
        tel.audit_event("fault.injected", "injector")
        rule = ThresholdRule(name="drops", metric="m")
        report = evaluate_health(
            frames_from((0, {"m": 1.0})), [rule], interval_s=1.0
        )
        fold_alerts(tel.audit, report.alerts)
        kinds = [e.kind for e in tel.audit.events]
        assert "alert.raised" in kinds
        assert [e.seq for e in tel.audit.events] == list(
            range(1, len(kinds) + 1)
        )

    def test_evaluation_is_pure(self):
        rule = ThresholdRule(name="drops", metric="m")
        frames = frames_from((0, {"m": 1.0}), (1, {"x": 1.0}))
        first = evaluate_health(frames, [rule], interval_s=1.0)
        second = evaluate_health(frames, [rule], interval_s=1.0)
        assert first.alerts == second.alerts
        assert first.rules == second.rules
