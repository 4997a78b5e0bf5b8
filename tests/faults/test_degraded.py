"""Degraded-mode appraisal: what a verdict means when evidence never
arrives.

Fail-closed is the default everywhere — silence rejects. Fail-open is
an explicit opt-in and its acceptances are flagged ``degraded`` and
journaled, so they are never mistaken for attested trust.
"""

from repro.core.chaos import run_degraded_oob
from repro.faults import FailMode
from repro.telemetry.audit import AuditKind, Check


class TestDegradedOutOfBand:
    def test_fail_closed_is_the_default(self):
        result = run_degraded_oob()
        assert not result.verdict.accepted
        assert result.verdict.degraded
        assert any("unavailable" in f for f in result.verdict.failures)
        assert result.oob_gave_up >= 1
        kinds = [e.kind for e in result.telemetry.audit.events]
        assert AuditKind.RECOVERY_GAVE_UP in kinds
        availability = [
            e for e in result.telemetry.audit.events
            if e.kind == AuditKind.CHECK_FAILED
            and e.detail.get("check") == Check.AVAILABILITY
        ]
        assert availability, "availability failure must be journaled"

    def test_fail_open_accepts_but_flags_degraded(self):
        result = run_degraded_oob(fail_mode=FailMode.OPEN)
        assert result.verdict.accepted
        assert result.verdict.degraded
        # The availability failure is journaled even though accepted.
        kinds = [e.kind for e in result.telemetry.audit.events]
        assert AuditKind.CHECK_FAILED in kinds

    def test_restart_in_time_recovers_cleanly(self):
        result = run_degraded_oob(restart_at=0.7e-3)
        assert result.oob_recovered == 1
        assert result.verdict.accepted
        assert not result.verdict.degraded

