"""Tests for the attestation audit journal and its renderers."""

from repro.telemetry import (
    AuditJournal,
    AuditKind,
    Check,
    NULL_JOURNAL,
    Telemetry,
    TraceContext,
    explain_verdict,
    narrative,
)
from repro.util.clock import SimClock


class TestJournal:
    def test_record_sequences_and_hex_digests(self):
        journal = AuditJournal()
        first = journal.record(
            AuditKind.EVIDENCE_CREATED, "s1",
            trace="abcdef012345", hop=1, digest=b"\xde\xad", place="s1",
        )
        second = journal.record(AuditKind.VERDICT_ISSUED, "A", accepted=True)
        assert (first.seq, second.seq) == (1, 2)
        assert first.digest == "dead"
        assert first.detail == {"place": "s1"}
        assert second.trace is None

    def test_as_dict_omits_absent_fields(self):
        journal = AuditJournal()
        bare = journal.record(AuditKind.PACKET_DELIVERED, "h2").as_dict()
        assert bare == {
            "seq": 1, "time_s": 0.0,
            "kind": AuditKind.PACKET_DELIVERED, "actor": "h2",
        }
        full = journal.record(
            AuditKind.SIGNATURE_VERIFIED, "A",
            trace="abcdef012345", hop=2, digest=b"\x01", ok=True,
        ).as_dict()
        assert full["trace"] == "abcdef012345"
        assert full["hop"] == 2
        assert full["digest"] == "01"
        assert full["detail"] == {"ok": True}

    def test_ring_bound_counts_evictions(self):
        journal = AuditJournal(max_events=4)
        for index in range(6):
            journal.record(AuditKind.MEASUREMENT_TAKEN, f"s{index}")
        assert len(journal) == 4
        assert journal.dropped == 2
        assert [e.seq for e in journal.events] == [3, 4, 5, 6]

    def test_trace_queries(self):
        journal = AuditJournal()
        journal.record(AuditKind.TRACE_STARTED, "h1", trace="a" * 12)
        journal.record(AuditKind.PACKET_FORWARDED, "sim", trace="b" * 12)
        journal.record(AuditKind.PACKET_DELIVERED, "h2", trace="a" * 12)
        journal.record(AuditKind.CONTROL_SENT, "s1")  # untraced
        assert [e.kind for e in journal.for_trace("a" * 12)] == [
            AuditKind.TRACE_STARTED, AuditKind.PACKET_DELIVERED,
        ]
        assert journal.for_trace(None) == []

    def test_bound_clock_timestamps(self):
        clock = SimClock()
        journal = AuditJournal(clock=clock)
        clock.advance_to(1.5)
        assert journal.record(AuditKind.PACKET_DROPPED, "sim").time_s == 1.5

    def test_null_journal_is_inert(self):
        assert NULL_JOURNAL.record(AuditKind.VERDICT_ISSUED, "A") is None
        assert len(NULL_JOURNAL) == 0


class TestTelemetryIntegration:
    def test_audit_event_unpacks_trace_context(self):
        tel = Telemetry()
        ctx = TraceContext(trace_id="abcdef012345", hop=2)
        event = tel.audit_event(
            AuditKind.EVIDENCE_PUSHED, "s1", trace=ctx,
            digest=b"\x99", bytes=42,
        )
        assert event.trace == "abcdef012345"
        assert event.hop == 2
        assert event.digest == "99"

    def test_inactive_telemetry_records_nothing(self):
        tel = Telemetry(active=False)
        assert tel.audit_event(AuditKind.VERDICT_ISSUED, "A") is None
        assert tel.audit is NULL_JOURNAL


def _story_journal():
    journal = AuditJournal()
    tid = "abcdef012345"
    journal.record(AuditKind.TRACE_STARTED, "h1", trace=tid, hop=0)
    journal.record(
        AuditKind.PACKET_FORWARDED, "sim", trace=tid, hop=1, link="h1->s1",
    )
    journal.record(
        AuditKind.MEASUREMENT_TAKEN, "s1", trace=tid, hop=1,
        digest=b"\x01\x02", inertia="program",
    )
    journal.record(
        AuditKind.CHECK_FAILED, "A", trace=tid, hop=2,
        check=Check.MEASUREMENT, message="does not match", place="s1",
    )
    return journal, tid


class TestNarrative:
    def test_header_and_hop_prefixes(self):
        journal, tid = _story_journal()
        text = narrative(journal.events, trace_id=tid)
        lines = text.splitlines()
        assert lines[0] == f"trace {tid}: 4 events over 2 hop(s)"
        assert "hop 0" in lines[1] and "h1: trace started" in lines[1]
        assert "forwarded over h1->s1" in text
        assert "measured program [0102]" in text

    def test_accepts_exported_dicts(self):
        journal, tid = _story_journal()
        docs = [event.as_dict() for event in journal.events]
        assert narrative(docs, trace_id=tid) == narrative(
            journal.events, trace_id=tid
        )

    def test_empty_trace(self):
        assert "no audit events" in narrative([], trace_id="f" * 12)

    def test_describe_event_fallback(self):
        journal = AuditJournal()
        event = journal.record("custom.kind", "x", why="because")
        assert narrative([event]).endswith("x: custom.kind {'why': 'because'}")


class _FakeVerdict:
    def __init__(self, accepted, failures=(), trace_id=None):
        self.accepted = accepted
        self.failures = tuple(failures)
        self.trace_id = trace_id


class TestExplainVerdict:
    def test_rejected_lists_failures(self):
        journal, tid = _story_journal()
        verdict = _FakeVerdict(
            False, ["measurement does not match"], trace_id=tid
        )
        text = explain_verdict(verdict, journal.events)
        assert "conclusion: REJECTED — 1 check(s) failed" in text
        assert "  - measurement does not match" in text
        assert text.startswith(f"trace {tid}:")

    def test_accepted(self):
        journal, tid = _story_journal()
        verdict = _FakeVerdict(True, trace_id=tid)
        text = explain_verdict(verdict, journal.events)
        assert "conclusion: ACCEPTED — every check passed" in text
