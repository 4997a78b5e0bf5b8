"""UC1 acceptance parity: epoch batching changes the wire format, not
the verdicts.

The Athens affair run (rogue program installed mid-stream) must yield
the SAME verdict sequence and the same audit story in batched mode as
in per-packet mode — the only admissible difference being where the
signature work lands (one ``signature.made`` per epoch instead of per
record, plus the new ``epoch.sealed`` markers).
"""

import pytest

from repro.core.usecases import run_config_assurance
from repro.pera.config import BatchingSpec
from repro.telemetry import AuditKind

PACKETS = 12
SWAP_AT = 6
SPEC = BatchingSpec(max_records=4, max_delay_s=0.0)

# Events whose *count or position* legitimately moves when signing is
# amortized: per-record signature events collapse to per-epoch ones,
# and the epoch markers are new.
AMORTIZED_KINDS = {AuditKind.SIGNATURE_MADE, AuditKind.EPOCH_SEALED}


def run_mode(batching):
    """One UC1 run and its whole audit story: the run's own journal,
    dataplane and harvest-time appraiser alike."""
    result = run_config_assurance(
        packets=PACKETS, swap_at=SWAP_AT, batching=batching
    )
    return result, result.sharded.telemetry


@pytest.fixture(scope="module")
def both_modes():
    return run_mode(None), run_mode(SPEC)


class TestAthensBatchedParity:
    def test_verdict_sequence_is_identical(self, both_modes):
        (per_packet, _), (batched, _) = both_modes
        assert per_packet.first_rejection == batched.first_rejection == SWAP_AT
        assert per_packet.exfiltrated == batched.exfiltrated
        assert len(per_packet.verdicts) == len(batched.verdicts) == PACKETS
        for index, (a, b) in enumerate(
            zip(per_packet.verdicts, batched.verdicts)
        ):
            assert a.accepted == b.accepted, f"packet {index} diverged"
            assert a.failures == b.failures, f"packet {index} diverged"

    def test_audit_event_sequence_matches_modulo_epochs(self, both_modes):
        """Same audit story, three granularities of comparison.

        Globally the *multiset* of events matches. Per packet trace the
        attestation story — measurements, evidence, appraisal checks,
        verdict — matches event for event (the property ``explain()``
        relies on); transport events (forward/deliver) match as a
        multiset, since parking an in-band packet until its epoch seals
        legally reorders it against its own rogue-program clone."""
        (_, tel_per_packet), (_, tel_batched) = both_modes
        transport = {AuditKind.PACKET_FORWARDED, AuditKind.PACKET_DELIVERED}

        def story(events, keep):
            return [
                (e.kind, e.actor)
                for e in events
                if e.kind not in AMORTIZED_KINDS and keep(e.kind)
            ]

        everything = story(tel_per_packet.audit.events, lambda k: True)
        assert sorted(everything) == sorted(
            story(tel_batched.audit.events, lambda k: True)
        )

        def traces(telemetry):
            seen = []
            for event in telemetry.audit.events:
                if event.trace is not None and event.trace not in seen:
                    seen.append(event.trace)
            return seen

        per_packet_traces = traces(tel_per_packet)
        batched_traces = traces(tel_batched)
        assert len(per_packet_traces) == len(batched_traces) == PACKETS
        for trace_a, trace_b in zip(per_packet_traces, batched_traces):
            events_a = tel_per_packet.audit.for_trace(trace_a)
            events_b = tel_batched.audit.for_trace(trace_b)
            assert story(events_a, lambda k: k not in transport) == story(
                events_b, lambda k: k not in transport
            )
            assert sorted(story(events_a, transport.__contains__)) == sorted(
                story(events_b, transport.__contains__)
            )

    def test_batched_mode_signs_fewer_times(self, both_modes):
        (_, tel_per_packet), (_, tel_batched) = both_modes

        def made(telemetry):
            return [
                e for e in telemetry.audit.events
                if e.kind == AuditKind.SIGNATURE_MADE
            ]

        assert len(made(tel_batched)) < len(made(tel_per_packet))
        sealed = [
            e for e in tel_batched.audit.events
            if e.kind == AuditKind.EPOCH_SEALED
        ]
        assert sealed, "batched mode must journal its epoch seals"
        # Every epoch seal pairs with exactly one root signature event.
        assert len(made(tel_batched)) == len(sealed)
        assert [e.detail["epoch"] for e in made(tel_batched)] == [
            e.detail["epoch"] for e in sealed
        ]

    def test_per_packet_mode_journals_no_epochs(self, both_modes):
        (_, tel_per_packet), _ = both_modes
        kinds = {e.kind for e in tel_per_packet.audit.events}
        assert AuditKind.EPOCH_SEALED not in kinds
