"""Deterministic replay: same FaultPlan seed, byte-identical run.

The acceptance property of the fault subsystem — a chaos run is an
*experiment*, and experiments must replay. Two runs with the same seed
must agree on every statistic and produce byte-identical audit-journal
exports; a different seed must tell a different story.
"""

import json

from repro.core.chaos import run_chaos_athens, run_degraded_oob


def journal(result) -> str:
    """A run's audit journal as canonical JSON bytes."""
    return json.dumps(
        [e.as_dict() for e in result.telemetry.audit.events], sort_keys=True
    )


class TestChaosReplay:
    def test_same_seed_replays_byte_identically(self):
        first = run_chaos_athens(seed=5)
        second = run_chaos_athens(seed=5)
        assert first.stats == second.stats
        assert first.fault_stats == second.fault_stats
        assert [v.accepted for v in first.verdicts] == [
            v.accepted for v in second.verdicts
        ]
        assert first.ra_counters == second.ra_counters
        assert journal(first) == journal(second)

    def test_different_seed_diverges(self):
        baseline = run_chaos_athens(seed=5)
        other = run_chaos_athens(seed=6)
        assert journal(baseline) != journal(other)

    def test_degraded_run_replays(self):
        def export(result):
            return json.dumps(
                [e.as_dict() for e in result.telemetry.audit.events],
                sort_keys=True,
                default=repr,
            )

        assert export(run_degraded_oob(seed=2)) == export(
            run_degraded_oob(seed=2)
        )


class TestChaosStory:
    """The Athens chaos scenario actually exercises every mechanism."""

    def test_compromise_detected_and_recovered(self):
        result = run_chaos_athens(seed=7)
        assert result.first_rejection is not None
        assert result.recovered_at is not None
        assert result.recovered_at > result.first_rejection
        # The rogue program really exfiltrated before reprovisioning.
        assert result.exfiltrated > 0

    def test_resilience_machinery_engaged(self):
        result = run_chaos_athens(seed=7)
        assert result.stats.local_resends > 0
        assert result.collector_records > 0
        retries = sum(
            c["oob_retries"] for c in result.ra_counters.values()
        )
        assert retries > 0
        assert result.fault_stats.injected > 0
        assert result.fault_stats.cleared > 0

    def test_corruption_rejects_but_never_crashes(self):
        result = run_chaos_athens(seed=7)
        # The late corruption window produced binding-check rejections
        # on top of the compromise window's measurement rejections.
        assert result.fault_stats.packets_corrupted > 0
        assert any(not v.accepted for v in result.verdicts)
        # Every sent packet concluded in a verdict or a counted drop —
        # nothing vanished into an exception.
        assert len(result.verdicts) <= result.packets_sent
