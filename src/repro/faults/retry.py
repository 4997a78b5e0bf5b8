"""Resilience primitives: retry budgets, backoff, fail-open/closed.

The protocols the faults subsystem attacks need a shared vocabulary
for how hard to try again and what to conclude when trying fails:

- :class:`RetryPolicy` — bounded attempts with exponential backoff,
  used by out-of-band evidence senders
  (:class:`~repro.pera.switch.PeraSwitch`) and the routing
  controller's reprovisioning path.
- :class:`FailMode` — the degraded-appraisal knob: when the appraiser
  is unreachable after every retry, ``CLOSED`` (the default) rejects
  and ``OPEN`` accepts-with-a-degraded-flag. Fail-closed is the
  default everywhere because an attestation system that waves traffic
  through when it cannot attest is indistinguishable from no
  attestation at all.

All delays are simulated seconds fed to ``Simulator.schedule`` — a
retry never sleeps wall-clock time, preserving deterministic replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class FailMode:
    """What appraisal concludes when it cannot run (plain strings)."""

    CLOSED = "fail_closed"  # unreachable appraiser => rejecting verdict
    OPEN = "fail_open"  # unreachable appraiser => degraded acceptance

    ALL = (CLOSED, OPEN)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff (deterministic)."""

    max_attempts: int = 4
    base_delay_s: float = 100e-6
    multiplier: float = 2.0
    max_delay_s: float = 50e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"need at least one attempt ({self.max_attempts})")
        if self.base_delay_s < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError(f"backoff multiplier must be >= 1 ({self.multiplier})")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), capped at the max."""
        if attempt < 1:
            raise ValueError(f"attempts are 1-based ({attempt})")
        return min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )

    def delays(self) -> Tuple[float, ...]:
        """Every backoff delay this policy will ever use, in order."""
        return tuple(
            self.backoff_delay(attempt)
            for attempt in range(1, self.max_attempts)
        )


__all__ = ["FailMode", "RetryPolicy"]
