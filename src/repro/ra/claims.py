"""Claims and appraisal verdicts.

A *claim* is what the relying party wants assured ("switch S is
running firewall_v5"); *evidence* is what the attester produces — a
tree of canonical :mod:`repro.evidence` nodes, whatever channel it
arrived by; the *verdict* is the appraiser's judgement (paper Fig. 1,
steps ➀–➃). Verdicts carry the content digest of the evidence they
judged, so a result can be matched to its bundle without re-hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Claim:
    """What the relying party wants attested."""

    attester: str  # place/device name
    targets: Tuple[str, ...]  # e.g. ("Hardware", "Program")
    nonce_name: str = "n"

    def describe(self) -> str:
        return f"{self.attester} runs vetted {', '.join(self.targets)}"


@dataclass(frozen=True)
class AppraisalVerdict:
    """The appraiser's structured judgement of one evidence bundle."""

    accepted: bool
    claim: Optional[Claim] = None
    failures: Tuple[str, ...] = ()
    checked_measurements: int = 0
    checked_signatures: int = 0
    # Content digest of the appraised evidence tree (None when the
    # verdict was produced without a concrete bundle in hand).
    evidence_digest: Optional[bytes] = None

    def describe(self) -> str:
        status = "ACCEPTED" if self.accepted else "REJECTED"
        lines = [status]
        if self.claim is not None:
            lines.append(f"claim: {self.claim.describe()}")
        lines.append(
            f"checked: {self.checked_measurements} measurements, "
            f"{self.checked_signatures} signatures"
        )
        lines.extend(f"failure: {f}" for f in self.failures)
        return "\n".join(lines)
