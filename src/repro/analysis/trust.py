"""Trust analysis and mechanical policy hardening.

Two capabilities:

- :func:`analyze_phrase_trust` — classify a measurement phrase by the
  weakest adversary tier that defeats it (delegating to
  :mod:`repro.copland.adversary`), packaged with the witness strategy
  as a :class:`TrustReport`.
- :func:`harden_phrase` — the §4.2 rewrite: parallel measurement
  branches become sequenced branches and every measurement arm gains a
  signature, turning expression (1) into expression (2). The paper's
  claim — that this strictly raises the required adversary tier — is
  checked, not assumed: :func:`hardening_report` analyses both versions
  and reports the tiers side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.copland.adversary import (
    AdversaryTier,
    AttackStrategy,
    ProtocolModel,
    analyze_measurement_protocol,
)
from repro.copland.ast import (
    At,
    BranchPar,
    BranchSeq,
    Linear,
    Measure,
    Phrase,
    Sign,
)


@dataclass(frozen=True)
class TrustReport:
    """The analysis outcome for one phrase."""

    phrase: Phrase
    tier: AdversaryTier
    strategy: Optional[AttackStrategy]

    def describe(self) -> str:
        lines = [
            f"phrase: {self.phrase!r}",
            f"weakest defeating adversary: {self.tier.name}",
        ]
        if self.strategy is not None:
            lines.append("witness attack:")
            lines.append(self.strategy.describe())
        else:
            lines.append("no corrupt/repair strategy defeats this phrase")
        return "\n".join(lines)


def analyze_phrase_trust(
    phrase: Phrase, model: ProtocolModel, at_place: str = "rp"
) -> TrustReport:
    """Run the corrupt/repair analysis and package the result."""
    tier, strategy = analyze_measurement_protocol(
        phrase, model, at_place=at_place
    )
    return TrustReport(phrase=phrase, tier=tier, strategy=strategy)


def harden_phrase(phrase: Phrase) -> Phrase:
    """Apply the §4.2 hardening rewrite.

    - Every :class:`BranchPar` of measurements becomes a
      :class:`BranchSeq` (unordered arms are exactly what the repair
      adversary schedules around).
    - Every arm that measures but does not sign gains a ``-> !``
      (unsigned evidence can be forged instead of earned).
    """
    if isinstance(phrase, BranchPar):
        return BranchSeq(
            left=_ensure_signed(harden_phrase(phrase.left)),
            right=_ensure_signed(harden_phrase(phrase.right)),
            left_split=phrase.left_split,
            right_split=phrase.right_split,
        )
    if isinstance(phrase, BranchSeq):
        return BranchSeq(
            left=_ensure_signed(harden_phrase(phrase.left)),
            right=_ensure_signed(harden_phrase(phrase.right)),
            left_split=phrase.left_split,
            right_split=phrase.right_split,
            chain=phrase.chain,
        )
    if isinstance(phrase, Linear):
        return Linear(harden_phrase(phrase.left), harden_phrase(phrase.right))
    if isinstance(phrase, At):
        return At(phrase.place, harden_phrase(phrase.phrase))
    return phrase


def _contains_measurement(phrase: Phrase) -> bool:
    if isinstance(phrase, Measure):
        return True
    if isinstance(phrase, At):
        return _contains_measurement(phrase.phrase)
    if isinstance(phrase, (Linear, BranchSeq, BranchPar)):
        return _contains_measurement(phrase.left) or _contains_measurement(
            phrase.right
        )
    return False


def _ends_with_sign(phrase: Phrase) -> bool:
    if isinstance(phrase, Sign):
        return True
    if isinstance(phrase, Linear):
        return _ends_with_sign(phrase.right)
    if isinstance(phrase, At):
        return _ends_with_sign(phrase.phrase)
    return False


def _ensure_signed(phrase: Phrase) -> Phrase:
    """Append ``-> !`` to measurement arms lacking a signature.

    The signature is added *inside* an ``@p [...]`` wrapper so the
    measuring place signs its own evidence.
    """
    if not _contains_measurement(phrase) or _ends_with_sign(phrase):
        return phrase
    if isinstance(phrase, At):
        return At(phrase.place, _ensure_signed(phrase.phrase))
    return Linear(phrase, Sign())


@dataclass(frozen=True)
class HardeningReport:
    """Before/after analysis of a hardening rewrite."""

    before: TrustReport
    after: TrustReport

    @property
    def improved(self) -> bool:
        return self.after.tier > self.before.tier

    def describe(self) -> str:
        return "\n".join(
            [
                "=== before hardening ===",
                self.before.describe(),
                "=== after hardening ===",
                self.after.describe(),
                f"improvement: {self.before.tier.name} -> {self.after.tier.name}"
                + (" (stronger)" if self.improved else " (unchanged)"),
            ]
        )


def hardening_report(
    phrase: Phrase, model: ProtocolModel, at_place: str = "rp"
) -> HardeningReport:
    """Analyse ``phrase`` and its hardened form side by side."""
    return HardeningReport(
        before=analyze_phrase_trust(phrase, model, at_place),
        after=analyze_phrase_trust(harden_phrase(phrase), model, at_place),
    )
