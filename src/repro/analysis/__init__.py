"""Automated trust analysis of attestation policies.

The paper cites Rowe et al.'s "Automated Trust Analysis of Copland
Specifications for Layered Attestations" as the machinery for deciding
whether a policy resists an active adversary. This package applies the
corrupt/repair analysis of :mod:`repro.copland.adversary` to whole
policies and proposes mechanical hardenings (the (1) → (2) rewrite of
§4.2: sequence the branches, sign each arm).
"""

from repro.analysis.trust import (
    TrustReport,
    analyze_phrase_trust,
    harden_phrase,
    hardening_report,
)
from repro.analysis.lint import LintFinding, lint_deployment

__all__ = [
    "TrustReport",
    "analyze_phrase_trust",
    "harden_phrase",
    "hardening_report",
    "LintFinding",
    "lint_deployment",
]
