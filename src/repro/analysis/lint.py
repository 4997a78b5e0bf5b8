"""Deployment linting: will this policy actually be checkable?

A compiled policy asks hops to produce certain evidence; an appraisal
policy can only check what it has references for. Mismatches fail at
run time with confusing verdicts ("no reference values for this
attester") — or worse, silently verify less than the relying party
believes. :func:`lint_deployment` catches those gaps *before* any
traffic is sent, the same fail-early spirit as the ▶ operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.appraisal import PathAppraisalPolicy
from repro.core.compiler import CompiledPolicy
from repro.netkat.parser import parse_predicate
from repro.pera.config import CompositionMode
from repro.pera.inertia import InertiaClass
from repro.util.errors import PolicyError


@dataclass(frozen=True)
class LintFinding:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.message}"


def lint_deployment(
    compiled: CompiledPolicy,
    appraisal: PathAppraisalPolicy,
    expected_places: Sequence[str] = (),
) -> List[LintFinding]:
    """Check a compiled policy against an appraisal policy.

    ``expected_places`` are the attesting hops the relying party
    believes the path crosses (so reference coverage can be checked
    per place).
    """
    findings: List[LintFinding] = []

    # 1. The guard test must parse (it was serialized as text).
    if compiled.hop.test_text:
        try:
            parse_predicate(compiled.hop.test_text)
        except PolicyError as exc:
            findings.append(LintFinding(
                "error", f"hop guard does not parse: {exc}"
            ))

    # 2. Every detail class the hops will attest needs a reference
    #    value at every expected place, or it is dead weight.
    requested = [
        inertia for inertia in compiled.hop.detail.inertia_classes
        if inertia is not InertiaClass.PACKETS
    ]
    for place in expected_places:
        signer = appraisal.pseudonym_signers.get(place, place)
        reference = appraisal.reference_measurements.get(signer)
        if reference is None:
            findings.append(LintFinding(
                "error",
                f"no reference values for attesting place {place!r}; "
                "its evidence can only be rejected",
            ))
            continue
        for inertia in requested:
            if inertia not in reference:
                findings.append(LintFinding(
                    "warning",
                    f"policy requests {inertia.name} evidence but the "
                    f"appraiser has no {inertia.name} reference for "
                    f"{place!r}; that measurement will go unchecked",
                ))

    # 3. Required functions the appraiser cannot name go unenforced.
    #    (A warning, not an error: abstract policy properties like
    #    AP1's ``X`` land here by design and appraisal skips them.)
    known_functions = set(appraisal.program_names.values())
    for place, function in compiled.required_functions:
        if function not in known_functions:
            findings.append(LintFinding(
                "warning",
                f"policy names {function!r} on the path but the appraiser "
                "has no golden program measurement for it; that "
                "requirement will not be enforced",
            ))

    # 4. Sampling vs coverage contradictions.
    if appraisal.allow_sampling and compiled.min_attested_hops > 0:
        findings.append(LintFinding(
            "warning",
            "appraiser allows sampling but the policy demands "
            f"{compiled.min_attested_hops} attested hops; under-sampled "
            "paths will be accepted with fewer records",
        ))

    # 5. Composition-strength advisories.
    if compiled.hop.composition is CompositionMode.POINTWISE:
        findings.append(LintFinding(
            "warning",
            "pointwise composition cannot detect record reordering or "
            "evidence splicing; consider chained or traffic-path",
        ))
    if not compiled.hop.sign:
        findings.append(LintFinding(
            "error",
            "policy does not ask hops to sign; unsigned evidence is "
            "forgeable by anyone on the path",
        ))
    if not compiled.nonce:
        findings.append(LintFinding(
            "warning",
            "policy carries no nonce; evidence can be replayed across "
            "requests",
        ))
    return findings
