"""Tests for deployment linting."""


from repro.analysis.lint import lint_deployment
from repro.core.appraisal import (
    PathAppraisalPolicy,
    hardware_reference,
    program_reference,
)
from repro.core.compiler import CompiledPolicy, HopDirective
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.pera.config import CompositionMode, DetailLevel
from repro.pera.inertia import InertiaClass
from repro.pisa.programs import firewall_program


def errors(findings):
    """The findings that block deployment."""
    return [f for f in findings if f.severity == "error"]


def good_appraisal(places=("s1", "s2")):
    program = firewall_program()
    anchors = KeyRegistry()
    references = {}
    for place in places:
        anchors.register_pair(KeyPair.generate(place))
        references[place] = {
            InertiaClass.HARDWARE: hardware_reference(f"asic-{place}".encode()),
            InertiaClass.PROGRAM: program_reference(program),
        }
    return PathAppraisalPolicy(
        anchors=anchors,
        reference_measurements=references,
        program_names={program_reference(program): program.full_name},
    ), program


def compiled(**overrides):
    defaults = dict(
        policy_id="x", relying_party="rp", nonce=b"\x01" * 16,
        appraiser="A",
        hop=HopDirective(
            test_text="attests = 1", attest=("X",),
            detail=DetailLevel.MINIMAL,
            composition=CompositionMode.CHAINED, sign=True,
        ),
        min_attested_hops=2,
    )
    defaults.update(overrides)
    return CompiledPolicy(**defaults)


class TestLint:
    def test_clean_deployment_no_errors(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(), appraisal, expected_places=("s1", "s2")
        )
        assert errors(findings) == []

    def test_missing_reference_place_is_error(self):
        appraisal, _ = good_appraisal(places=("s1",))
        findings = lint_deployment(
            compiled(), appraisal, expected_places=("s1", "ghost")
        )
        assert any("ghost" in str(f) for f in errors(findings))

    def test_unchecked_detail_class_is_warning(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(hop=HopDirective(
                detail=DetailLevel.CONFIG,  # TABLES requested
                composition=CompositionMode.CHAINED, sign=True,
            )),
            appraisal, expected_places=("s1",),
        )
        assert any("TABLES" in str(f) and "unchecked" in str(f)
                   for f in findings)
        assert errors(findings) == []

    def test_unknown_required_function_is_warning(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(required_functions=(("*", "mystery_fn"),)),
            appraisal, expected_places=("s1",),
        )
        assert any("mystery_fn" in str(f) for f in findings)
        # Not an error: appraisal skips unresolvable names by design.
        assert not any("mystery_fn" in str(f) for f in errors(findings))

    def test_known_required_function_ok(self):
        appraisal, program = good_appraisal()
        findings = lint_deployment(
            compiled(required_functions=(("*", program.full_name),)),
            appraisal, expected_places=("s1",),
        )
        assert errors(findings) == []

    def test_unsigned_policy_is_error(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(hop=HopDirective(sign=False)),
            appraisal,
        )
        assert any("sign" in str(f) for f in errors(findings))

    def test_missing_nonce_is_warning(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(compiled(nonce=b""), appraisal)
        assert any("replayed" in str(f) for f in findings)
        assert not any("replayed" in str(f) for f in errors(findings))

    def test_pointwise_advisory(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(hop=HopDirective(
                composition=CompositionMode.POINTWISE, sign=True,
            )),
            appraisal,
        )
        assert any("pointwise" in str(f) for f in findings)

    def test_malformed_guard_is_error(self):
        appraisal, _ = good_appraisal()
        findings = lint_deployment(
            compiled(hop=HopDirective(test_text="=== not a predicate",
                                      sign=True)),
            appraisal,
        )
        assert any("does not parse" in str(f) for f in errors(findings))

    def test_sampling_contradiction_warned(self):
        appraisal, _ = good_appraisal()
        appraisal.allow_sampling = True
        findings = lint_deployment(compiled(), appraisal)
        assert any("sampling" in str(f) for f in findings)

    def test_pseudonym_mapping_respected(self):
        appraisal, _ = good_appraisal(places=("s1-real",))
        appraisal.pseudonym_signers["pseu-1"] = "s1-real"
        findings = lint_deployment(
            compiled(), appraisal, expected_places=("pseu-1",)
        )
        assert errors(findings) == []
