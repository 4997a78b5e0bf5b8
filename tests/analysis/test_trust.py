"""Tests for trust analysis and mechanical policy hardening."""


from repro.analysis.trust import (
    analyze_phrase_trust,
    harden_phrase,
    hardening_report,
)
from repro.copland.adversary import AdversaryTier, ProtocolModel
from repro.copland.ast import BranchSeq, Linear, Sign
from repro.copland.parser import parse_phrase

BANKING_MODEL = ProtocolModel(
    residence={"av": "ks", "bmon": "us", "exts": "us"},
    adversary_places=frozenset({"us"}),
    malicious=frozenset({"exts"}),
)

EXPR1 = "@ks [av us bmon] -~- @us [bmon us exts]"


class TestAnalyze:
    def test_report_fields(self):
        report = analyze_phrase_trust(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        assert report.tier == AdversaryTier.DELAYED
        assert report.strategy is not None

    def test_describe_renders(self):
        report = analyze_phrase_trust(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        text = report.describe()
        assert "DELAYED" in text and "witness" in text

    def test_impossible_reported(self):
        report = analyze_phrase_trust(
            parse_phrase("@ks [av us exts]"), BANKING_MODEL, at_place="bank"
        )
        assert report.tier == AdversaryTier.IMPOSSIBLE
        assert "no corrupt/repair strategy" in report.describe()


class TestHarden:
    def test_parallel_becomes_sequential(self):
        hardened = harden_phrase(parse_phrase(EXPR1))
        assert isinstance(hardened, BranchSeq)

    def test_signatures_added(self):
        hardened = harden_phrase(parse_phrase(EXPR1))
        # Both arms now end with a signature inside their @place.
        left, right = hardened.left, hardened.right
        for arm in (left, right):
            inner = arm.phrase
            assert isinstance(inner, Linear)
            assert isinstance(inner.right, Sign)

    def test_already_signed_untouched(self):
        phrase = parse_phrase("@ks [av us bmon -> !]")
        assert harden_phrase(phrase) == phrase

    def test_non_measurement_arms_untouched(self):
        phrase = parse_phrase("! -~- #")
        hardened = harden_phrase(phrase)
        assert isinstance(hardened, BranchSeq)
        assert hardened.left == parse_phrase("!")

    def test_hardening_matches_expression_2_shape(self):
        hardened = harden_phrase(parse_phrase(EXPR1))
        expr2 = parse_phrase("@ks [av us bmon -> !] -<- @us [bmon us exts -> !]")
        assert hardened == expr2


class TestHardeningReport:
    def test_expression_1_improves_to_recent(self):
        report = hardening_report(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        assert report.before.tier == AdversaryTier.DELAYED
        assert report.after.tier == AdversaryTier.RECENT
        assert report.improved

    def test_describe(self):
        report = hardening_report(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        text = report.describe()
        assert "before hardening" in text
        assert "DELAYED -> RECENT" in text

    def test_already_strong_unchanged(self):
        phrase = parse_phrase("@ks [av us exts]")
        report = hardening_report(phrase, BANKING_MODEL, at_place="bank")
        assert report.before.tier == report.after.tier == AdversaryTier.IMPOSSIBLE
        assert not report.improved
