"""Unit tests for PathAppraiser edge cases (no simulator involved)."""


from repro.core.appraisal import (
    PathAppraisalPolicy,
    PathAppraiser,
    program_reference,
)
from repro.core.compiler import CompiledPolicy, HopDirective
from repro.crypto.hashing import HashChain, digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.nodes import HopEvidence
from repro.pera.inertia import InertiaClass
from repro.pisa.programs import firewall_program


def chained_records(count, keys=None):
    """Build an honest chained record sequence by hand."""
    keys = keys or [KeyPair.generate(f"s{i}") for i in range(count)]
    records = []
    head = HashChain.GENESIS
    for i, pair in enumerate(keys):
        measurements = ((InertiaClass.PROGRAM, bytes([i]) * 32),)
        link = digest(
            b"".join(v for _, v in measurements), domain="hop-measurements"
        )
        head = HashChain(head=head).extend(link)
        records.append(HopEvidence(
            place=pair.owner, measurements=measurements,
            sequence=1, chain_head=head,
        ).sign_with(pair))
    return records, keys


def appraiser_with(keys, records, **overrides):
    anchors = KeyRegistry()
    references = {}
    for pair, record in zip(keys, records):
        anchors.register_pair(pair)
        references[pair.owner] = {
            InertiaClass.PROGRAM: record.measurement_for(InertiaClass.PROGRAM),
        }
    defaults = dict(anchors=anchors, reference_measurements=references)
    defaults.update(overrides)
    return PathAppraiser("A", PathAppraisalPolicy(**defaults))


class TestAppraiseRecords:
    def test_honest_chain_accepted(self):
        records, keys = chained_records(3)
        appraiser = appraiser_with(keys, records)
        verdict = appraiser.appraise_records(records, hop_count=3)
        assert verdict.accepted, verdict.failures

    def test_empty_records_zero_hops_accepted(self):
        records, keys = chained_records(1)
        appraiser = appraiser_with(keys, records)
        verdict = appraiser.appraise_records([], hop_count=0)
        assert verdict.accepted

    def test_more_records_than_hops_rejected(self):
        records, keys = chained_records(2)
        appraiser = appraiser_with(keys, records)
        verdict = appraiser.appraise_records(records, hop_count=1)
        assert not verdict.accepted
        assert any("only 1 hops" in f for f in verdict.failures)

    def test_fewer_records_than_hops_rejected_unless_sampling(self):
        records, keys = chained_records(2)
        strict = appraiser_with(keys, records)
        assert not strict.appraise_records(records[:1], hop_count=2).accepted
        lenient = appraiser_with(keys, records, allow_sampling=True)
        # Note: the partial chain itself is valid (prefix), so only the
        # coverage check is being relaxed here.
        assert lenient.appraise_records(records[:1], hop_count=2).accepted

    def test_mixed_chained_unchained_rejected(self):
        records, keys = chained_records(2)
        from dataclasses import replace

        broken = [records[0], replace(records[1], chain_head=None)]
        # Re-sign the modified record so only the mixing is at fault.
        broken[1] = HopEvidence(
            place=broken[1].place, measurements=broken[1].measurements,
            sequence=broken[1].sequence, chain_head=None,
        ).sign_with(keys[1])
        appraiser = appraiser_with(keys, records)
        verdict = appraiser.appraise_records(broken, hop_count=2)
        assert not verdict.accepted
        assert any("some records are chained" in f for f in verdict.failures)

    def test_unknown_place_strictness(self):
        records, keys = chained_records(1)
        stranger_keys = KeyPair.generate("stranger")
        stranger = HopEvidence(
            place="stranger",
            measurements=((InertiaClass.PROGRAM, b"\x09" * 32),),
            chain_head=None,
        ).sign_with(stranger_keys)
        anchors = KeyRegistry()
        anchors.register_pair(stranger_keys)
        strict = PathAppraiser("A", PathAppraisalPolicy(
            anchors=anchors, reference_measurements={}, strict_places=True,
        ))
        verdict = strict.appraise_records([stranger], hop_count=1)
        assert not verdict.accepted
        loose = PathAppraiser("A", PathAppraisalPolicy(
            anchors=anchors, reference_measurements={}, strict_places=False,
        ))
        assert loose.appraise_records([stranger], hop_count=1).accepted

    def test_required_function_wildcard_place(self):
        program = firewall_program()
        pair = KeyPair.generate("s0")
        record = HopEvidence(
            place="s0",
            measurements=((InertiaClass.PROGRAM, program_reference(program)),),
        ).sign_with(pair)
        anchors = KeyRegistry()
        anchors.register_pair(pair)
        appraiser = PathAppraiser("A", PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements={
                "s0": {InertiaClass.PROGRAM: program_reference(program)}
            },
            program_names={program_reference(program): program.full_name},
        ))
        compiled = CompiledPolicy(
            policy_id="x", relying_party="rp", nonce=b"", appraiser="A",
            hop=HopDirective(),
            required_functions=(("*", program.full_name),),
            min_attested_hops=1,
        )
        verdict = appraiser.appraise_records([record], hop_count=1,
                                             compiled=compiled)
        assert verdict.accepted, verdict.failures
        assert verdict.functions_seen == (program.full_name,)

    def test_required_function_at_wrong_place_rejected(self):
        program = firewall_program()
        pair = KeyPair.generate("s0")
        record = HopEvidence(
            place="s0",
            measurements=((InertiaClass.PROGRAM, program_reference(program)),),
        ).sign_with(pair)
        anchors = KeyRegistry()
        anchors.register_pair(pair)
        appraiser = PathAppraiser("A", PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements={
                "s0": {InertiaClass.PROGRAM: program_reference(program)}
            },
            program_names={program_reference(program): program.full_name},
        ))
        compiled = CompiledPolicy(
            policy_id="x", relying_party="rp", nonce=b"", appraiser="A",
            hop=HopDirective(),
            required_functions=(("s9", program.full_name),),
            min_attested_hops=1,
        )
        verdict = appraiser.appraise_records([record], hop_count=1,
                                             compiled=compiled)
        assert not verdict.accepted

    def test_unreferenced_required_function_ignored(self):
        # The policy asks for a function the appraiser has no golden
        # name for: it cannot be checked, so it is not a failure here
        # (the RP chooses appraisers that know its functions).
        records, keys = chained_records(1)
        appraiser = appraiser_with(keys, records)
        compiled = CompiledPolicy(
            policy_id="x", relying_party="rp", nonce=b"", appraiser="A",
            hop=HopDirective(),
            required_functions=(("*", "unknown-fn"),),
            min_attested_hops=1,
        )
        verdict = appraiser.appraise_records(records, hop_count=1,
                                             compiled=compiled)
        assert verdict.accepted

    def test_verdict_describe(self):
        records, keys = chained_records(2)
        appraiser = appraiser_with(keys, records)
        verdict = appraiser.appraise_records(records, hop_count=2)
        text = verdict.describe()
        assert "ACCEPTED" in text and "2 records" in text
