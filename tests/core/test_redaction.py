"""Tests for trusted redaction of path evidence (UC5)."""

import pytest

from repro.core.redaction import redact
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.nodes import HopEvidence
from repro.pera.inertia import InertiaClass
from repro.util.errors import VerificationError


def make_records(count=5):
    records = []
    keys = []
    for i in range(count):
        pair = KeyPair.generate(f"s{i}")
        keys.append(pair)
        records.append(HopEvidence(
            place=f"s{i}",
            measurements=((InertiaClass.PROGRAM, bytes([i]) * 32),),
            sequence=i,
        ).sign_with(pair))
    return records, keys


def anchors_for(keys):
    registry = KeyRegistry()
    for pair in keys:
        registry.register_pair(pair)
    return registry


class TestRedaction:
    def setup_method(self):
        self.records, self.switch_keys = make_records()
        self.holder = KeyPair.generate("enterprise")
        self.holder_anchors = anchors_for([self.holder])
        self.switch_anchors = anchors_for(self.switch_keys)

    def test_disclosed_subset_verifies(self):
        bundle = redact(self.records, [1, 3], self.holder)
        assert bundle.total_records == 5
        assert len(bundle.disclosed) == 2
        failures = bundle.verify(self.holder_anchors, self.switch_anchors)
        assert failures == []

    def test_hidden_records_not_present(self):
        bundle = redact(self.records, [0], self.holder)
        disclosed_places = {d.record.place for d in bundle.disclosed}
        assert disclosed_places == {"s0"}

    def test_total_count_is_committed(self):
        bundle = redact(self.records, [0], self.holder)
        # Lying about the total is caught: the proofs carry the count.
        from dataclasses import replace

        forged = replace(bundle, total_records=2)
        failures = forged.verify(self.holder_anchors, self.switch_anchors)
        assert failures  # root signature AND count both break

    def test_substituted_record_rejected(self):
        bundle = redact(self.records, [1], self.holder)
        other_records, other_keys = make_records()
        fake = other_records[2]
        from dataclasses import replace

        forged = replace(bundle, disclosed=(
            replace(bundle.disclosed[0], record=fake),
        ))
        switch_anchors = anchors_for(self.switch_keys + other_keys)
        failures = forged.verify(self.holder_anchors, switch_anchors)
        assert any("not a member" in f for f in failures)

    def test_unknown_holder_rejected(self):
        bundle = redact(self.records, [1], self.holder)
        failures = bundle.verify(KeyRegistry(), self.switch_anchors)
        assert any("root signature" in f for f in failures)

    def test_tampered_switch_signature_rejected(self):
        records, keys = make_records(2)
        bad = HopEvidence(
            place=records[0].place,
            measurements=records[0].measurements,
            sequence=records[0].sequence,
            signature=bytes(64),
        )
        bundle = redact([bad, records[1]], [0], self.holder)
        failures = bundle.verify(self.holder_anchors, anchors_for(keys))
        assert any("switch signature" in f for f in failures)

    def test_empty_set_rejected(self):
        with pytest.raises(VerificationError):
            redact([], [0], self.holder)

    def test_out_of_range_disclosure(self):
        with pytest.raises(VerificationError):
            redact(self.records, [99], self.holder)

    def test_duplicate_disclosures_deduplicated(self):
        bundle = redact(self.records, [2, 2, 2], self.holder)
        assert len(bundle.disclosed) == 1

    def test_pseudonymous_records_verify_via_mapping(self):
        pair = KeyPair.generate("s-real")
        record = HopEvidence(
            place="pseu-xyz",
            measurements=((InertiaClass.PROGRAM, b"\x01" * 32),),
        ).sign_with(pair)
        bundle = redact([record], [0], self.holder)
        anchors = anchors_for([pair])
        failures = bundle.verify(
            self.holder_anchors, anchors,
            pseudonym_signers={"pseu-xyz": "s-real"},
        )
        assert failures == []
