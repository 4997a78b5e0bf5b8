"""Hashing-cost accounting: appraisal hashes O(nodes), not O(nodes²).

Before the substrate refactor the path appraiser re-hashed each
record's measurement values on every chain-replay step and re-encoded
every record-stack prefix, making the hot path quadratic in path
length. Content addressing (one cached wire + digest per node) makes
it linear; these tests pin that by *counting SHA-256 constructions*.
"""

from dataclasses import replace as dc_replace

import pytest

import repro.crypto.hashing as hashing
import repro.evidence.nodes as nodes
from repro.crypto.hashing import HashChain, digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence import (
    BatchedHopEvidence,
    HopEvidence,
    MeasurementEvidence,
    SequenceEvidence,
)
from repro.pera.config import BatchingSpec
from repro.pera.epoch import EpochBatcher
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser


class Sha256Counter:
    """Counting wrapper around ``hashlib.sha256``."""

    def __init__(self, real):
        self._real = real
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self._real(*args, **kwargs)


def build_path(length):
    """A chained, signed record path plus the appraiser that accepts it."""
    anchors = KeyRegistry()
    references = {}
    head = HashChain.GENESIS
    records = []
    for index in range(length):
        place = f"s{index}"
        keys = KeyPair.generate(place)
        anchors.register_pair(keys)
        value = digest(f"prog-{index}".encode(), domain="pera-program")
        references[place] = {InertiaClass.PROGRAM: value}
        unsigned = HopEvidence(
            place=place,
            measurements=((InertiaClass.PROGRAM, value),),
            sequence=index,
        )
        head = HashChain(head=head).extend(unsigned.link_digest())
        records.append(
            dc_replace(unsigned, chain_head=head).sign_with(keys)
        )
    appraiser = PathAppraiser(
        name="rp",
        policy=PathAppraisalPolicy(
            anchors=anchors, reference_measurements=references
        ),
    )
    # Ship the records through the wire so the appraiser starts from
    # fresh nodes with no digests cached yet (the honest worst case).
    return decode_record_stack(encode_record_stack(records)), appraiser


def count_appraisal_hashes(length, monkeypatch):
    records, appraiser = build_path(length)
    counter = Sha256Counter(hashing.hashlib.sha256)
    monkeypatch.setattr(hashing.hashlib, "sha256", counter)
    first_verdict = appraiser.appraise_records(records, hop_count=length)
    first = counter.count
    counter.count = 0
    repeat_verdict = appraiser.appraise_records(records, hop_count=length)
    monkeypatch.undo()
    assert first_verdict.accepted, first_verdict.failures
    assert repeat_verdict.accepted
    return first, counter.count


def test_appraisal_hash_count_is_linear_in_path_length(monkeypatch):
    counts = {n: count_appraisal_hashes(n, monkeypatch)[0] for n in (4, 8, 16)}
    # Exactly linear: equal per-hop increments, small per-hop constant.
    assert counts[16] - counts[8] == 2 * (counts[8] - counts[4])
    per_hop = (counts[16] - counts[8]) / 8
    assert per_hop <= 4, f"{per_hop} sha256 constructions per hop"
    # The old quadratic replay needed >= n*(n+1)/2 link hashes alone.
    assert counts[16] < 16 * 17 / 2


def test_reappraisal_reuses_cached_digests(monkeypatch):
    """A second appraisal of the same records re-hashes only the chain
    replay itself — per-record payload/link digests are cached."""
    first, repeat = count_appraisal_hashes(12, monkeypatch)
    assert repeat < first
    assert repeat <= 12 + 2  # one chain extension per record + slack


def test_content_digest_computed_once_per_node(monkeypatch):
    node = SequenceEvidence(
        left=MeasurementEvidence(
            asp="a", place="p", target="t", target_place="q", value=b"v"
        ),
        right=MeasurementEvidence(
            asp="b", place="p", target="t", target_place="q", value=b"w"
        ),
    )
    counter = Sha256Counter(hashing.hashlib.sha256)
    monkeypatch.setattr(hashing.hashlib, "sha256", counter)
    node.content_digest
    after_first = counter.count
    node.content_digest
    node.encode()
    assert counter.count == after_first
    assert after_first == 1  # the digest covers the cached wire, once


def _sent_records(batched, count=5):
    """``count`` records as one switch emits them: signed one by one,
    or sealed into one epoch (kind 0x11)."""
    keys = KeyPair.generate("s1")
    unsigned = [
        HopEvidence(
            place="s1",
            measurements=((InertiaClass.PROGRAM, bytes([index]) * 32),),
            sequence=index,
        )
        for index in range(count)
    ]
    if not batched:
        return [record.sign_with(keys) for record in unsigned]
    batcher = EpochBatcher("s1", keys, BatchingSpec(max_records=count))
    sealed = []
    for record in unsigned:
        batcher.add(record, sealed.append)
    batcher.seal()
    return sealed


def _hop_classes():
    classes = [HopEvidence]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return classes


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "0x11"])
def test_decode_builds_each_hop_once_from_the_received_bytes(
    batched, monkeypatch
):
    """One decode pass, one object per hop: no decode-then-rebuild. The
    object's signed payload is the received bytes, never a re-encode."""
    sent = _sent_records(batched)
    stack = encode_record_stack(sent)
    built = []
    for cls in _hop_classes():
        def counting_init(self, *args, _real=cls.__init__, **kwargs):
            built.append(type(self))
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    received = decode_record_stack(memoryview(stack))
    monkeypatch.undo()

    hop_type = BatchedHopEvidence if batched else HopEvidence
    assert built == [hop_type] * len(sent)
    assert [type(record) for record in received] == built
    assert received == sent

    def no_reencode(elements):
        raise AssertionError("signed payload re-encoded after decode")

    monkeypatch.setattr(nodes.TlvCodec, "encode", no_reencode)
    for record, original in zip(received, sent):
        assert record.signed_payload() in stack
        assert record.signed_payload() == original.signed_payload()
