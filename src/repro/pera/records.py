"""Verifying a stack of hop records at once.

A hop record is a :class:`~repro.evidence.nodes.HopEvidence` (or its
epoch-batched form :class:`~repro.evidence.nodes.BatchedHopEvidence`):
the switch constructs that type, the codec decodes into it, and the
appraiser reads it — there is no PERA-side record class. What lives
here is the one signature check over hop records; the stack
framing itself is :mod:`repro.evidence.codec`'s, re-exported under the
names the performance ledger resolves in this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.crypto.keys import KeyRegistry
from repro.evidence.codec import (  # noqa: F401  (ledger-resolved names)
    decode_record_stack,
    encode_record_stack,
)
from repro.evidence.nodes import BatchedHopEvidence, HopEvidence
from repro.evidence.verify import SignatureCache, registry_verify_batch


def verify_record_batch(
    anchors: KeyRegistry,
    records: Sequence[HopEvidence],
    signers: Optional[Sequence[Optional[str]]] = None,
    cache: Optional[SignatureCache] = None,
) -> List[bool]:
    """Verify many records' signatures with one batched check: the one
    record-level verdict (a caller judging records one at a time passes
    one-record lists).

    Each record is checked against the anchor of its signer (its place
    unless ``signers`` names another) through the memo cache; every
    cache miss — per-record signatures and epoch-root signatures alike
    — settles in a single multi-scalar Ed25519 check. A batched record
    is good when its epoch-root signature is *and* its Merkle proof
    binds its payload to that root; the proof is not walked under a bad
    root.
    """
    items = [
        record.signature_item(signers[index] if signers is not None else None)
        for index, record in enumerate(records)
    ]
    verdicts = registry_verify_batch(anchors, items, cache=cache)
    return [
        ok and (record.proof_ok() if isinstance(record, BatchedHopEvidence) else True)
        for ok, record in zip(verdicts, records)
    ]
