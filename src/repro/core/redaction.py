"""Trusted redaction of path evidence (use case UC5).

"Path evidence could be processed to redact details sensitive to the
enterprise customer before giving the redacted evidence to a
compliance officer. By using host-based RA, the customer can meet
regulatory compliance obligations without disclosing unnecessary,
sensitive information to the regulator."

Mechanism: the evidence holder builds a Merkle tree over the hop
records and *signs the root*. A :class:`RedactedEvidence` bundle then
discloses only chosen records, each with its inclusion proof. The
compliance officer can verify (a) the root signature — the holder
vouches for the full set, (b) each disclosed record's membership and
its own switch signature, and (c) the total record count — so "we
showed you 2 of 7 hops" is itself verifiable, while the 5 hidden hops
reveal nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.evidence.codec import encode_hop_body
from repro.evidence.nodes import HopEvidence
from repro.pera.records import verify_record_batch
from repro.util.errors import VerificationError

_ROOT_DOMAIN = b"redacted-path-evidence|"


@dataclass(frozen=True)
class DisclosedRecord:
    """One revealed hop: the record plus its membership proof."""

    record: HopEvidence
    proof: MerkleProof


@dataclass(frozen=True)
class RedactedEvidence:
    """A verifiable partial view of a path's evidence."""

    holder: str  # who performed the redaction (signs the root)
    root: bytes
    total_records: int
    disclosed: Tuple[DisclosedRecord, ...]
    root_signature: bytes

    @staticmethod
    def _root_payload(holder: str, root: bytes, total: int) -> bytes:
        return _ROOT_DOMAIN + holder.encode() + b"|" + root + total.to_bytes(
            4, "big"
        )

    def verify(
        self,
        holder_anchors: KeyRegistry,
        switch_anchors: KeyRegistry,
        pseudonym_signers: Dict[str, str] = None,
    ) -> List[str]:
        """Return the list of verification failures (empty = valid)."""
        failures: List[str] = []
        if not holder_anchors.verify(
            self.holder,
            self._root_payload(self.holder, self.root, self.total_records),
            self.root_signature,
        ):
            failures.append("redaction root signature invalid")
        pseudonym_signers = pseudonym_signers or {}
        signatures_ok = verify_record_batch(
            switch_anchors,
            [item.record for item in self.disclosed],
            signers=[
                pseudonym_signers.get(item.record.place, item.record.place)
                for item in self.disclosed
            ],
        )
        for index, item in enumerate(self.disclosed):
            if not item.proof.verify(encode_hop_body(item.record), self.root):
                failures.append(
                    f"disclosed record {index}: not a member of the "
                    "committed evidence set"
                )
            if item.proof.leaf_count != self.total_records:
                failures.append(
                    f"disclosed record {index}: inconsistent total count"
                )
            if not signatures_ok[index]:
                failures.append(
                    f"disclosed record {index} ({item.record.place}): "
                    "switch signature invalid"
                )
        return failures


def redact(
    records: Sequence[HopEvidence],
    disclose_indices: Sequence[int],
    holder_keys: KeyPair,
) -> RedactedEvidence:
    """Commit to ``records`` and disclose only ``disclose_indices``."""
    if not records:
        raise VerificationError("cannot redact an empty evidence set")
    for index in disclose_indices:
        if not 0 <= index < len(records):
            raise VerificationError(
                f"disclosure index {index} out of range [0, {len(records)})"
            )
    tree = MerkleTree([encode_hop_body(record) for record in records])
    disclosed = tuple(
        DisclosedRecord(record=records[i], proof=tree.prove(i))
        for i in sorted(set(disclose_indices))
    )
    payload = RedactedEvidence._root_payload(
        holder_keys.owner, tree.root, len(records)
    )
    return RedactedEvidence(
        holder=holder_keys.owner,
        root=tree.root,
        total_records=len(records),
        disclosed=disclosed,
        root_signature=holder_keys.sign(payload),
    )
