"""The unified evidence substrate (paper-wide).

Every layer of the system trades in *evidence*: Copland phrases produce
it (:mod:`repro.copland`), PERA switches create/inspect/compose it
(:mod:`repro.pera`), RA principals appraise it (:mod:`repro.ra`), and
the network-aware compiler routes it (:mod:`repro.core`). This package
is the one canonical model they all share:

- :mod:`repro.evidence.nodes` — content-addressed evidence node types
  mirroring Copland's evidence grammar (empty, nonce, measurement,
  signature, hash, sequence, parallel) plus the hop record of an
  attesting PERA switch (:class:`HopEvidence`, epoch-batched
  :class:`BatchedHopEvidence`) and the
  :class:`~repro.evidence.nodes.InertiaClass` codes its measurements
  are tagged with. Wire form and SHA-256 digest are
  computed once per node and cached.
- :mod:`repro.evidence.codec` — the single TLV wire codec (encode is
  the nodes' cached :attr:`~repro.evidence.nodes.Evidence.wire`;
  decode lives here), including the shim-body framing shared with
  compiled policies.
- :mod:`repro.evidence.verify` — memoized signature verification keyed
  by (key id, message digest, signature).

No other package carries evidence types: the switch constructs these
nodes, the codec decodes straight into them, and the appraiser reads
them. The package imports nothing above :mod:`repro.crypto` and
:mod:`repro.util` (``tests/test_layering.py``).
"""

from repro.evidence.nodes import (
    Evidence,
    EmptyEvidence,
    NonceEvidence,
    MeasurementEvidence,
    SignedEvidence,
    HashEvidence,
    SequenceEvidence,
    ParallelEvidence,
    HopEvidence,
    BatchedHopEvidence,
    epoch_root_payload,
)
from repro.evidence.codec import (
    BATCHED_RECORD_TLV_TYPE,
    POLICY_TLV_TYPE,
    RECORD_TLV_TYPE,
    decode_batched_hop_body,
    decode_hop_body,
    decode_node,
    decode_record_stack,
    encode_hop_body,
    encode_node,
    encode_record_stack,
)
from repro.evidence.verify import (
    BatchVerifyItem,
    SignatureCache,
    VerifyCacheStats,
    registry_verify_batch,
    shared_cache,
)


__all__ = [
    "Evidence",
    "EmptyEvidence",
    "NonceEvidence",
    "MeasurementEvidence",
    "SignedEvidence",
    "HashEvidence",
    "SequenceEvidence",
    "ParallelEvidence",
    "HopEvidence",
    "BatchedHopEvidence",
    "epoch_root_payload",
    "POLICY_TLV_TYPE",
    "RECORD_TLV_TYPE",
    "BATCHED_RECORD_TLV_TYPE",
    "encode_node",
    "decode_node",
    "encode_hop_body",
    "decode_hop_body",
    "decode_batched_hop_body",
    "encode_record_stack",
    "decode_record_stack",
    "BatchVerifyItem",
    "SignatureCache",
    "VerifyCacheStats",
    "registry_verify_batch",
    "shared_cache",
]
