"""Copland: a language for layered remote attestation protocols.

Implements the Copland phrase language the paper builds on (§4.2),
following its published semantics (Helble et al. 2021 "Flexible
Mechanisms for Remote Attestation"; Ramsdell et al. 2019 "Orchestrating
Layered Attestations"):

- :mod:`repro.copland.ast` — phrases: measurements, ``@place``,
  linear (``→``), branch-sequential (``<``), branch-parallel (``~``)
  with evidence-splitting annotations, ``!`` (sign), ``#`` (hash).
- :mod:`repro.copland.parser` — the paper's concrete syntax.
- evidence terms are the canonical nodes of :mod:`repro.evidence`
  (re-exported here by name; there is no Copland-private copy).
- :mod:`repro.copland.vm` — the attestation virtual machine: executes
  a phrase across places, producing concrete, signed evidence.
- :mod:`repro.copland.events` — event semantics: the partial order of
  measurement/signature events a phrase denotes.
- :mod:`repro.copland.adversary` — corrupt/repair adversary analysis
  (the §4.2 attack on parallel composition, Rowe et al. 2021 style).
"""

from repro.copland.ast import (
    Phrase,
    Measure,
    Asp,
    At,
    Linear,
    BranchSeq,
    BranchPar,
    Sign,
    Hash,
    Copy,
    Null,
    Request,
)
from repro.copland.parser import parse_phrase, parse_request
from repro.evidence import (
    Evidence,
    EmptyEvidence,
    NonceEvidence,
    MeasurementEvidence,
    SignedEvidence,
    HashEvidence,
    SequenceEvidence,
    ParallelEvidence,
)
from repro.copland.vm import CoplandVM, AspImplementation, Place
from repro.copland.events import phrase_events, Event, EventKind
from repro.copland.adversary import (
    AdversaryTier,
    AttackStrategy,
    analyze_measurement_protocol,
)
from repro.copland.types import (
    EvidenceType,
    infer_evidence_type,
    evidence_inhabits,
    count_signatures,
    signing_places,
)

__all__ = [
    "Phrase",
    "Measure",
    "Asp",
    "At",
    "Linear",
    "BranchSeq",
    "BranchPar",
    "Sign",
    "Hash",
    "Copy",
    "Null",
    "Request",
    "parse_phrase",
    "parse_request",
    "Evidence",
    "EmptyEvidence",
    "NonceEvidence",
    "MeasurementEvidence",
    "SignedEvidence",
    "HashEvidence",
    "SequenceEvidence",
    "ParallelEvidence",
    "CoplandVM",
    "AspImplementation",
    "Place",
    "phrase_events",
    "Event",
    "EventKind",
    "AdversaryTier",
    "AttackStrategy",
    "analyze_measurement_protocol",
    "EvidenceType",
    "infer_evidence_type",
    "evidence_inhabits",
    "count_signatures",
    "signing_places",
]
