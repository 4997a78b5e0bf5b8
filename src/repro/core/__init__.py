"""Network-aware Copland: the paper's primary contribution (§5).

Copland extended with three NetKAT-derived primitives:

- **Prim1, path abstraction** (``*⇒``): the phrase left of the operator
  holds for zero or more hops along the traffic path.
- **Prim2, place abstraction** (``∀``): policies quantify over places
  instead of naming them, because "the identities of intermediate hops
  along a path might not be known".
- **Prim3, reachability** (``▶``): a NetKAT Boolean test guards a
  phrase — test first to "fail early", and attest the test's outcome.

Modules:

- :mod:`repro.core.hybrid_ast` / :mod:`repro.core.hybrid_parser` — the
  extended language.
- :mod:`repro.core.policies` — Table 1's AP1-AP3 ready-made.
- :mod:`repro.core.compiler` — instantiate a policy over a concrete
  path and serialize it into the RA options header (§5.2).
- :mod:`repro.core.wire` — the TLV wire format for compiled policies.
- :mod:`repro.core.raswitch` — a PERA switch that interprets compiled
  policies arriving in-band.
- :mod:`repro.core.appraisal` — path-evidence appraisal: signatures,
  reference values, chain replay, stripping detection, and path
  coverage (the attested hop count). It does not read the topology.
- :mod:`repro.core.fleet` — the one builder of a linear attested
  deployment (bring-up, chain, appraiser, AP1 shim, probe).
- :mod:`repro.core.design_space` — Fig. 4 sweep helpers.
- :mod:`repro.core.usecases` — UC1-UC5 scenario builders.
"""

from repro.core.hybrid_ast import (
    Forall,
    PathStar,
    Guard,
    HybridPolicy,
)
from repro.core.hybrid_parser import parse_hybrid_policy
from repro.core.policies import ap1_bank_path_attestation, ap2_scanner_audit, ap3_path_check
from repro.core.compiler import CompiledPolicy, HopDirective, compile_policy_for_path
from repro.core.wire import encode_compiled_policy, decode_compiled_policy
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.appraisal import PathAppraiser, PathAppraisalPolicy, PathVerdict
from repro.core.redaction import RedactedEvidence, redact
from repro.core.relying_party import RelyingParty

__all__ = [
    "Forall",
    "PathStar",
    "Guard",
    "HybridPolicy",
    "parse_hybrid_policy",
    "ap1_bank_path_attestation",
    "ap2_scanner_audit",
    "ap3_path_check",
    "CompiledPolicy",
    "HopDirective",
    "compile_policy_for_path",
    "encode_compiled_policy",
    "decode_compiled_policy",
    "NetworkAwarePeraSwitch",
    "PathAppraiser",
    "PathAppraisalPolicy",
    "PathVerdict",
    "RedactedEvidence",
    "redact",
    "RelyingParty",
]
