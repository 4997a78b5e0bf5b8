"""Use-case outputs, pinned: the oracle for fleet-assembly refactors.

UC1, the chaos campaign and both fabrics carry committed run
signatures (``test_run_signatures.py``). The remaining scenario
functions — UC2–UC5, AP1 complete, the Fig. 4 design points and the
degraded out-of-band run — build their deployment on a plain
``Simulator`` and had no pinned output. Each golden below is the
SHA-256 of ``repr(result)`` (verdict failures, Merkle log roots, RA
cost and evidence-byte tallies all sit in those reprs, so a changed
table entry, key or program object shows), minted before any builder
was touched; a mismatch prints the repr so the moved field is visible.
"""

import hashlib
import itertools
import json

import pytest

from repro.core.chaos import run_degraded_oob
from repro.core.design_space import run_design_point
from repro.core.usecases import (
    run_ap1_complete,
    run_audit_trail,
    run_compliance_redaction,
    run_cross_referenced,
    run_ddos_mitigation,
    run_path_authentication,
)
from repro.faults import FailMode
from repro.pera.config import CompositionMode, DetailLevel, EvidenceConfig
from repro.telemetry.tracing import reset_trace_ids


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


USECASES = {
    "uc2_home": (
        lambda: run_path_authentication(3, True),
        "88c9e28d84324d3272346f06fbcc53d030e445f65215ca616b5199f3d36c12f6",
    ),
    "uc2_away": (
        lambda: run_path_authentication(3, False),
        "5606c40a4ed84018212613a85a57b367e99f652fedd55512b38824f72c53289e",
    ),
    "ap1_clean": (
        lambda: run_ap1_complete(2, False),
        "70f80b489e9f37aa17b18c2fbd70a53b89741cd5dd1ac5727a4faec6e65e5fcc",
    ),
    "ap1_compromised": (
        lambda: run_ap1_complete(2, True),
        "4be212258c3ce7b91035c27593d3b8c307cc155e0307094525264249bfdbacc8",
    ),
    "uc3_under_attack": (
        lambda: run_ddos_mitigation(20, 60, True),
        "328cfcae219928f80063fb84e3b5d931aa0af3afda1b719a7c8a0385c27f1cb2",
    ),
    "uc3_calm": (
        lambda: run_ddos_mitigation(20, 60, False),
        "00853618c267f84431eb35579b6f94729c182c237d70162b55a0c51bfaa820d0",
    ),
    "uc4_audit_trail": (
        lambda: run_audit_trail(3, 5),
        "414c7d9c5833bb7a314bcc2590636cf318c55020ef4dfd1b4c6d8687b223bbdd",
    ),
    "uc5_redaction": (
        lambda: run_compliance_redaction(5, (0, 4)),
        "56fd080c2ba8951264b748d80600172c846f1d167d4d59e8590d830fe42172c0",
    ),
    "uc5_verified_tls": (
        lambda: run_cross_referenced(True, 2),
        "cd4d1d20dfd2e3dc05f73c90826d8444c4c28a058a47e5d99da7590f8b0e3761",
    ),
    "uc5_unverified_tls": (
        lambda: run_cross_referenced(False, 2),
        "c3692b19fc6ff2dce9b00b355050d8f45b4fb470f3c710ba1c82cadf46d2d65c",
    ),
}


@pytest.mark.parametrize("name", sorted(USECASES))
def test_usecase_output_is_pinned(name):
    run, golden = USECASES[name]
    text = repr(run())
    assert _sha(text) == golden, text


DESIGN_POINTS = {
    ("minimal", "pointwise"):
        "6ead7c58643553795934e72c0102ebd85c33b05406cf34ce3543bdcaf96a9a21",
    ("minimal", "chained"):
        "215162fe4c41f42329b6ff36f3c550e476f705e416f01003c8189cf59f636ffa",
    ("minimal", "traffic_path"):
        "c9123d0cec13856092a253999a330d2de85829464d2f3e43d015e1fd94adaa84",
    ("config", "pointwise"):
        "b43421575437273e69baeffa6babacc244cbd3d8b04b8a4127a26b969739a2a3",
    ("config", "chained"):
        "139c2bfac50e94ab7217ca89a3d09682a72ce15f98dca6d1b7724e5c9babd383",
    ("config", "traffic_path"):
        "3cad40d30ebf5da51f5f7431826096c0f2e3fff438edd9a81f912e2967e42766",
    ("state", "pointwise"):
        "e447ce779deb55578a8c33a1bcb30b148fcfe554dacbeca138816441ed226efc",
    ("state", "chained"):
        "9de94d127b86edbab68a3baefd5056d1bfa9dee20fc7ac7bb40df024871ca037",
    ("state", "traffic_path"):
        "82fb8dccdf628a21c864b21c4154034cfebe23f8399cdaa9aacd9f3e9da14053",
    ("expansive", "pointwise"):
        "5bf8e9221ee055ac4d9ad4ccd56ff73118238b0caddef45e0ba62015e4ba7667",
    ("expansive", "chained"):
        "d2082cd205f568c9dc31749263756e75c7b572bea8d6e881bb4d462c6eea02d4",
    ("expansive", "traffic_path"):
        "f4c808823a8facd4669aeddbe1c5fe904909752fd6b2b1f643a35bf9ec25723a",
}


@pytest.mark.parametrize(
    "detail,composition",
    list(itertools.product(DetailLevel, CompositionMode)),
    ids=lambda value: value.value,
)
def test_design_point_output_is_pinned(detail, composition):
    result = run_design_point(
        EvidenceConfig(detail=detail, composition=composition),
        packet_count=20,
        switch_count=3,
    )
    golden = DESIGN_POINTS[(detail.value, composition.value)]
    assert _sha(repr(result)) == golden, repr(result)


#: name -> (kwargs, sha256 of the (verdict, gave up, recovered) repr,
#: sha256 of the audit journal).
DEGRADED = {
    "closed": (
        {},
        "f874506326584f27da1c8c7f4176a32fea3eb45e1b60db379d2763ba0a060f1b",
        "ee2f91d61919ff32eab7dfbfb2c90d2225c8785be0020b7979058be93f544cb4",
    ),
    "open": (
        {"fail_mode": FailMode.OPEN},
        "5c858d73e49bbc1d8f5cd619e89c93e2e603d2027ef37a0860609de7a449e29a",
        "146330557356825b9b349d51335b5484ea2eb1c1de3a53ca67834da6a742691b",
    ),
    "restart": (
        {"restart_at": 0.6e-3},
        "521ed701693a824f3bbc841262fa3d5ec0bfe32618aae28c3901abec525bff22",
        "04c9e0d37908705f441e26cabbd587a1fe6e68d8ee606270b8edd2a52445c132",
    ),
}


@pytest.mark.parametrize("name", sorted(DEGRADED))
def test_degraded_oob_output_and_journal_are_pinned(name):
    kwargs, golden, journal_golden = DEGRADED[name]
    reset_trace_ids()
    result = run_degraded_oob(seed=3, **kwargs)
    text = repr((result.verdict, result.oob_gave_up, result.oob_recovered))
    journal = json.dumps(
        [event.as_dict() for event in result.telemetry.audit.events],
        sort_keys=True,
        default=repr,
    )
    assert _sha(text) == golden, text
    assert _sha(journal) == journal_golden, journal
