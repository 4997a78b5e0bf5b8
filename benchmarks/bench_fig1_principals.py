"""E1 / Fig. 1 — the RA principal round trip.

Claim → Evidence → Appraisal → Result, for an honest and a compromised
attester, plus the cost of the appraisal step itself.
"""

from repro.evidence.nodes import MeasurementEvidence, NonceEvidence, SignedEvidence
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.ra.appraiser import AppraisalPolicy, Appraiser
from repro.ra.claims import Claim
from repro.ra.nonce import NonceManager

from conftest import report, table


def build_round_trip(honest: bool = True):
    """One full Fig. 1 flow as a callable."""
    switch_keys = KeyPair.generate("Switch")
    anchors = KeyRegistry()
    anchors.register_pair(switch_keys)
    nonces = NonceManager("fig1")
    appraiser = Appraiser(
        name="Appraiser",
        anchors=anchors,
        policy=AppraisalPolicy(
            reference_values={("attest", "Program"): b"vetted-program-digest"},
            required_signers=("Switch",),
            require_nonce=True,
        ),
        nonces=nonces,
    )
    claim = Claim(attester="Switch", targets=("Program",))

    def round_trip():
        # (1) Claim, carried by a fresh nonce from the relying party.
        nonce = nonces.issue()
        # (2) Evidence produced by the attester.
        value = b"vetted-program-digest" if honest else b"tampered"
        measurement = MeasurementEvidence(
            asp="attest", place="Switch", target="Program",
            target_place="Switch", value=value,
            prior=NonceEvidence("n", nonce),
        )
        evidence = SignedEvidence(
            evidence=measurement, place="Switch",
            signature=switch_keys.sign(measurement.encode()),
        )
        # (3)+(4) Appraisal and result.
        return appraiser.appraise(evidence, claim=claim)

    return round_trip


def test_fig1_honest_round_trip(benchmark):
    verdict = benchmark(build_round_trip(honest=True))
    assert verdict.accepted


def test_fig1_compromised_round_trip(benchmark):
    verdict = benchmark(build_round_trip(honest=False))
    assert not verdict.accepted


def test_fig1_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for honest in (True, False):
        verdict = build_round_trip(honest=honest)()
        rows.append({
            "attester": "honest" if honest else "compromised",
            "result": "ACCEPTED" if verdict.accepted else "REJECTED",
            "measurements": verdict.checked_measurements,
            "signatures": verdict.checked_signatures,
            "failures": len(verdict.failures),
        })
    report("Fig. 1: RA principals round trip", table(rows))
    assert rows[0]["result"] == "ACCEPTED"
    assert rows[1]["result"] == "REJECTED"
