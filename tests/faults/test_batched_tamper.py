"""Batched-mode tamper matrix: every forgery leaves exactly one
``check.failed`` audit event.

Per-packet signatures and epoch-batched Merkle proofs must be
equivalent under tampering: a flipped record byte, a forged proof
sibling, a forged root signature, and a cross-epoch proof replay each
yield exactly one journaled check failure — and a byte-identical
replay of a packet's genuine evidence is still caught by the nonce
check, so batching opens no replay hole.
"""

from dataclasses import replace

import pytest

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain
from repro.core.policies import ap1_bank_path_attestation
from repro.evidence.nodes import BatchedHopEvidence
from repro.evidence.verify import SignatureCache, registry_verify_batch
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import BatchingSpec, CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack, verify_record_batch
from repro.pisa.programs import firewall_program
from repro.ra.nonce import NonceManager
from repro.telemetry import AuditKind, Check, Telemetry, TraceContext

TRACE = TraceContext(trace_id="abcdef012345", hop=3, origin="h-src")


@pytest.fixture(scope="module")
def delivered():
    """One honest 2-switch CHAINED+batched run spanning two epochs.

    Four packets with ``max_records=2`` give every switch two sealed
    epochs, so the matrix can replay proofs and records across epoch
    boundaries. Returns (stacks, hop_count, switches, program) where
    ``stacks[i]`` is packet *i*'s decoded record list.
    """
    config = EvidenceConfig(
        composition=CompositionMode.CHAINED,
        batching=BatchingSpec(max_records=2, max_delay_s=0.0),
    )
    program = firewall_program()
    sim = Simulator(linear_topology(2))
    chain = attested_chain(sim, [program] * 2, config=config)
    dst, switches = chain.dst, chain.switches
    _, shim = chain.ap1()
    for _ in range(4):
        chain.send(shim, b"probe", 1000, 2000)
    sim.run()
    assert len(dst.received_packets) == 4
    stacks = [
        decode_record_stack(p.ra_shim.body) for p in dst.received_packets
    ]
    hop_count = dst.received_packets[0].ra_shim.hop_count
    return stacks, hop_count, switches, program


def _appraiser(switches, program, telemetry, **kwargs):
    return PathAppraiser(
        "Appraiser",
        PathAppraisalPolicy.for_fleet(switches, [program] * len(switches)),
        telemetry=telemetry,
        **kwargs,
    )


def _check_failures(telemetry):
    return [
        e for e in telemetry.audit.events if e.kind == AuditKind.CHECK_FAILED
    ]


class TestBatchedTamperMatrix:
    def test_honest_batched_run_appraises_clean(self, delivered):
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        for stack in stacks:
            assert all(isinstance(r, BatchedHopEvidence) for r in stack)
            verdict = appraiser.appraise_records(stack, hop_count, trace=TRACE)
            assert verdict.accepted, verdict.failures
        assert _check_failures(tel) == []

    def test_flipped_record_byte_breaks_the_proof(self, delivered):
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        honest = stacks[0]
        # Flip a payload field: the leaf hash changes, the proof dies.
        forged = replace(honest[0], sequence=honest[0].sequence + 1)
        verdict = appraiser.appraise_records(
            [forged, honest[1]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert "Merkle proof" in events[0].detail["message"]
        assert events[0].detail["message"] in verdict.failures
        assert events[0].trace == TRACE.trace_id

    def test_forged_proof_sibling_breaks_the_proof(self, delivered):
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        honest = stacks[0]
        (sibling, is_left), *rest = honest[0].proof_path
        flipped = bytes((sibling[0] ^ 0x01,)) + sibling[1:]
        forged = replace(
            honest[0], proof_path=((flipped, is_left),) + tuple(rest)
        )
        verdict = appraiser.appraise_records(
            [forged, honest[1]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert "Merkle proof" in events[0].detail["message"]

    def test_forged_root_signature_is_rejected(self, delivered):
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        honest = stacks[0]
        signature = honest[0].root_signature
        forged = replace(
            honest[0],
            root_signature=signature[:-1] + bytes((signature[-1] ^ 0xFF,)),
        )
        verdict = appraiser.appraise_records(
            [forged, honest[1]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert "epoch root signature" in events[0].detail["message"]

    def test_cross_epoch_proof_replay_is_rejected(self, delivered):
        """Splice epoch 2's (genuinely signed) header onto an epoch-1
        record: the root signature verifies, the proof must not."""
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        epoch1 = stacks[0][0]
        epoch2 = stacks[2][0]
        assert epoch1.epoch_id != epoch2.epoch_id
        spliced = replace(
            epoch1,
            epoch_id=epoch2.epoch_id,
            epoch_root=epoch2.epoch_root,
            root_signature=epoch2.root_signature,
            leaf_count=epoch2.leaf_count,
        )
        # The stolen header itself is genuine...
        assert registry_verify_batch(
            appraiser.policy.anchors, [spliced.signature_item()]
        ) == [True]
        # ...but it does not commit to this record.
        verdict = appraiser.appraise_records(
            [spliced, stacks[0][1]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert "Merkle proof" in events[0].detail["message"]

    def test_flipped_leaf_index_breaks_the_proof(self, delivered):
        """The claimed leaf index is part of what the proof binds.

        The hash walk must be driven by the claimed position, so an
        otherwise-genuine record whose ``leaf_index`` is flipped in
        transit dies in the proof check."""
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        appraiser = _appraiser(switches, program, tel)
        honest = stacks[0]
        forged = replace(honest[0], leaf_index=honest[0].leaf_index ^ 1)
        verdict = appraiser.appraise_records(
            [forged, honest[1]], hop_count, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.SIGNATURE
        assert "Merkle proof" in events[0].detail["message"]

    def test_byte_identical_replay_is_caught_by_the_nonce(self, delivered):
        """Replay a packet's *unmodified* batched evidence wholesale.

        Every record is genuine, so signatures, proofs, measurements
        and chain all verify — replay protection is the nonce's job,
        and epoch batching must not open a hole in it: the consumed
        nonce yields exactly one ``check.failed``."""
        stacks, hop_count, switches, program = delivered
        tel = Telemetry()
        nonces = NonceManager(seed="batched-matrix")
        nonce = nonces.issue()
        nonces.consume(nonce)  # the relying party already accepted it
        compiled = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=["h-src", "s1", "s2", "h-dst"],
            bindings={"client": "h-dst"},
            composition=CompositionMode.CHAINED,
            nonce=nonce,
        )
        appraiser = _appraiser(switches, program, tel, nonces=nonces)
        replayed = stacks[0]  # byte-identical: no fields touched
        assert all(verify_record_batch(appraiser.policy.anchors, replayed))
        verdict = appraiser.appraise_records(
            replayed, hop_count, compiled=compiled, trace=TRACE
        )
        assert not verdict.accepted
        events = _check_failures(tel)
        assert len(events) == 1
        assert events[0].detail["check"] == Check.NONCE
        assert events[0].detail["message"] == "nonce replayed"


class TestBatchedVsSequentialParity:
    """``verify_record_batch`` must agree with the unmemoized
    ``KeyRegistry.verify`` of each epoch root plus its Merkle proof on
    every tamper variant — the batched crypto path cannot accept a
    record a single check rejects, or vice versa."""

    def _variants(self, stacks):
        honest = stacks[0]
        epoch2 = stacks[2][0]
        signature = honest[0].root_signature
        (sibling, is_left), *rest = honest[0].proof_path
        flipped_sibling = bytes((sibling[0] ^ 0x01,)) + sibling[1:]
        return [
            honest[0],  # genuine
            honest[1],  # genuine, second switch
            replace(honest[0], sequence=honest[0].sequence + 1),
            replace(
                honest[0],
                proof_path=((flipped_sibling, is_left),) + tuple(rest),
            ),
            replace(
                honest[0],
                root_signature=signature[:-1] + bytes((signature[-1] ^ 0xFF,)),
            ),
            replace(
                honest[0],
                epoch_id=epoch2.epoch_id,
                epoch_root=epoch2.epoch_root,
                root_signature=epoch2.root_signature,
                leaf_count=epoch2.leaf_count,
            ),
            replace(honest[0], leaf_index=honest[0].leaf_index ^ 1),
        ]

    def test_verdict_parity_across_the_tamper_matrix(self, delivered):
        stacks, hop_count, switches, program = delivered
        anchors = _appraiser(switches, program, Telemetry()).policy.anchors
        records = self._variants(stacks)
        truth = [
            anchors.verify(*r.signature_item()[:3]) and r.proof_ok()
            for r in records
        ]
        batched = verify_record_batch(anchors, records, cache=SignatureCache())
        assert batched == truth
        assert truth == [True, True, False, False, False, False, False]
