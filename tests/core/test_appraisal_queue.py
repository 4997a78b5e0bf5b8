"""Metamorphic oracle: a queue appraises exactly like one packet at a time.

``PathAppraiser.appraise_packets(queue)`` decodes every shim once,
settles all stacks' signatures with one memoized batch and then judges
each packet. Against ``[appraise_packet(p, c) for p, c in queue]`` on an
identical appraiser, with telemetry on and the process-wide verify
cache emptied before each side, it must give the same verdicts, the
same audit export and the same cache accounting (stats and contents,
in recency order).
"""

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.core.appraisal import PathAppraiser
from repro.core.fabric import FatTreeShape, run_fabric_traffic
from repro.core.fleet import attested_chain
from repro.core.usecases import config_assurance_spec
from repro.crypto import ed25519
from repro.evidence.verify import VerifyCacheStats, shared_cache
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import BatchingSpec, CompositionMode, EvidenceConfig
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pisa.programs import firewall_program
from repro.telemetry.instrument import Telemetry


@pytest.fixture
def cache(monkeypatch):
    """The shared verify cache, emptied here and restored afterwards."""
    monkeypatch.setattr(shared_cache, "_verdicts", OrderedDict())
    monkeypatch.setattr(shared_cache, "stats", VerifyCacheStats())
    return shared_cache


@pytest.fixture
def flushes(monkeypatch):
    """Counts calls into the Ed25519 batch check (one per flush)."""
    calls = []
    original = ed25519.verify_batch

    def counting(items, stats=None):
        calls.append(len(items))
        return original(items, stats)

    monkeypatch.setattr(ed25519, "verify_batch", counting)
    return calls


def _uc1(**spec_kwargs):
    """UC1's delivered packets, its compiled AP1 and its appraiser."""
    spec = config_assurance_spec(**spec_kwargs)
    sim = Simulator(spec.make_topology())
    ctx = spec.build(sim)
    sim.run()
    if spec.drain is not None:
        spec.drain(sim, ctx)
        sim.run()
    queue = [(packet, ctx["policy"]) for packet in ctx["dst"].received_packets]
    return queue, ctx["appraiser"]


def _pointwise(packets=6):
    """A 3-switch POINTWISE chain: its inertia-cached records repeat
    the same signature in every packet."""
    sim = Simulator(linear_topology(3))
    chain = attested_chain(
        sim,
        [firewall_program()] * 3,
        config=EvidenceConfig(composition=CompositionMode.POINTWISE),
    )
    compiled, shim = chain.ap1(CompositionMode.POINTWISE)
    for seq in range(packets):
        chain.send(shim, seq.to_bytes(4, "big"), 1000, 2000)
    sim.run()
    return [(p, compiled) for p in chain.dst.received_packets], chain.appraiser()


def _both_ways(queue, appraiser, cache):
    """(verdicts, audit export, cache stats, cache contents), first one
    packet at a time, then as one queue."""
    outcomes = []
    for appraise in (
        lambda a: [a.appraise_packet(p, compiled=c) for p, c in queue],
        lambda a: a.appraise_packets(queue),
    ):
        cache.clear()
        telemetry = Telemetry(active=True)
        fresh = PathAppraiser(
            appraiser.name, appraiser.policy, telemetry=telemetry
        )
        verdicts = appraise(fresh)
        outcomes.append((
            verdicts,
            [event.as_dict() for event in telemetry.audit.events],
            replace(cache.stats),
            list(cache._verdicts.items()),
        ))
    return outcomes


def _assert_same(queue, appraiser, cache):
    sequential, queued = _both_ways(queue, appraiser, cache)
    assert queued[0] == sequential[0]
    assert queued[1] == sequential[1]
    assert queued[2] == sequential[2]
    assert queued[3] == sequential[3]
    return sequential


class TestQueueEqualsSequential:
    def test_uc1_athens_swap(self, cache):
        queue, appraiser = _uc1(packets=6, swap_at=3, switch_count=3)
        verdicts, journal, stats, _ = _assert_same(queue, appraiser, cache)
        assert [v.accepted for v in verdicts] == [True] * 3 + [False] * 3
        assert any(e["kind"] == "check.failed" for e in journal)
        assert stats.misses == 18

    def test_uc1_epoch_batched_roots_hit_within_the_queue(self, cache):
        queue, appraiser = _uc1(
            packets=6, swap_at=None, switch_count=2,
            batching=BatchingSpec(max_records=3),
        )
        verdicts, _, stats, _ = _assert_same(queue, appraiser, cache)
        assert all(v.accepted for v in verdicts)
        # One root per (switch, epoch): 2 switches x 2 epochs.
        assert (stats.misses, stats.hits) == (4, 8)

    def test_pointwise_cached_records_hit_within_the_queue(self, cache):
        queue, appraiser = _pointwise()
        verdicts, _, stats, _ = _assert_same(queue, appraiser, cache)
        assert all(v.accepted for v in verdicts)
        assert stats.hits > 0

    def test_sampled_path(self, cache):
        queue, appraiser = _uc1(
            packets=6, swap_at=None, switch_count=3,
            sampling=SamplingSpec(mode=SamplingMode.ONE_IN_N, n=2),
        )
        verdicts, _, _, _ = _assert_same(queue, appraiser, cache)
        assert all(v.accepted for v in verdicts)
        assert any(v.records_checked < v.hop_count for v in verdicts)

    def test_damaged_shims(self, cache):
        queue, appraiser = _uc1(packets=6, swap_at=None, switch_count=3)

        def reshim(index, **fields):
            packet, compiled = queue[index]
            queue[index] = (
                packet.with_shim(replace(packet.ra_shim, **fields)), compiled
            )

        body = queue[1][0].ra_shim.body
        reshim(1, body=body[:-1] + bytes([body[-1] ^ 0x01]))  # flipped byte
        reshim(2, body=b"\x10\xff")  # undecodable
        packet, compiled = queue[4]
        queue[4] = (packet.with_shim(None), compiled)  # no shim
        verdicts, journal, _, _ = _assert_same(queue, appraiser, cache)
        assert [v.accepted for v in verdicts] == [
            True, False, False, True, False, True
        ]
        assert "undecodable" in verdicts[2].failures[0]
        assert verdicts[4].failures == ("packet carries no RA shim header",)

    def test_empty_queue(self, cache):
        _, appraiser = _uc1(packets=1, swap_at=None, switch_count=1)
        assert appraiser.appraise_packets([]) == []


class TestOneFlush:
    def test_queue_settles_every_stack_in_one_check(self, cache, flushes):
        queue, appraiser = _uc1(packets=6, swap_at=None, switch_count=3)
        appraiser.appraise_packets(queue)
        assert flushes == [18]

    def test_packet_alone_is_its_own_flush(self, cache, flushes):
        queue, appraiser = _uc1(packets=2, swap_at=None, switch_count=3)
        for packet, compiled in queue:
            appraiser.appraise_packet(packet, compiled)
        assert flushes == [3, 3]

    def test_fabric_harvest_flushes_in_band_and_out_of_band_once_each(
        self, cache, flushes
    ):
        result = run_fabric_traffic(
            FatTreeShape(
                bulk_flows=4, web_sessions=0,
                attested_flows=4, attested_packets=3,
            ),
            seed=3,
        )
        assert sum(sum(v) for v in result.verdicts.values()) == 6
        assert len(flushes) == 2
        assert sum(flushes) == result.attested_hops
