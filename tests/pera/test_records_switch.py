"""Tests for hop records and the PERA switch on a simulated network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import HashChain, digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.evidence.codec import (
    decode_hop_body,
    decode_record_stack,
    encode_hop_body,
    encode_record_stack,
)
from repro.evidence.nodes import HopEvidence
from repro.pera.inertia import InertiaClass
from repro.pera.records import verify_record_batch
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pera.switch import PeraSwitch
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.util.errors import CodecError


class TestHopRecord:
    def make_record(self, **overrides):
        defaults = dict(
            place="s1",
            measurements=(
                (InertiaClass.HARDWARE, b"\x01" * 32),
                (InertiaClass.PROGRAM, b"\x02" * 32),
            ),
            sequence=7,
            chain_head=b"\x03" * 32,
            packet_digest=b"\x04" * 32,
        )
        defaults.update(overrides)
        return HopEvidence(**defaults)

    def test_round_trip(self):
        keys = KeyPair.generate("s1")
        record = self.make_record().sign_with(keys)
        assert decode_hop_body(encode_hop_body(record)) == record

    def test_minimal_round_trip(self):
        record = HopEvidence(place="s1", measurements=())
        assert decode_hop_body(encode_hop_body(record)) == record

    def test_sign_verify(self):
        keys = KeyPair.generate("s1")
        anchors = KeyRegistry()
        anchors.register_pair(keys)
        record = self.make_record().sign_with(keys)
        assert verify_record_batch(anchors, [record]) == [True]

    def test_tampered_measurement_fails_verification(self):
        keys = KeyPair.generate("s1")
        anchors = KeyRegistry()
        anchors.register_pair(keys)
        record = self.make_record().sign_with(keys)
        tampered = HopEvidence(
            place=record.place,
            measurements=((InertiaClass.HARDWARE, b"\xff" * 32),)
            + record.measurements[1:],
            sequence=record.sequence,
            chain_head=record.chain_head,
            packet_digest=record.packet_digest,
            signature=record.signature,
        )
        assert verify_record_batch(anchors, [tampered]) == [False]

    def test_verify_with_pseudonym_signer(self):
        keys = KeyPair.generate("s1-real")
        anchors = KeyRegistry()
        anchors.register_pair(keys)
        record = self.make_record(place="pseu-abc").sign_with(keys)
        # The pseudonym has no anchor.
        assert verify_record_batch(anchors, [record]) == [False]
        assert verify_record_batch(anchors, [record], signers=["s1-real"]) == [True]

    def test_measurement_for(self):
        record = self.make_record()
        assert record.measurement_for(InertiaClass.HARDWARE) == b"\x01" * 32
        assert record.measurement_for(InertiaClass.TABLES) is None

    def test_stack_round_trip(self):
        records = [self.make_record(sequence=i) for i in range(3)]
        assert decode_record_stack(encode_record_stack(records)) == records

    def test_stack_skips_foreign_tlvs(self):
        from repro.util.tlv import Tlv, TlvCodec

        stack = encode_record_stack([self.make_record()])
        mixed = TlvCodec.encode([Tlv(0x77, b"policy")]) + stack
        assert len(decode_record_stack(mixed)) == 1

    def test_malformed_record_rejected(self):
        with pytest.raises(CodecError):
            decode_hop_body(b"\x01\x00\x02ab" + b"\xff\x00\x01x")
        with pytest.raises(CodecError, match="missing place"):
            decode_hop_body(b"")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=40))
    def test_round_trip_property(self, sequence, blob):
        record = HopEvidence(
            place="sw",
            measurements=((InertiaClass.TABLES, blob),),
            sequence=sequence,
        )
        assert decode_hop_body(encode_hop_body(record)) == record


def build_pera_chain(switch_count=3, config=None, out_of_band=False):
    """h-src — s1..sN — h-dst, all PERA switches, routed to h-dst."""
    topo = linear_topology(switch_count)
    if out_of_band:
        topo.add_node("appraiser", kind="host")
        topo.add_link("appraiser", 1, "s1", 9)
    sim = Simulator(topo)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    appraiser_host = None
    if out_of_band:
        appraiser_host = Host("appraiser", mac=0x3, ip=ip_to_int("10.0.9.9"))
        sim.bind(appraiser_host)
    switches = []
    for i in range(1, switch_count + 1):
        switch = PeraSwitch(
            f"s{i}",
            config=config,
            appraiser_node="appraiser" if out_of_band else None,
            out_of_band=out_of_band,
        )
        sim.bind(switch)
        switch.runtime.arbitrate("ctl", 1)
        switch.runtime.set_forwarding_pipeline_config(
            "ctl", ipv4_forwarding_program()
        )
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        switches.append(switch)
    return sim, src, dst, switches, appraiser_host


def send_ra_packet(src, dst, payload=b"data"):
    shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY, body=b"")
    return src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
        payload=payload, ra_shim=shim,
    )


class TestPeraSwitchInBand:
    def test_records_accumulate_along_path(self):
        sim, src, dst, switches, _ = build_pera_chain(3)
        send_ra_packet(src, dst)
        sim.run()
        assert len(dst.received_packets) == 1
        packet = dst.received_packets[0]
        records = decode_record_stack(packet.ra_shim.body)
        assert [r.place for r in records] == ["s1", "s2", "s3"]
        assert packet.ra_shim.hop_count == 3

    def test_all_signatures_verify(self):
        sim, src, dst, switches, _ = build_pera_chain(3)
        send_ra_packet(src, dst)
        sim.run()
        anchors = KeyRegistry()
        for switch in switches:
            anchors.register_pair(switch.keys)
        records = decode_record_stack(dst.received_packets[0].ra_shim.body)
        assert all(verify_record_batch(anchors, records))

    def test_non_ra_traffic_untouched(self):
        sim, src, dst, switches, _ = build_pera_chain(2)
        src.send_udp(dst_mac=dst.mac, dst_ip=dst.ip, src_port=1, dst_port=2,
                     payload=b"plain")
        sim.run()
        packet = dst.received_packets[0]
        assert packet.ra_shim is None
        assert all(s.ra_stats.packets_attested == 0 for s in switches)

    def test_default_detail_measures_hardware_and_program(self):
        sim, src, dst, _, _ = build_pera_chain(1)
        send_ra_packet(src, dst)
        sim.run()
        record = decode_record_stack(dst.received_packets[0].ra_shim.body)[0]
        classes = {inertia for inertia, _ in record.measurements}
        assert classes == {InertiaClass.HARDWARE, InertiaClass.PROGRAM}
        assert record.chain_head is None
        assert record.packet_digest is None

    def test_chained_composition_chains(self):
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        sim, src, dst, _, _ = build_pera_chain(3, config=config)
        send_ra_packet(src, dst)
        sim.run()
        records = decode_record_stack(dst.received_packets[0].ra_shim.body)
        # Each hop's chain head extends the previous one.
        head = HashChain.GENESIS
        for record in records:
            link = digest(
                b"".join(v for _, v in record.measurements),
                domain="hop-measurements",
            )
            chain = HashChain(head=head)
            head = chain.extend(link)
            assert record.chain_head == head

    def test_traffic_path_includes_packet_digest(self):
        config = EvidenceConfig(composition=CompositionMode.TRAFFIC_PATH)
        sim, src, dst, _, _ = build_pera_chain(1, config=config)
        send_ra_packet(src, dst, payload=b"bind-me")
        sim.run()
        record = decode_record_stack(dst.received_packets[0].ra_shim.body)[0]
        assert record.packet_digest is not None

    def test_pointwise_caches_signed_records(self):
        sim, src, dst, switches, _ = build_pera_chain(1)
        for _ in range(5):
            send_ra_packet(src, dst)
        sim.run()
        stats = switches[0].ra_stats
        assert stats.packets_attested == 5
        assert stats.signatures_produced == 1  # one real signing
        assert stats.records_from_cache == 4

    def test_chained_signs_every_packet(self):
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        sim, src, dst, switches, _ = build_pera_chain(1, config=config)
        for _ in range(5):
            send_ra_packet(src, dst)
        sim.run()
        assert switches[0].ra_stats.signatures_produced == 5

    def test_sampling_skips_but_counts_hops(self):
        config = EvidenceConfig(
            sampling=SamplingSpec(mode=SamplingMode.ONE_IN_N, n=2)
        )
        sim, src, dst, switches, _ = build_pera_chain(1, config=config)
        for _ in range(4):
            send_ra_packet(src, dst)
        sim.run()
        stats = switches[0].ra_stats
        assert stats.packets_attested == 2
        assert stats.packets_skipped_by_sampling == 2
        # Every packet still carries the hop count.
        assert all(
            p.ra_shim.hop_count == 1 for p in dst.received_packets
        )

    def test_evidence_gate_drops(self):
        sim, src, dst, switches, _ = build_pera_chain(1)
        switches[0].evidence_gate = lambda ctx, records: len(records) > 0
        send_ra_packet(src, dst)  # no prior records -> gated
        sim.run()
        assert dst.received_packets == []
        assert switches[0].ra_stats.gated_drops == 1

    def test_pseudonymous_identity(self):
        sim, src, dst, switches, _ = build_pera_chain(1)
        switches[0].pseudonym = "pseu-1234"
        send_ra_packet(src, dst)
        sim.run()
        record = decode_record_stack(dst.received_packets[0].ra_shim.body)[0]
        assert record.place == "pseu-1234"
        anchors = KeyRegistry()
        anchors.register_pair(switches[0].keys)
        assert verify_record_batch(anchors, [record], signers=["s1"]) == [True]

    def test_chained_records_carry_ingress_port(self):
        """Paper UC1: evidence indicates the packet 'reached switch S1
        on a specific network port'."""
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        sim, src, dst, _, _ = build_pera_chain(2, config=config)
        send_ra_packet(src, dst)
        sim.run()
        records = decode_record_stack(dst.received_packets[0].ra_shim.body)
        assert [r.ingress_port for r in records] == [1, 1]

    def test_cached_records_omit_packet_scoped_fields(self):
        """A cached (reusable) record must not pin an ingress port."""
        sim, src, dst, switches, _ = build_pera_chain(1)  # pointwise
        send_ra_packet(src, dst)
        sim.run()
        record = decode_record_stack(dst.received_packets[0].ra_shim.body)[0]
        assert record.ingress_port is None

    def test_cache_invalidation_on_state_change(self):
        sim, src, dst, switches, _ = build_pera_chain(1)
        send_ra_packet(src, dst)
        sim.run()
        # A program install on the live switch: its P4Runtime observer
        # drops the cached signed record.
        switches[0].runtime.set_forwarding_pipeline_config(
            "ctl", ipv4_forwarding_program()
        )
        switches[0].runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        send_ra_packet(src, dst)
        sim.run()
        assert switches[0].ra_stats.signatures_produced == 2

    def test_ra_cost_tracked(self):
        sim, src, dst, switches, _ = build_pera_chain(1)
        send_ra_packet(src, dst)
        sim.run()
        assert switches[0].ra_cost > 0


class TestPeraSwitchOutOfBand:
    def test_evidence_reaches_appraiser_via_control(self):
        sim, src, dst, switches, appraiser = build_pera_chain(
            2, out_of_band=True
        )
        send_ra_packet(src, dst)
        sim.run()
        # Dataplane packet arrives without accumulated records...
        packet = dst.received_packets[0]
        assert decode_record_stack(packet.ra_shim.body) == []
        assert packet.ra_shim.hop_count == 2
        # ...while records went out of band.
        assert len(appraiser.control_received) == 2
        record = appraiser.control_received[0][2]
        assert isinstance(record, HopEvidence)

    def test_out_of_band_requires_appraiser(self):
        from repro.util.errors import PipelineError

        sim, src, dst, switches, _ = build_pera_chain(1)
        switches[0].out_of_band = True  # appraiser_node is None
        send_ra_packet(src, dst)
        with pytest.raises(PipelineError, match="out-of-band"):
            sim.run()


class TestCryptoCallCounts:
    """Pin the cache's crypto economics with raw Ed25519 call counts.

    The evidence-cache hit path must be crypto-free: a pointwise switch
    signs once on the miss and then serves every later packet from the
    cache without signing *or* re-verifying the cached record (the
    record was signed locally; appraisal is the verifier's job).
    """

    @pytest.fixture
    def crypto_calls(self, monkeypatch):
        from repro.crypto import ed25519

        calls = {"sign": 0, "verify": 0}
        real_sign = ed25519.SigningKey.sign
        real_verify = ed25519.VerifyKey.verify

        def counting_sign(self, message):
            calls["sign"] += 1
            return real_sign(self, message)

        def counting_verify(self, message, signature):
            calls["verify"] += 1
            return real_verify(self, message, signature)

        monkeypatch.setattr(ed25519.SigningKey, "sign", counting_sign)
        monkeypatch.setattr(ed25519.VerifyKey, "verify", counting_verify)
        return calls

    def test_cache_hit_path_does_no_crypto(self, crypto_calls):
        sim, src, dst, switches, _ = build_pera_chain(1)  # pointwise
        for _ in range(5):
            send_ra_packet(src, dst)
        sim.run()
        stats = switches[0].ra_stats
        assert stats.records_from_cache == 4
        assert crypto_calls["sign"] == 1  # the miss signs once...
        assert crypto_calls["verify"] == 0  # ...and no hit re-verifies

    def test_batched_mode_signs_once_per_epoch(self, crypto_calls):
        from repro.pera.config import BatchingSpec

        config = EvidenceConfig(
            composition=CompositionMode.CHAINED,
            batching=BatchingSpec(max_records=4, max_delay_s=0.0),
        )
        sim, src, dst, switches, _ = build_pera_chain(1, config=config)
        for _ in range(8):
            send_ra_packet(src, dst)
        sim.run()
        assert len(dst.received_packets) == 8
        assert crypto_calls["sign"] == 2  # 8 packets, 2 epoch roots
        assert crypto_calls["verify"] == 0
