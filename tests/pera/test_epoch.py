"""Epoch-batched signing: the batcher state machine and the switch around it.

One Merkle-root signature per epoch replaces one Ed25519 signature per
packet. These tests pin the state machine (count seal, timer seal,
flush, FIFO release, epoch numbering) and the switch integration
(in-band parking, out-of-band release, stats and audit accounting).
"""

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.nodes import epoch_root_payload
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.evidence.nodes import BatchedHopEvidence, HopEvidence
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import BatchingSpec, CompositionMode, EvidenceConfig
from repro.pera.epoch import EpochBatcher
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, verify_record_batch
from repro.pera.switch import PeraSwitch
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry import AuditKind, Telemetry

KEYS = KeyPair.generate("s1")


def make_record(sequence=0):
    return HopEvidence(
        place="s1",
        measurements=(
            (InertiaClass.HARDWARE, b"\x01" * 32),
            (InertiaClass.PROGRAM, b"\x02" * 32),
        ),
        sequence=sequence,
    )


def anchors_for(keys=KEYS):
    registry = KeyRegistry()
    registry.register_pair(keys)
    return registry


class TestEpochBatcher:
    def build(self, max_records=4):
        return EpochBatcher(
            "s1", KEYS, BatchingSpec(max_records=max_records, max_delay_s=0.0)
        )

    def test_empty_seal_is_a_no_op(self):
        batcher = self.build()
        assert batcher.seal() is None
        assert batcher.stats.epochs_sealed == 0

    def test_seal_releases_fifo_with_valid_proofs(self):
        batcher = self.build()
        released = []
        for sequence in range(3):
            batcher.add(make_record(sequence), released.append)
        sealed = batcher.seal(reason="count")
        assert sealed is not None
        assert sealed.leaf_count == 3
        assert [r.sequence for r in released] == [0, 1, 2]
        anchors = anchors_for()
        for index, record in enumerate(released):
            assert isinstance(record, BatchedHopEvidence)
            assert record.signature == b""
            assert record.epoch_id == sealed.epoch_id
            assert record.epoch_root == sealed.root
            assert record.leaf_index == index
            assert record.leaf_count == 3
            assert verify_record_batch(anchors, [record]) == [True]

    def test_on_sealed_fires_before_any_release(self):
        batcher = self.build()
        order = []
        batcher.add(make_record(), lambda r: order.append("release"))
        batcher.add(make_record(1), lambda r: order.append("release"))
        batcher.seal(on_sealed=lambda s: order.append("sealed"))
        assert order == ["sealed", "release", "release"]

    def test_epoch_ids_increment_and_roots_differ(self):
        batcher = self.build()
        batcher.add(make_record(0), lambda r: None)
        first = batcher.seal()
        batcher.add(make_record(1), lambda r: None)
        second = batcher.seal()
        assert (first.epoch_id, second.epoch_id) == (1, 2)
        assert first.root != second.root

    def test_seal_if_is_a_no_op_for_a_closed_epoch(self):
        """The timer-callback shape: a timer armed for epoch N must do
        nothing once N already sealed on record count."""
        batcher = self.build()
        batcher.add(make_record(), lambda r: None)
        armed_for = batcher.epoch_id
        batcher.seal(reason="count")
        batcher.add(make_record(1), lambda r: None)
        assert batcher.seal_if(armed_for) is None
        assert batcher.open_count == 1  # epoch 2 still open
        # But the matching epoch id does seal.
        assert batcher.seal_if(batcher.epoch_id).epoch_id == 2

    def test_stats_track_seal_reasons_and_sizes(self):
        batcher = self.build()
        for sequence in range(3):
            batcher.add(make_record(sequence), lambda r: None)
        batcher.seal(reason="count")
        batcher.add(make_record(3), lambda r: None)
        batcher.seal(reason="timer")
        batcher.add(make_record(4), lambda r: None)
        batcher.seal()
        stats = batcher.stats
        assert stats.epochs_sealed == 3
        assert stats.records_batched == 5
        assert stats.sealed_on_count == 1
        assert stats.sealed_on_timer == 1
        assert stats.sealed_on_flush == 1
        assert stats.largest_epoch == 3

    def test_root_signature_binds_place_epoch_root_and_count(self):
        batcher = self.build()
        batcher.add(make_record(), lambda r: None)
        sealed = batcher.seal()
        verify_key = KEYS.verify_key
        good = epoch_root_payload("s1", sealed.epoch_id, sealed.root, 1)
        assert verify_key.verify(good, sealed.root_signature)
        # Any change of scope — another switch, epoch, or size — breaks it.
        for forged in (
            epoch_root_payload("s2", sealed.epoch_id, sealed.root, 1),
            epoch_root_payload("s1", sealed.epoch_id + 1, sealed.root, 1),
            epoch_root_payload("s1", sealed.epoch_id, sealed.root, 2),
        ):
            assert not verify_key.verify(forged, sealed.root_signature)

    def test_spec_rejects_empty_epochs(self):
        with pytest.raises(ValueError):
            BatchingSpec(max_records=0)


def build_batched_chain(spec, switch_count=1, out_of_band=False, telemetry=None):
    """h-src — s1..sN — h-dst with chained+batched PERA switches."""
    config = EvidenceConfig(
        composition=CompositionMode.CHAINED, batching=spec
    )
    topo = linear_topology(switch_count)
    if out_of_band:
        topo.add_node("appraiser", kind="host")
        topo.add_link("appraiser", 1, "s1", 9)
    sim = Simulator(topo, telemetry=telemetry)
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


class TestBatchedSwitchInBand:
    def test_count_seal_delivers_proof_bearing_records(self):
        spec = BatchingSpec(max_records=2, max_delay_s=0.0)
        sim, src, dst, switches, _ = build_batched_chain(spec)
        for _ in range(4):
            send_ra_packet(src, dst)
        sim.run()
        assert len(dst.received_packets) == 4
        anchors = anchors_for(switches[0].keys)
        epoch_ids = []
        for packet in dst.received_packets:
            (record,) = decode_record_stack(packet.ra_shim.body)
            assert isinstance(record, BatchedHopEvidence)
            assert verify_record_batch(anchors, [record]) == [True]
            epoch_ids.append(record.epoch_id)
        assert epoch_ids == [1, 1, 2, 2]
        stats = switches[0].ra_stats
        assert stats.packets_attested == 4
        assert stats.signatures_produced == 2  # one per epoch, not per packet
        assert stats.epochs_sealed == 2
        assert stats.records_batched == 4

    def test_packets_park_until_flush(self):
        spec = BatchingSpec(max_records=8, max_delay_s=0.0)
        sim, src, dst, switches, _ = build_batched_chain(spec)
        for _ in range(3):
            send_ra_packet(src, dst)
        sim.run()
        assert dst.received_packets == []  # parked: epoch still open
        switches[0].flush_epochs()
        sim.run()
        assert len(dst.received_packets) == 3
        assert switches[0].epoch_batcher.stats.sealed_on_flush == 1

    def test_timer_seals_a_partial_epoch(self):
        spec = BatchingSpec(max_records=100, max_delay_s=0.002)
        sim, src, dst, switches, _ = build_batched_chain(spec)
        for _ in range(2):
            send_ra_packet(src, dst)
        sim.run()  # runs past the timer event
        assert len(dst.received_packets) == 2
        assert switches[0].epoch_batcher.stats.sealed_on_timer == 1
        assert switches[0].ra_stats.signatures_produced == 1

    def test_release_preserves_chained_composition(self):
        """Records released from one epoch still chain across hops."""
        spec = BatchingSpec(max_records=1, max_delay_s=0.0)
        sim, src, dst, switches, _ = build_batched_chain(spec, switch_count=2)
        send_ra_packet(src, dst)
        sim.run()
        records = decode_record_stack(dst.received_packets[0].ra_shim.body)
        assert [r.place for r in records] == ["s1", "s2"]
        assert all(r.chain_head is not None for r in records)

    def test_epoch_sealed_audit_event(self):
        telemetry = Telemetry(active=True)
        spec = BatchingSpec(max_records=2, max_delay_s=0.0)
        sim, src, dst, switches, _ = build_batched_chain(
            spec, telemetry=telemetry
        )
        for _ in range(2):
            send_ra_packet(src, dst)
        sim.run()
        sealed = [
            e for e in telemetry.audit.events
            if e.kind == AuditKind.EPOCH_SEALED
        ]
        assert len(sealed) == 1
        assert sealed[0].actor == "s1"
        assert sealed[0].detail["records"] == 2
        assert sealed[0].detail["reason"] == "count"
        made = [
            e for e in telemetry.audit.events
            if e.kind == AuditKind.SIGNATURE_MADE
        ]
        assert len(made) == 1  # the root signature, not two per-packet ones
        assert made[0].detail["epoch"] == 1


class TestBatchedSwitchOutOfBand:
    def test_records_reach_appraiser_after_seal(self):
        spec = BatchingSpec(max_records=2, max_delay_s=0.0)
        sim, src, dst, switches, appraiser = build_batched_chain(
            spec, out_of_band=True
        )
        for _ in range(2):
            send_ra_packet(src, dst)
        sim.run()
        # Dataplane packets are NOT parked out of band: the hop count
        # bumps immediately and the shim stays empty.
        assert len(dst.received_packets) == 2
        assert all(
            p.ra_shim.hop_count == 1 and decode_record_stack(p.ra_shim.body) == []
            for p in dst.received_packets
        )
        assert len(appraiser.control_received) == 2
        anchors = anchors_for(switches[0].keys)
        for _, sender, record in appraiser.control_received:
            assert sender == "s1"
            assert isinstance(record, BatchedHopEvidence)
            assert verify_record_batch(anchors, [record]) == [True]

    def test_open_epoch_holds_oob_records_until_flush(self):
        spec = BatchingSpec(max_records=8, max_delay_s=0.0)
        sim, src, dst, switches, appraiser = build_batched_chain(
            spec, out_of_band=True
        )
        send_ra_packet(src, dst)
        sim.run()
        assert len(dst.received_packets) == 1  # packet is not delayed
        assert appraiser.control_received == []  # evidence is
        switches[0].flush_epochs()
        sim.run()
        assert len(appraiser.control_received) == 1

    def test_an_oob_record_is_charged_its_wire_size(self):
        # The epoch header, root signature and proof travel with the
        # record, so the control channel pays for all of them, not only
        # for the flat hop body.
        spec = BatchingSpec(max_records=1, max_delay_s=0.0)
        sim, src, dst, switches, appraiser = build_batched_chain(
            spec, out_of_band=True
        )
        send_ra_packet(src, dst)
        sim.run()
        [(_, _, record)] = appraiser.control_received
        assert isinstance(record, BatchedHopEvidence)
        assert sim.stats.control_messages == 1
        assert sim.stats.control_bytes == len(record.wire)
