"""The flight recorder's windowing, codec, and determinism contracts.

Unit-level coverage of :mod:`repro.telemetry.timeseries`: the sparse
delta codec (including a property test over arbitrary cumulative
views), the virtual-tick rule (frame ``w`` covers ``[w·Δ, (w+1)·Δ)``,
ticks never touch the event queue), empty-window omission, ring
eviction accounting, canonical stream merging, and the idempotence of
the gauge collectors the recorder's cumulative view depends on.
"""

import json

import pytest

from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.shardrun import ScenarioSpec, run_sharded
from repro.net.simulator import NetworkError, Simulator
from repro.net.topology import Topology
from repro.telemetry import Telemetry, run_bundle
from repro.telemetry.instrument import collect_simulator, collect_verify_cache
from repro.telemetry.timeseries import (
    FlightRecorder,
    SamplingSpec,
    apply_delta,
    cumulative_at,
    delta_encode,
    install_recorder,
    merge_frame_streams,
    renumber_frame_times,
)


class TestSamplingSpec:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingSpec(interval_s=0.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_frames"):
            SamplingSpec(interval_s=1.0, max_frames=0)


class TestDeltaCodec:
    def test_delta_is_sparse(self):
        prev = {"a": 1.0, "b": 2.0, "c": 3.0}
        curr = {"a": 1.0, "b": 5.0, "c": 3.0, "d": 4.0}
        assert delta_encode(prev, curr) == {"b": 3.0, "d": 4.0}

    def test_apply_delta_round_trips(self):
        prev = {"a": 1.0, "b": 2.0}
        curr = {"a": 4.0, "b": 2.0, "c": 7.0}
        folded = apply_delta(prev, delta_encode(prev, curr))
        assert folded == curr

    def test_cumulative_at_replays_prefix(self):
        frames = [
            {"w": 0, "t": 1.0, "v": {"x": 2.0}},
            {"w": 2, "t": 3.0, "v": {"x": 1.0, "y": 5.0}},
            {"w": 4, "t": 5.0, "v": {"x": -1.0}},
        ]
        assert cumulative_at(frames, 0) == {"x": 2.0}
        assert cumulative_at(frames, 3) == {"x": 3.0, "y": 5.0}
        assert cumulative_at(frames, 4) == {"x": 2.0, "y": 5.0}


class TestDeltaCodecProperties:
    """Hypothesis: encode/apply is exact for any pair of views."""

    def test_round_trip_over_arbitrary_views(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        keys = st.text(
            alphabet="abcdefg.{}=", min_size=1, max_size=8
        )
        # Counters are integer-valued floats in practice; integers keep
        # the float arithmetic exact so the round trip is equality.
        views = st.dictionaries(
            keys,
            st.integers(min_value=0, max_value=2**40).map(float),
            max_size=12,
        )

        @hypothesis.given(prev=views, curr=views)
        @hypothesis.settings(max_examples=200, deadline=None)
        def round_trip(prev, curr):
            delta = delta_encode(prev, curr)
            # Sparseness: no zero entries ever stored.
            assert all(step != 0.0 for step in delta.values())
            folded = apply_delta(prev, delta)
            # Keys that disappeared from curr keep their prev value
            # (counters are monotone; the codec never deletes), and a
            # zero-valued key never seen before stays absent — a zero
            # counter is indistinguishable from no counter.
            expected = dict(prev)
            for key, value in curr.items():
                if value != 0.0 or key in prev:
                    expected[key] = value
            assert folded == expected

        round_trip()


def _ticking_recorder(interval_s=1.0, max_frames=8192):
    tel = Telemetry(active=True)
    rec = FlightRecorder(
        SamplingSpec(interval_s=interval_s, max_frames=max_frames), tel
    )
    return tel, rec


class TestFlightRecorder:
    def test_frame_covers_half_open_window(self):
        tel, rec = _ticking_recorder()
        tel.counter("pkts").inc()        # t in [0, 1) -> window 0
        rec.advance_to(1.0)              # tick at exactly t=1 fires first
        tel.counter("pkts").inc()        # the event at t=1 -> window 1
        rec.finish(1.5)
        assert rec.frames == [
            {"w": 0, "t": 1.0, "v": {"pkts": 1.0}},
            {"w": 1, "t": 2.0, "v": {"pkts": 1.0}},
        ]

    def test_idle_windows_produce_no_frames(self):
        tel, rec = _ticking_recorder()
        tel.counter("pkts").inc()
        rec.advance_to(10.0)             # nine idle windows in between
        tel.counter("pkts").inc()
        rec.finish(10.2)
        assert [f["w"] for f in rec.frames] == [0, 10]

    def test_frame_times_are_nominal_not_clock_reads(self):
        tel, rec = _ticking_recorder(interval_s=0.5)
        tel.counter("pkts").inc()
        rec.advance_to(1.7)              # irregular event times
        assert rec.frames[0]["t"] == pytest.approx(0.5)

    def test_finish_is_idempotent(self):
        tel, rec = _ticking_recorder()
        tel.counter("pkts").inc()
        rec.finish(0.3)
        first = rec.frames
        rec.finish(5.0)
        tel.counter("pkts").inc()
        rec.finish(9.0)
        assert rec.frames == first

    def test_ring_eviction_is_counted(self):
        tel, rec = _ticking_recorder(max_frames=3)
        for window in range(6):
            tel.counter("pkts").inc()
            rec.advance_to(float(window + 1))
        assert len(rec.frames) == 3
        assert rec.frames_dropped == 3
        assert [f["w"] for f in rec.frames] == [3, 4, 5]

    def test_sim_seconds_histograms_join_the_view(self):
        tel, rec = _ticking_recorder()
        tel.histogram("ra.appraise_sim_seconds", appraiser="a").observe(0.25)
        tel.histogram("ra.appraise_seconds", appraiser="a").observe(0.25)
        rec.finish(0.1)
        (frame,) = rec.frames
        assert frame["v"] == {
            "ra.appraise_sim_seconds.count{appraiser=a}": 1.0,
            "ra.appraise_sim_seconds.sum{appraiser=a}": 0.25,
        }, "wall-clock histograms must stay out of frames"


class TestSimulatorIntegration:
    def _sim(self):
        tel = Telemetry(active=True)
        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1)
        sim = Simulator(topo, telemetry=tel)
        h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
        h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
        sim.bind(h1)
        sim.bind(h2)
        return sim, h1

    def _send(self, h1, seq):
        h1.send_udp(
            dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
            src_port=1000, dst_port=2000, payload=bytes([seq]),
        )

    def test_virtual_ticks_leave_event_count_untouched(self):
        sim_plain, h1 = self._sim()
        for i in range(4):
            sim_plain.schedule(i * 1e-3, lambda s=i: self._send(h1, s))
        sim_plain.run()

        sim_rec, h1b = self._sim()
        install_recorder(sim_rec, SamplingSpec(interval_s=1e-3))
        for i in range(4):
            sim_rec.schedule(i * 1e-3, lambda s=i: self._send(h1b, s))
        sim_rec.run()

        assert (
            sim_rec.stats.events_processed
            == sim_plain.stats.events_processed
        )
        assert sim_rec.recorder.frames, "sampling should have recorded"

    def test_frames_replay_to_the_counters_across_runs(self):
        """The network counts reach the registry only when a run ends;
        frames sampled after one run must still see the live counts."""
        sim, h1 = self._sim()
        recorder = install_recorder(sim, SamplingSpec(interval_s=1e-3))
        for i in range(4):
            sim.schedule(i * 1e-3, lambda s=i: self._send(h1, s))
        sim.run(until=1.5e-3)  # collect_simulator writes 2 packets
        sim.run()
        recorder.finish(sim.clock.now)
        tx = "net.link.tx_packets{link=h1:1->h2:1}"
        # One packet per 1 ms window, each in the window it was sent in.
        assert [frame["v"].get(tx) for frame in recorder.frames] == [1.0] * 4
        counters = sim.telemetry.metrics.snapshot()["counters"]
        replayed = cumulative_at(recorder.frames, recorder.frames[-1]["w"])
        assert counters[tx] == 4.0
        for key, value in counters.items():
            assert replayed[key] == value, key

    def test_install_recorder_twice_raises(self):
        sim, _ = self._sim()
        install_recorder(sim, SamplingSpec(interval_s=1.0))
        with pytest.raises(NetworkError, match="already"):
            install_recorder(sim, SamplingSpec(interval_s=1.0))


class TestStreamMerging:
    def test_merge_sums_per_window(self):
        a = [
            {"w": 0, "t": 1.0, "v": {"x": 1.0}},
            {"w": 2, "t": 3.0, "v": {"x": 2.0}},
        ]
        b = [
            {"w": 0, "t": 1.0, "v": {"x": 3.0, "y": 1.0}},
            {"w": 1, "t": 2.0, "v": {"y": 4.0}},
        ]
        merged = merge_frame_streams([a, b])
        assert [f["w"] for f in merged] == [0, 1, 2]
        assert merged[0]["v"] == {"x": 4.0, "y": 1.0}
        assert merged[1]["v"] == {"y": 4.0}

    def test_merge_drops_windows_that_cancel(self):
        a = [{"w": 0, "t": 1.0, "v": {"x": 1.0}}]
        b = [{"w": 0, "t": 1.0, "v": {"x": -1.0}}]
        assert merge_frame_streams([a, b]) == []

    def test_renumber_stamps_nominal_times(self):
        frames = merge_frame_streams(
            [[{"w": 3, "t": None, "v": {"x": 1.0}}]]
        )
        renumber_frame_times(frames, 0.5)
        assert frames[0]["t"] == pytest.approx(2.0)

    def test_single_stream_merge_is_identity_on_frames(self):
        stream = [
            {"w": 0, "t": 1.0, "v": {"x": 1.0}},
            {"w": 4, "t": 5.0, "v": {"x": 2.0, "y": 1.0}},
        ]
        merged = renumber_frame_times(merge_frame_streams([stream]), 1.0)
        assert merged == stream


class TestExportDocument:
    def test_runtime_section_excluded_from_canonical_export(self):
        # The recorder's wall-clock runtime (backlog, busy seconds)
        # rides in the run bundle's runtime part, never beside the
        # frames in its deterministic part.
        def build(sim):
            h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
            sim.bind(h1)
            sim.bind(Host("h2", mac=2, ip=ip_to_int("10.0.0.2")))
            for i in range(4):
                sim.schedule(i * 1e-3, lambda: h1.send_udp(
                    dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
                    src_port=1000, dst_port=2000, payload=b"x",
                ))

        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1)
        run = run_sharded(ScenarioSpec(
            topology=topo, build=build, sampling=SamplingSpec(interval_s=1e-3)
        ))
        doc = run_bundle(run.telemetry, run)
        assert doc["deterministic"]["frames"] == run.frames != []
        assert set(doc["runtime"]["frames_runtime"][0]) == {"backlog", "busy_s"}
        canonical = json.dumps(doc["deterministic"])
        assert "busy_s" not in canonical and "backlog" not in canonical


class TestCollectorIdempotence:
    """The recorder samples gauges the collectors own: collecting twice
    must not double-count (gauges are point-in-time, last writer wins)."""

    def test_collect_simulator_twice_is_stable(self):
        tel = Telemetry(active=True)
        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1)
        sim = Simulator(topo, telemetry=tel)
        h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
        h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
        sim.bind(h1)
        sim.bind(h2)
        h1.send_udp(
            dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
            src_port=1000, dst_port=2000, payload=b"x",
        )
        sim.run()  # runs collect_simulator once itself
        collect_simulator(tel, sim)
        once = tel.metrics.snapshot()
        collect_simulator(tel, sim)
        collect_simulator(tel, sim)
        assert tel.metrics.snapshot() == once

    def test_collect_verify_cache_twice_is_stable(self):
        tel = Telemetry(active=True)
        collect_verify_cache(tel)
        once = tel.metrics.snapshot()
        collect_verify_cache(tel)
        assert tel.metrics.snapshot() == once
