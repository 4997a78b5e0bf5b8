"""Flow payload codec, specs, the engine, and FCT accounting."""

from collections import ChainMap

import pytest

from repro.net.headers import ip_to_int
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.util.errors import NetworkError
from repro.workload.flows import (
    FLOW_PAYLOAD_MIN_BYTES,
    FlowEngine,
    FlowSink,
    FlowSpec,
    decode_flow_payload,
    encode_flow_payload,
    flow_completion_times,
)


class TestPayloadCodec:
    def test_roundtrip(self):
        payload = encode_flow_payload(421, 17, 64)
        assert len(payload) == 64
        assert decode_flow_payload(payload) == (421, 17)

    def test_minimum_size_enforced(self):
        encode_flow_payload(1, 0, FLOW_PAYLOAD_MIN_BYTES)
        with pytest.raises(NetworkError):
            encode_flow_payload(1, 0, FLOW_PAYLOAD_MIN_BYTES - 1)

    def test_foreign_payloads_decode_to_none(self):
        assert decode_flow_payload(b"") is None
        assert decode_flow_payload(b"short") is None
        assert decode_flow_payload(b"X" * 64) is None


class TestFlowSpec:
    def test_validation(self):
        base = dict(
            flow_id=1, src="a", dst="b", src_port=1, dst_port=2, packets=3
        )
        FlowSpec(**base)
        with pytest.raises(NetworkError):
            FlowSpec(**{**base, "packets": 0})
        with pytest.raises(NetworkError):
            FlowSpec(**{**base, "payload_bytes": 4})
        with pytest.raises(NetworkError):
            FlowSpec(**{**base, "start_s": -1.0})
        with pytest.raises(NetworkError):
            FlowSpec(**{**base, "dst": "a"})

    def test_last_send_time(self):
        spec = FlowSpec(
            flow_id=1, src="a", dst="b", src_port=1, dst_port=2,
            packets=5, start_s=10e-6, gap_s=2e-6,
        )
        assert spec.last_send_s == pytest.approx(18e-6)


def small_fabric():
    """Two leaves, one spine, four FlowSink hosts, static forwarding."""
    from repro.net.controller import RoutingController
    from repro.pisa.programs import ipv4_forwarding_program
    from repro.pisa.switch import PisaSwitch

    topo = Topology()
    for switch in ("leaf00", "leaf01", "spine00"):
        topo.add_node(switch)
    for li, leaf in enumerate(("leaf00", "leaf01")):
        topo.add_link(leaf, 3, "spine00", 1 + li, latency_s=2e-6)
        for j in range(2):
            topo.add_node(f"h-{leaf}-{j}", kind="host")
            topo.add_link(leaf, 1 + j, f"h-{leaf}-{j}", 1)
    sim = Simulator(topo, seed=1)
    sinks = {}
    for i, (leaf, j) in enumerate(
        (leaf, j) for leaf in ("leaf00", "leaf01") for j in range(2)
    ):
        name = f"h-{leaf}-{j}"
        sinks[name] = FlowSink(
            name, mac=i + 1, ip=ip_to_int(f"10.0.{i}.1")
        )
        sim.bind(sinks[name])
    for switch in ("leaf00", "leaf01", "spine00"):
        sim.bind(PisaSwitch(switch))
    RoutingController(sim, name="ctl").provision(ipv4_forwarding_program)
    return sim, sinks


class TestFlowEngineAndSink:
    def test_flows_delivered_and_accounted(self):
        sim, sinks = small_fabric()
        engine = FlowEngine(sim, sinks)
        flows = [
            FlowSpec(
                flow_id=10, src="h-leaf00-0", dst="h-leaf01-1",
                src_port=1000, dst_port=2000, packets=4, gap_s=1e-6,
            ),
            FlowSpec(
                flow_id=11, src="h-leaf01-0", dst="h-leaf00-1",
                src_port=1001, dst_port=2000, packets=2,
                start_s=5e-6,
            ),
        ]
        assert engine.launch(flows) == 6
        assert engine.flows_launched == 2
        sim.run()
        record = sinks["h-leaf01-1"].flow_arrivals[10]
        assert int(record[0]) == 4
        assert record[2] > record[1]
        assert int(sinks["h-leaf00-1"].flow_arrivals[11][0]) == 2
        # Bulk packets are accounted, not retained.
        assert sinks["h-leaf01-1"].received == []

        arrivals = ChainMap(*(sink.flow_arrivals for sink in sinks.values()))
        fct = flow_completion_times(flows, arrivals)
        assert set(fct) == {10, 11}
        assert fct[10] > 3e-6  # three pacing gaps plus network latency

    def test_partial_flows_omitted_from_fct(self):
        sim, sinks = small_fabric()
        engine = FlowEngine(sim, sinks)
        flow = FlowSpec(
            flow_id=20, src="h-leaf00-0", dst="h-leaf01-0",
            src_port=1, dst_port=2, packets=10, gap_s=10e-6,
        )
        engine.launch([flow])
        sim.run(until=25e-6)  # only the first few packets sent
        arrivals = ChainMap(*(sink.flow_arrivals for sink in sinks.values()))
        assert flow_completion_times([flow], arrivals) == {}

    def test_duplicate_flow_ids_rejected(self):
        sim, sinks = small_fabric()
        engine = FlowEngine(sim, sinks)
        spec = dict(
            src="h-leaf00-0", dst="h-leaf01-0",
            src_port=1, dst_port=2, packets=1,
        )
        with pytest.raises(NetworkError, match="duplicate flow id"):
            engine.launch([
                FlowSpec(flow_id=5, **spec),
                FlowSpec(flow_id=5, **spec),
            ])

    def test_unknown_host_rejected(self):
        sim, sinks = small_fabric()
        engine = FlowEngine(sim, sinks)
        with pytest.raises(NetworkError, match="unknown host"):
            engine.launch([
                FlowSpec(
                    flow_id=1, src="h-leaf00-0", dst="ghost",
                    src_port=1, dst_port=2, packets=1,
                )
            ])
