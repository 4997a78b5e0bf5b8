"""A lone flow against its closed form.

With nothing else on the wire, a flow of ``n`` packets paced ``gap``
apart completes in exactly

    FCT = sum over hops of link.transit_delay(wire_length) + (n - 1) * gap

(propagation plus serialization per hop; the last packet leaves
``(n - 1) * gap`` after the first). Forwarding costs no simulated time,
and neither does an egress queue that never holds more than the packet
it is serializing. The paths below are a linear chain of PISA switches
and a cross-pod fat-tree path through the campaign's multipath
switches, each with queue-less links and with a
:class:`~repro.net.qdisc.QueueConfig` installed (the qdisc then charges
the serialization). The hops are read back from the per-link transmit
counters, so the sum runs over the links the packets really crossed.

"Exactly" means up to float rounding: the clock adds the same terms in
event order (and the qdisc forms ``(now + transfer + latency) - now``),
which moves the last bit or two of the arrival time, so the check
allows a few ulps of it, some 1e-20 s. Any modelling error is at least
a serialization time, ~85 ns for the smallest frame here.
"""

import math

import pytest

from repro.core.fabric import FatTreeShape, fabric_traffic_spec
from repro.net.controller import RoutingController
from repro.net.headers import ip_to_int
from repro.net.packet import Packet
from repro.net.qdisc import QueueConfig
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pisa.switch import PisaSwitch
from repro.telemetry.instrument import Telemetry
from repro.telemetry.metrics import parse_name
from repro.workload.flows import FlowEngine, FlowSink, FlowSpec

PAYLOADS = (64, 512, 1400)
GAP_S = 2e-6  # above the 1.2 µs a 1.5 kB frame takes at 10 Gb/s
QUEUE = QueueConfig(capacity_bytes=65536)


def _linear(queue):
    topo = linear_topology(4)
    if queue is not None:
        topo.configure_queues(queue)
    sim = Simulator(topo, telemetry=Telemetry(active=True))
    sinks = {
        name: FlowSink(name, mac=i + 1, ip=ip_to_int(f"10.0.{i}.1"))
        for i, name in enumerate(("h-src", "h-dst"))
    }
    for sink in sinks.values():
        sim.bind(sink)
    for switch in topo.nodes_of_kind("switch"):
        sim.bind(PisaSwitch(switch))
    RoutingController(sim, name="ctl").provision()
    return sim, sinks, ("h-src", "h-dst"), 5


def _fat_tree(queue):
    spec = fabric_traffic_spec(
        FatTreeShape(bulk_flows=0, web_sessions=0, attested_flows=0, queue=queue)
    )
    sim = Simulator(spec.make_topology(), telemetry=Telemetry(active=True))
    ctx = spec.build(sim)
    return sim, ctx["sinks"], ("h-p00e00-0", "h-p02e01-1"), 6


def _hops(sim, packets):
    """The links the flow crossed, each checked to carry every packet."""
    hops = []
    for key, count in sim.telemetry.metrics.snapshot()["counters"].items():
        name, labels = parse_name(key)
        if name == "net.link.tx_packets":
            assert count == packets, key
            node, port = dict(labels)["link"].split("->")[0].split(":")
            hops.append(sim.topology.link_at(node, int(port)))
    return hops


@pytest.mark.parametrize("queue", [None, QUEUE], ids=["queueless", "queued"])
@pytest.mark.parametrize("path", [_linear, _fat_tree], ids=["linear", "fat-tree"])
@pytest.mark.parametrize("packets", [1, 4])
def test_lone_flow_completes_in_closed_form(path, queue, packets):
    for payload in PAYLOADS:
        sim, sinks, (src, dst), hop_count = path(queue)
        flow = FlowSpec(
            flow_id=1, src=src, dst=dst, src_port=40000, dst_port=9000,
            packets=packets, payload_bytes=payload, start_s=1e-6, gap_s=GAP_S,
        )
        FlowEngine(sim, sinks).launch([flow])
        sim.run()
        count, _, last = sinks[dst].flow_arrivals[1]
        assert count == packets
        wire = Packet.udp_packet(
            src_mac=1, dst_mac=2, src_ip=0, dst_ip=0,
            src_port=0, dst_port=0, payload=bytes(payload),
        ).wire_length
        hops = _hops(sim, packets)
        assert len(hops) == hop_count
        assert all((link.queue is None) == (queue is None) for link in hops)
        expected = (packets - 1) * GAP_S + sum(
            link.transit_delay(wire) for link in hops
        )
        fct = last - flow.start_s
        assert abs(fct - expected) <= 4 * math.ulp(last), (payload, fct, expected)
