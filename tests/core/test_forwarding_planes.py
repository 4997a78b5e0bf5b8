"""The fat-tree's two forwarding planes agree with the routing table.

``MultipathFabricSwitch`` forwards shim-less packets through
``members_by_dst_ip`` and policy-carrying packets through the PISA
pipeline's ``ipv4_lpm`` entries and ECMP groups. Both are built from
one :func:`~repro.net.routing.all_pairs_next_hops` table; this file
relates all three — the cheap half of ROADMAP 3(b) (the differential
per-packet oracle is still open).
"""

import pytest

from repro.core.fabric import FatTreeShape, fabric_traffic_spec
from repro.net.routing import all_pairs_next_hops
from repro.net.simulator import Simulator

SHAPES = {
    "k4": FatTreeShape(k=4, bulk_flows=0, web_sessions=0),
    "k6": FatTreeShape(k=6, bulk_flows=0, web_sessions=0),
    "k4-one-host-per-edge": FatTreeShape(
        k=4, hosts_per_edge=1, bulk_flows=0, web_sessions=0
    ),
}


@pytest.fixture(params=sorted(SHAPES))
def fabric(request):
    spec = fabric_traffic_spec(SHAPES[request.param])
    sim = Simulator(spec.make_topology(), seed=0)
    return sim, spec.build(sim)


def test_fast_path_members_are_the_routing_table(fabric):
    sim, ctx = fabric
    sinks, switches = ctx["sinks"], ctx["switches"]
    next_hops = all_pairs_next_hops(sim.topology, sorted(sinks))
    assert sorted(switches) == sim.topology.nodes_of_kind("switch")
    for name, switch in switches.items():
        # Every switch routes every host, exactly as the table says
        # (tuple order included: it is the ECMP pick order).
        assert switch.members_by_dst_ip == {
            sink.ip: next_hops[(name, host)] for host, sink in sinks.items()
        }


def test_pipeline_routes_match_the_fast_path(fabric):
    sim, ctx = fabric
    attested_ips = {
        ctx["sinks"][flow["spec"].dst].ip for flow in ctx["attested"].values()
    }
    assert attested_ips
    for switch in ctx["switches"].values():
        groups = switch.runtime.read_groups()
        installed = {}
        for entry in switch.runtime.read_entries("ipv4_lpm"):
            (key,) = entry.keys
            assert key.prefix_len == 32
            call = entry.action_call
            if call.action.name == "forward":
                installed[key.value] = tuple(call.params)
            else:
                assert call.action.name == "ecmp_select"
                (group_id,) = call.params
                installed[key.value] = groups[group_id]
                assert len(groups[group_id]) > 1
        assert installed == {
            ip: switch.members_by_dst_ip[ip] for ip in attested_ips
        }
