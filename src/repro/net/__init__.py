"""Deterministic network substrate.

The paper's evaluation needs a network to attest: hosts, links, and
switches on paths. This package provides byte-accurate packets and
headers, topology graphs, routing, and a discrete-event simulator —
the stand-in for the authors' testbed (see DESIGN.md §2). Traffic
generation lives in :mod:`repro.workload`; campaigns run as a
:class:`~repro.net.shardrun.ScenarioSpec` under :func:`run_sharded`,
``shards=1`` being the baseline.
"""

from repro.net.headers import (
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    TcpHeader,
    RaShimHeader,
    ip_to_int,
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    IPPROTO_TCP,
    RA_UDP_PORT,
)
from repro.net.packet import Packet
from repro.net.topology import (
    Topology,
    Link,
    linear_topology,
    fat_tree,
    fabric_pod_map,
    ring_topology,
    leaf_spine,
)
from repro.net.simulator import Simulator, Node, SimStats
from repro.net.sharding import Partition, ShardSimulator, partition_topology
from repro.net.shardrun import (
    ScenarioSpec,
    ShardedResult,
    ShardedRunner,
    run_sharded,
)
from repro.net.routing import (
    EcmpSelector,
    FlowletTable,
    RoutingMode,
    all_pairs_next_hops,
    predict_multipath_path,
    shortest_path,
    stable_flow_hash,
)
from repro.net.host import Host

# NOTE: repro.net.controller is intentionally NOT imported here — it
# drives PISA switches, and importing it from the package root would
# create an import cycle (net -> pisa -> net). Import it directly:
#     from repro.net.controller import RoutingController

__all__ = [
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "TcpHeader",
    "RaShimHeader",
    "ip_to_int",
    "ETHERTYPE_IPV4",
    "IPPROTO_UDP",
    "IPPROTO_TCP",
    "RA_UDP_PORT",
    "Packet",
    "Topology",
    "Link",
    "linear_topology",
    "fat_tree",
    "fabric_pod_map",
    "ring_topology",
    "leaf_spine",
    "Simulator",
    "SimStats",
    "Node",
    "Partition",
    "ShardSimulator",
    "partition_topology",
    "ScenarioSpec",
    "ShardedResult",
    "ShardedRunner",
    "run_sharded",
    "shortest_path",
    "all_pairs_next_hops",
    "predict_multipath_path",
    "stable_flow_hash",
    "EcmpSelector",
    "FlowletTable",
    "RoutingMode",
    "Host",
]
