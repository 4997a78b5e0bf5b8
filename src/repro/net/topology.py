"""Topology graphs: named nodes, numbered ports, and links.

A topology is pure structure — it knows nothing about what the nodes
*do*. The simulator binds node names to behaviour objects at run time,
so the same topology can be populated with plain switches, PERA
switches, or adversarial nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.qdisc import QueueConfig
from repro.util.errors import NetworkError


@dataclass(frozen=True)
class Link:
    """A bidirectional link between two (node, port) endpoints.

    ``drop_rate`` injects loss: the simulator drops each transmission
    with this probability (from its own seeded RNG, so runs replay).
    ``queue``, when set, gives each *sending* endpoint a finite egress
    queue with serialization occupancy and congestion signals (see
    :mod:`repro.net.qdisc`); ``None`` keeps the legacy
    transmit-immediately path.
    """

    node_a: str
    port_a: int
    node_b: str
    port_b: int
    latency_s: float = 1e-6
    bandwidth_bps: float = 10e9
    drop_rate: float = 0.0
    queue: Optional[QueueConfig] = None

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise NetworkError(f"negative latency on link {self.node_a}-{self.node_b}")
        if self.bandwidth_bps <= 0:
            raise NetworkError(
                f"non-positive bandwidth on link {self.node_a}-{self.node_b}"
            )
        if not 0.0 <= self.drop_rate < 1.0:
            raise NetworkError(
                f"drop rate {self.drop_rate} out of range [0, 1) on link "
                f"{self.node_a}-{self.node_b}"
            )

    def other_end(self, node: str) -> Tuple[str, int]:
        """Return (peer node, peer port) as seen from ``node``."""
        if node == self.node_a:
            return (self.node_b, self.port_b)
        if node == self.node_b:
            return (self.node_a, self.port_a)
        raise NetworkError(f"node {node!r} is not an endpoint of this link")

    def transit_delay(self, frame_bytes: int) -> float:
        """Propagation plus serialization delay for a frame."""
        return self.latency_s + (frame_bytes * 8) / self.bandwidth_bps


class Topology:
    """A collection of nodes and the links wiring their ports together."""

    def __init__(self) -> None:
        self._nodes: Dict[str, str] = {}  # name -> kind ("switch" | "host" | ...)
        self._links: List[Link] = []
        self._port_map: Dict[Tuple[str, int], Link] = {}

    # --- construction ----------------------------------------------------

    def add_node(self, name: str, kind: str = "switch") -> None:
        if name in self._nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        self._nodes[name] = kind

    def add_link(
        self,
        node_a: str,
        port_a: int,
        node_b: str,
        port_b: int,
        latency_s: float = 1e-6,
        bandwidth_bps: float = 10e9,
        drop_rate: float = 0.0,
        queue: Optional[QueueConfig] = None,
    ) -> Link:
        for name in (node_a, node_b):
            if name not in self._nodes:
                raise NetworkError(f"unknown node {name!r}")
        for endpoint in ((node_a, port_a), (node_b, port_b)):
            if endpoint in self._port_map:
                raise NetworkError(f"port already wired: {endpoint}")
        link = Link(
            node_a,
            port_a,
            node_b,
            port_b,
            latency_s,
            bandwidth_bps,
            drop_rate,
            queue,
        )
        self._links.append(link)
        self._port_map[(node_a, port_a)] = link
        self._port_map[(node_b, port_b)] = link
        return link

    def configure_queues(
        self,
        config: Optional[QueueConfig],
        predicate: Optional[Callable[[Link], bool]] = None,
    ) -> int:
        """Attach ``config`` to every link (or those ``predicate``
        selects); returns how many links changed.

        Links are frozen, so each selected link is rebuilt and both
        port-map entries re-registered — the canned generators stay
        queue-agnostic and scenarios layer congestion on afterwards.
        Passing ``config=None`` strips queues back off.
        """
        changed = 0
        for i, link in enumerate(self._links):
            if predicate is not None and not predicate(link):
                continue
            updated = replace(link, queue=config)
            self._links[i] = updated
            self._port_map[(link.node_a, link.port_a)] = updated
            self._port_map[(link.node_b, link.port_b)] = updated
            changed += 1
        return changed

    # --- queries ----------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return sorted(self._nodes)

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    def kind_of(self, name: str) -> str:
        if name not in self._nodes:
            raise NetworkError(f"unknown node {name!r}")
        return self._nodes[name]

    def nodes_of_kind(self, kind: str) -> List[str]:
        return sorted(name for name, k in self._nodes.items() if k == kind)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link_at(self, node: str, port: int) -> Optional[Link]:
        return self._port_map.get((node, port))

    def neighbor(self, node: str, port: int) -> Tuple[str, int]:
        """Return the (peer, peer port) wired to ``node``'s ``port``."""
        link = self._port_map.get((node, port))
        if link is None:
            raise NetworkError(f"no link at {node!r} port {port}")
        return link.other_end(node)

    def ports_of(self, node: str) -> List[int]:
        return sorted(port for (name, port) in self._port_map if name == node)

    def neighbors_of(self, node: str) -> List[str]:
        """Distinct peer node names, sorted."""
        peers: Set[str] = set()
        for (name, _port), link in self._port_map.items():
            if name == node:
                peers.add(link.other_end(node)[0])
        return sorted(peers)

    def port_towards(self, node: str, neighbor: str) -> int:
        """The (lowest-numbered) port on ``node`` facing ``neighbor``."""
        for port in self.ports_of(node):
            if self.neighbor(node, port)[0] == neighbor:
                return port
        raise NetworkError(f"{node!r} has no port towards {neighbor!r}")


# --- canned topologies -----------------------------------------------------


def linear_topology(
    switch_count: int,
    hosts: bool = True,
    latency_s: float = 1e-6,
    bandwidth_bps: float = 10e9,
) -> Topology:
    """A chain ``h-src — s1 — s2 — ... — sN — h-dst``.

    Port convention on switches: port 1 faces "left" (towards h-src),
    port 2 faces "right". Hosts use port 1.
    """
    if switch_count < 1:
        raise NetworkError("linear topology needs at least one switch")
    topo = Topology()
    switches = [f"s{i}" for i in range(1, switch_count + 1)]
    for name in switches:
        topo.add_node(name, kind="switch")
    for left, right in zip(switches, switches[1:]):
        topo.add_link(left, 2, right, 1, latency_s, bandwidth_bps)
    if hosts:
        topo.add_node("h-src", kind="host")
        topo.add_node("h-dst", kind="host")
        topo.add_link("h-src", 1, switches[0], 1, latency_s, bandwidth_bps)
        topo.add_link(switches[-1], 2, "h-dst", 1, latency_s, bandwidth_bps)
    return topo


def ring_topology(
    switch_count: int, latency_s: float = 1e-6, bandwidth_bps: float = 10e9
) -> Topology:
    """A ring of switches, each with one host hanging off port 3."""
    if switch_count < 3:
        raise NetworkError("ring topology needs at least three switches")
    topo = Topology()
    switches = [f"s{i}" for i in range(1, switch_count + 1)]
    for name in switches:
        topo.add_node(name, kind="switch")
    for i, name in enumerate(switches):
        nxt = switches[(i + 1) % switch_count]
        topo.add_link(name, 2, nxt, 1, latency_s, bandwidth_bps)
    for i, name in enumerate(switches, start=1):
        host = f"h{i}"
        topo.add_node(host, kind="host")
        topo.add_link(name, 3, host, 1, latency_s, bandwidth_bps)
    return topo


def leaf_spine(
    leaves: int,
    spines: int,
    hosts_per_leaf: int = 2,
    leaf_spine_latency_s: float = 2e-6,
    host_latency_s: float = 1e-6,
    bandwidth_bps: float = 10e9,
    parallel_links: int = 1,
) -> Topology:
    """A two-tier leaf–spine fabric: every leaf uplinks to every spine.

    Names: leaves ``leaf0..``, spines ``spine0..``, hosts
    ``h-<leaf>-<i>`` (zero-padded so lexicographic order == numeric
    order — the shard partitioner groups by sorted names). Ports on a
    leaf: downlinks ``1..hosts_per_leaf``, then ``parallel_links``
    uplinks per spine at ``hosts_per_leaf+1 + si*parallel_links + p``
    towards ``spine<si>``; a spine faces ``leaf<li>`` on ports
    ``1 + li*parallel_links + p``. With ``parallel_links == 1`` this
    reduces exactly to the original single-link convention. Leaf–spine
    links default to a slightly higher latency than host links: the
    fabric's min cross-shard latency sets the conservative lookahead
    window, and uplinks are the natural shard cut.
    """
    if leaves < 1 or spines < 1:
        raise NetworkError("leaf_spine needs at least one leaf and one spine")
    if hosts_per_leaf < 0:
        raise NetworkError(f"negative hosts_per_leaf: {hosts_per_leaf}")
    if parallel_links < 1:
        raise NetworkError(f"parallel_links must be >= 1, got {parallel_links}")
    topo = Topology()
    width = max(2, len(str(max(leaves, spines) - 1)))
    leaf_names = [f"leaf{i:0{width}d}" for i in range(leaves)]
    spine_names = [f"spine{i:0{width}d}" for i in range(spines)]
    for name in leaf_names + spine_names:
        topo.add_node(name, kind="switch")
    for li, leaf in enumerate(leaf_names):
        for si, spine in enumerate(spine_names):
            for p in range(parallel_links):
                topo.add_link(
                    leaf,
                    hosts_per_leaf + 1 + si * parallel_links + p,
                    spine,
                    1 + li * parallel_links + p,
                    leaf_spine_latency_s,
                    bandwidth_bps,
                )
        for i in range(hosts_per_leaf):
            host = f"h-{leaf}-{i}"
            topo.add_node(host, kind="host")
            topo.add_link(
                leaf, 1 + i, host, 1, host_latency_s, bandwidth_bps
            )
    return topo


def fat_tree(
    k: int = 4,
    hosts_per_edge: Optional[int] = None,
    host_latency_s: float = 1e-6,
    fabric_latency_s: float = 2e-6,
    bandwidth_bps: float = 10e9,
) -> Topology:
    """A k-ary fat-tree with pod-contiguous, shard-friendly names.

    Layout (k even): k pods of k/2 edge + k/2 aggregation switches,
    (k/2)^2 cores, and ``hosts_per_edge`` (default k/2) hosts per edge
    switch. Names sort pod-by-pod —
    ``p<pod>a<i>`` / ``p<pod>e<i>`` (aggregation before edge within a
    pod) with cores last as ``zcore<idx>`` — so the shard
    partitioner's sorted-contiguous chunking, and especially the
    pod-aware grouping built on :func:`fabric_pod_map`, keeps each
    pod's switches in one shard and cuts the fabric only at
    pod–core boundaries.

    Ports: edge downlinks ``1..hosts_per_edge`` (host ``j`` on
    ``1+j``), edge uplink to aggregation ``ai`` on
    ``hosts_per_edge+1+ai``; aggregation downlink to edge ``ei`` on
    ``1+ei``, uplink ``j`` on ``k/2+1+j`` to core ``ai*(k/2)+j``; a
    core faces pod ``p`` on port ``1+p``. Hosts are named
    ``h-<edge>-<j>``. Intra-fabric links use ``fabric_latency_s``
    (the conservative-lookahead floor for pod cuts), host links
    ``host_latency_s``.
    """
    if k < 2 or k % 2 != 0:
        raise NetworkError(f"fat-tree parameter k must be even and >= 2, got {k}")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if hosts_per_edge < 0:
        raise NetworkError(f"negative hosts_per_edge: {hosts_per_edge}")
    topo = Topology()
    pw = max(2, len(str(k - 1)))
    sw = max(2, len(str(half - 1)))
    cw = max(2, len(str(half * half - 1)))
    core_names = [f"zcore{i:0{cw}d}" for i in range(half * half)]
    for name in core_names:
        topo.add_node(name, kind="switch")
    for pod in range(k):
        aggs = [f"p{pod:0{pw}d}a{i:0{sw}d}" for i in range(half)]
        edges = [f"p{pod:0{pw}d}e{i:0{sw}d}" for i in range(half)]
        for name in aggs + edges:
            topo.add_node(name, kind="switch")
        for ei, edge in enumerate(edges):
            for ai, agg in enumerate(aggs):
                topo.add_link(
                    edge,
                    hosts_per_edge + 1 + ai,
                    agg,
                    1 + ei,
                    fabric_latency_s,
                    bandwidth_bps,
                )
        for ai, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(
                    agg,
                    half + 1 + j,
                    core_names[ai * half + j],
                    1 + pod,
                    fabric_latency_s,
                    bandwidth_bps,
                )
        for ei, edge in enumerate(edges):
            for j in range(hosts_per_edge):
                host = f"h-{edge}-{j}"
                topo.add_node(host, kind="host")
                topo.add_link(
                    edge, 1 + j, host, 1, host_latency_s, bandwidth_bps
                )
    return topo


_POD_NAME = re.compile(r"^(p\d+)[ae]\d+$")
_CORE_NAME = re.compile(r"^zcore\d+$")


def fabric_pod_map(topology: Topology) -> Dict[str, str]:
    """Infer a pod tag for every non-host node from :func:`fat_tree` names.

    Returns ``{switch_name: pod_tag}`` — ``p<pod>`` for pod switches,
    ``zcore`` for the core block — or an *empty* dict unless **every**
    non-host node matches the convention. The all-or-nothing rule
    keeps the pod-aware shard partitioner conservative: hand-built and
    legacy topologies fall back to plain sorted-contiguous chunking.
    """
    pods: Dict[str, str] = {}
    for name in topology.node_names:
        if topology.kind_of(name) == "host":
            continue
        match = _POD_NAME.match(name)
        if match is not None:
            pods[name] = match.group(1)
            continue
        if _CORE_NAME.match(name) is not None:
            pods[name] = "zcore"
            continue
        return {}
    return pods
