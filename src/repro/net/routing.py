"""Shortest-path and multipath routing over topologies.

Control-plane helpers: computes paths, next-hop tables, and
equal-cost next-hop *sets* that the P4Runtime-style controller
installs into switch forwarding tables. Dijkstra over link latency;
lexicographic tie-break on the path keeps results deterministic.

Multipath building blocks (ECMP / flowlet) live here too, because
they are pure control-plane math: a process-stable flow hash, a
stateless :class:`EcmpSelector`, and a :class:`FlowletTable` that
re-picks a member after a configurable idle gap or packet budget.
All selection is seeded and hash-based — the same seed reproduces
the same member choices in any process, which is what keeps sharded
runs byte-identical (docs/SHARDING.md) and lets the control plane
*predict* the exact path a stateless-ECMP flow will take
(:func:`predict_multipath_path`).
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import heapq

from repro.net.topology import Topology
from repro.util.errors import NetworkError

# Two equal-cost paths can accumulate the same latency in different
# addition orders; real cost differences are at least one link's
# latency quantum, far above this relative tolerance.
_COST_REL_TOL = 1e-9


class RoutingMode(enum.Enum):
    """How a switch picks among equal-cost next-hop members."""

    #: One fixed member per flow five-tuple — stateless, predictable.
    ECMP = "ecmp"
    #: Per-flowlet member: re-pick after an idle gap / packet budget.
    FLOWLET = "flowlet"


def shortest_path(topology: Topology, src: str, dst: str) -> List[str]:
    """Return the lowest-latency node path from ``src`` to ``dst``.

    Ties break lexicographically on the path so repeated runs agree.
    Raises :class:`NetworkError` when no path exists.
    """
    for name in (src, dst):
        if not topology.has_node(name):
            raise NetworkError(f"unknown node {name!r}")
    if src == dst:
        return [src]
    # (cost, path) heap; the path tuple itself is the tie-break. An
    # equal-cost rediscovery is pushed too (<=, not <): the heap then
    # pops the lexicographically smallest path among equals first,
    # which is what pins the tie-break.
    heap: List[Tuple[float, Tuple[str, ...]]] = [(0.0, (src,))]
    best: Dict[str, float] = {src: 0.0}
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return list(path)
        if cost > best.get(node, float("inf")):
            continue
        for port in topology.ports_of(node):
            link = topology.link_at(node, port)
            peer, _ = link.other_end(node)
            if peer in path:
                continue
            new_cost = cost + link.latency_s
            if new_cost <= best.get(peer, float("inf")):
                best[peer] = new_cost
                heapq.heappush(heap, (new_cost, path + (peer,)))
    raise NetworkError(f"no path from {src!r} to {dst!r}")


def _adjacency(
    topology: Topology,
) -> Dict[str, List[Tuple[int, str, float]]]:
    """node -> sorted [(port, peer, latency)] built once per call.

    ``Topology.ports_of`` scans the whole port map; inside a Dijkstra
    inner loop over hundreds of destinations that is quadratic, so
    multipath computation works off this local adjacency instead.
    """
    adj: Dict[str, List[Tuple[int, str, float]]] = {
        name: [] for name in topology.node_names
    }
    for link in topology.links:
        adj[link.node_a].append((link.port_a, link.node_b, link.latency_s))
        adj[link.node_b].append((link.port_b, link.node_a, link.latency_s))
    for entries in adj.values():
        entries.sort()
    return adj


def all_pairs_next_hops(
    topology: Topology,
    destinations: Optional[Iterable[str]] = None,
) -> Dict[Tuple[str, str], Tuple[int, ...]]:
    """Map (node, destination) -> sorted equal-cost egress port set.

    One reverse Dijkstra per destination (not per pair): a port is a
    member when the link it starts lands on a minimum-latency path to
    the destination. Costs compare with a relative tolerance so that
    equal-cost paths summed in different orders still tie. Nodes with
    no path to a destination simply have no entry for it.
    """
    adj = _adjacency(topology)
    if destinations is None:
        dsts = list(topology.node_names)
    else:
        dsts = list(destinations)
        for name in dsts:
            if not topology.has_node(name):
                raise NetworkError(f"unknown destination {name!r}")
    table: Dict[Tuple[str, str], Tuple[int, ...]] = {}
    for dst in dsts:
        dist: Dict[str, float] = {dst: 0.0}
        heap: List[Tuple[float, str]] = [(0.0, dst)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > dist.get(node, float("inf")):
                continue
            for _port, peer, latency in adj[node]:
                new_cost = cost + latency
                if new_cost < dist.get(peer, float("inf")):
                    dist[peer] = new_cost
                    heapq.heappush(heap, (new_cost, peer))
        for node, cost in dist.items():
            if node == dst:
                continue
            members = tuple(
                port
                for port, peer, latency in adj[node]
                if peer in dist
                and math.isclose(
                    dist[peer] + latency, cost, rel_tol=_COST_REL_TOL
                )
            )
            if members:
                table[(node, dst)] = members
    return table


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_flow_hash(seed: int, *fields: object) -> int:
    """64-bit FNV-1a over the seed and flow-key fields.

    Process-stable on purpose (never Python's randomized ``hash()``):
    member selection must reproduce across interpreter restarts and
    multiprocessing workers for sharded determinism.
    """
    h = _FNV_OFFSET ^ (seed & _MASK64)
    for field in fields:
        for byte in str(field).encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        # Field separator so ("ab", "c") never collides with ("a", "bc").
        h = ((h ^ 0x1F) * _FNV_PRIME) & _MASK64
    return h


class EcmpSelector:
    """Stateless seeded ECMP: one fixed member per flow key.

    Two selectors with the same seed agree everywhere, so the control
    plane can precompute exactly which member a flow will take.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def pick(self, members: Tuple[int, ...], flow_key: tuple) -> int:
        """Return the member port this flow key hashes to."""
        if not members:
            raise NetworkError("cannot select from an empty member set")
        return members[stable_flow_hash(self.seed, *flow_key) % len(members)]


class FlowletTable:
    """Flowlet switching: re-pick a member after an idle gap.

    A *flowlet* is a burst of packets from one flow separated from
    the next burst by more than ``idle_gap_s`` of simulated time (or,
    when ``flowlet_n_packets`` is non-zero, capped at that many
    packets). Within a flowlet the member choice is pinned; at each
    flowlet boundary the serial number bumps and the hash re-picks,
    spreading one flow's bursts across members while keeping each
    burst in-order on a single path. Selection is a pure function of
    (seed, flow key, serial) so shards replay identically.

    Congestion awareness: a caller that sees a congestion signal for
    the flow (an ECN-marked packet, a deep local queue) passes
    ``congested=True`` to :meth:`pick`, which forces a flowlet
    boundary — the burst ends early and the re-pick hash moves the
    flow off the hot path. A per-flow cooldown of ``idle_gap_s``
    between congestion-driven re-picks stops one marked burst from
    thrashing the path every packet. The signal only changes *when*
    the serial bumps, never *how* the member is chosen, so the
    determinism contract is unchanged.
    """

    def __init__(
        self,
        seed: int,
        idle_gap_s: float = 50e-6,
        flowlet_n_packets: int = 0,
    ) -> None:
        if idle_gap_s <= 0:
            raise NetworkError("flowlet idle gap must be positive")
        if flowlet_n_packets < 0:
            raise NetworkError("flowlet packet budget cannot be negative")
        self.seed = seed
        self.idle_gap_s = idle_gap_s
        self.flowlet_n_packets = flowlet_n_packets
        self.repicks = 0
        #: Boundaries forced by the congestion signal alone (a subset
        #: of ``repicks``): the campaign-visible evidence that
        #: congestion actually moved flows.
        self.congestion_repicks = 0
        # flow key -> [last_seen_s, packets_in_flowlet, serial,
        #              last_congestion_repick_s, key_seed]
        self._state: Dict[tuple, List[float]] = {}

    def serial_of(self, flow_key: tuple) -> int:
        """Current flowlet serial for a flow key (0 before first packet)."""
        state = self._state.get(flow_key)
        return int(state[2]) if state is not None else 0

    def pick(
        self,
        members: Tuple[int, ...],
        flow_key: tuple,
        now_s: float,
        congested: bool = False,
    ) -> int:
        """Return the member for this packet, rotating at boundaries."""
        if not members:
            raise NetworkError("cannot select from an empty member set")
        state = self._state.get(flow_key)
        if state is None:
            # FNV-1a is sequential, so hashing (seed, *key, serial) is
            # hashing the serial alone from the state H the key leaves
            # behind; stable_flow_hash starts from ``offset ^ seed``, so
            # the seed ``H ^ offset`` starts it at H. The key is hashed
            # once per flow, not once per packet, with the same result.
            key_seed = stable_flow_hash(self.seed, *flow_key) ^ _FNV_OFFSET
            state = [now_s, 0.0, 0.0, float("-inf"), key_seed]
            self._state[flow_key] = state
        else:
            expired = now_s - state[0] > self.idle_gap_s
            exhausted = (
                self.flowlet_n_packets > 0
                and state[1] >= self.flowlet_n_packets
            )
            nudged = (
                congested
                and now_s - state[3] > self.idle_gap_s
            )
            if expired or exhausted or nudged:
                state[2] += 1
                state[1] = 0.0
                self.repicks += 1
                if nudged:
                    state[3] = now_s
                    if not (expired or exhausted):
                        self.congestion_repicks += 1
            state[0] = now_s
        state[1] += 1
        index = stable_flow_hash(state[4], int(state[2])) % len(members)
        return members[index]


def predict_multipath_path(
    topology: Topology,
    next_hops: Dict[Tuple[str, str], Tuple[int, ...]],
    src: str,
    dst: str,
    flow_key: tuple,
    selector_for: Callable[[str], EcmpSelector],
) -> List[str]:
    """Walk the exact node path a stateless-ECMP flow will take.

    ``selector_for(node)`` must return a selector seeded identically
    to the one the switch itself uses; because stateless ECMP is a
    pure hash, the control plane can then compile per-flow path
    policies (UC1 path attestation) for multipath fabrics without
    ever sending a probe.
    """
    path = [src]
    node = src
    limit = len(topology.node_names) + 1
    while node != dst:
        members = next_hops.get((node, dst))
        if not members:
            raise NetworkError(f"no next hop from {node!r} to {dst!r}")
        if len(members) == 1:
            port = members[0]
        else:
            port = selector_for(node).pick(members, flow_key)
        node, _ = topology.neighbor(node, port)
        path.append(node)
        if len(path) > limit:
            raise NetworkError(
                f"next-hop walk from {src!r} to {dst!r} loops"
            )
    return path
