"""Topology encoding and reachability queries.

The standard NetKAT network model: packets carry ``switch`` and
``port`` fields; the topology is a policy ``t`` that teleports a packet
sitting at one end of a link to the other end; the network is
``(p ; t)*`` for a hop policy ``p``. Reachability ("can a packet at A
ever satisfy predicate B?") is then star-evaluation — the exact
machinery the paper's ``*⇒`` and ``▶`` operators lean on (§5.1,
Prim1/Prim3).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.net.topology import Topology
from repro.netkat.ast import (
    Filter,
    Policy,
    Predicate,
    mod,
    pand,
    seq,
    star,
    test,
    union,
    DROP,
)
from repro.netkat.semantics import NkPacket, eval_policy, eval_predicate

SWITCH_FIELD = "switch"
PORT_FIELD = "port"


def topology_policy(topology: Topology) -> Policy:
    """Encode every link as a pair of teleport rules."""
    rules: List[Policy] = []
    for link in topology.links:
        for here, here_port, there, there_port in (
            (link.node_a, link.port_a, link.node_b, link.port_b),
            (link.node_b, link.port_b, link.node_a, link.port_a),
        ):
            rules.append(
                seq(
                    Filter(
                        pand(
                            test(SWITCH_FIELD, here), test(PORT_FIELD, here_port)
                        )
                    ),
                    mod(SWITCH_FIELD, there),
                    mod(PORT_FIELD, there_port),
                )
            )
    return union(*rules) if rules else DROP


def network_policy(hop_policy: Policy, topo_policy: Policy) -> Policy:
    """The standard end-to-end model ``(p ; t)* ; p``."""
    return seq(star(seq(hop_policy, topo_policy)), hop_policy)


def reachable(
    hop_policy: Policy,
    topo_policy: Policy,
    start: NkPacket,
    goal: Predicate,
) -> bool:
    """Is a packet satisfying ``goal`` reachable from ``start``?"""
    results = eval_policy(network_policy(hop_policy, topo_policy), (start,))
    return any(eval_predicate(goal, history[0]) for history in results)


def reachable_set(
    hop_policy: Policy, topo_policy: Policy, start: NkPacket
) -> Set[NkPacket]:
    """All packet states reachable from ``start`` through the network."""
    results = eval_policy(network_policy(hop_policy, topo_policy), (start,))
    return {history[0] for history in results}


def forwarding_hop_policy(
    topology: Topology, next_hop_ports: Dict[tuple, int], destination_field: str = "dst"
) -> Policy:
    """Build a hop policy from a next-hop table.

    ``next_hop_ports`` maps ``(switch, destination_value)`` to the
    egress port (e.g. one member per entry of
    :func:`repro.net.routing.all_pairs_next_hops`). Hosts deliver
    (identity) when the packet's destination equals the host itself.
    """
    rules: List[Policy] = []
    for (switch, destination), port in sorted(next_hop_ports.items()):
        rules.append(
            seq(
                Filter(
                    pand(
                        test(SWITCH_FIELD, switch),
                        test(destination_field, destination),
                    )
                ),
                mod(PORT_FIELD, port),
            )
        )
    # Delivery at the destination node itself.
    for name in topology.node_names:
        rules.append(
            Filter(
                pand(test(SWITCH_FIELD, name), test(destination_field, name))
            )
        )
    return union(*rules) if rules else DROP
