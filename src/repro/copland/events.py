"""Event semantics: the partial order of events a phrase denotes.

Ramsdell et al. ("Orchestrating Layered Attestations") analyse Copland
phrases through their *event systems*: each measurement, signature and
hash is an event; linear and branch-sequential composition order
events; branch-parallel composition leaves them unordered; ``@p``
wraps its body in request/reply events.

The adversary analysis (:mod:`repro.copland.adversary`) consumes this:
what an adversary can get away with depends precisely on which events
the protocol forces into sequence.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.copland.ast import (
    Asp,
    At,
    BranchPar,
    BranchSeq,
    Copy,
    Hash,
    Linear,
    Measure,
    Null,
    Phrase,
    Sign,
)
from repro.util.errors import PolicyError


class EventKind(enum.Enum):
    """The kinds of attestation events a phrase denotes."""

    MEASURE = "measure"
    ASP = "asp"
    SIGN = "sign"
    HASH = "hash"
    REQUEST = "request"
    REPLY = "reply"


@dataclass(frozen=True)
class Event:
    """One attestation event with a unique id."""

    event_id: int
    kind: EventKind
    place: str
    # For MEASURE: the measuring ASP, target and target place.
    asp: str = ""
    target: str = ""
    target_place: str = ""

    def describe(self) -> str:
        if self.kind is EventKind.MEASURE:
            return f"e{self.event_id}:{self.asp} {self.target_place} {self.target}@{self.place}"
        return f"e{self.event_id}:{self.kind.value}@{self.place}"


def phrase_events(
    phrase: Phrase, at_place: str, include_comms: bool = False
) -> Tuple[Tuple[Event, ...], FrozenSet[Tuple[int, int]]]:
    """Compute the events of ``phrase`` and their strict partial order.

    Returns ``(events, order)`` where ``order`` is the set of pairs
    ``(a, b)`` meaning event ``a`` happens before event ``b``
    (transitively closed). ``include_comms`` adds REQUEST/REPLY events
    for ``@p`` dispatch; the default omits them, which keeps the
    adversary analysis focused on measurements.
    """
    counter = itertools.count(1)
    events: List[Event] = []
    order: Set[Tuple[int, int]] = set()

    def fresh(kind: EventKind, place: str, **extra: str) -> Event:
        event = Event(event_id=next(counter), kind=kind, place=place, **extra)
        events.append(event)
        return event

    def visit(node: Phrase, place: str) -> Tuple[Set[int], Set[int]]:
        """Returns (minimal event ids, maximal event ids) of the node."""
        if isinstance(node, Measure):
            event = fresh(
                EventKind.MEASURE,
                place,
                asp=node.asp,
                target=node.target,
                target_place=node.target_place,
            )
            return {event.event_id}, {event.event_id}
        if isinstance(node, Asp):
            event = fresh(EventKind.ASP, place, asp=node.name)
            return {event.event_id}, {event.event_id}
        if isinstance(node, Sign):
            event = fresh(EventKind.SIGN, place)
            return {event.event_id}, {event.event_id}
        if isinstance(node, Hash):
            event = fresh(EventKind.HASH, place)
            return {event.event_id}, {event.event_id}
        if isinstance(node, (Copy, Null)):
            return set(), set()
        if isinstance(node, At):
            if include_comms:
                req = fresh(EventKind.REQUEST, place)
                inner_min, inner_max = visit(node.phrase, node.place)
                rpy = fresh(EventKind.REPLY, node.place)
                for inner in inner_min:
                    order.add((req.event_id, inner))
                for inner in inner_max:
                    order.add((inner, rpy.event_id))
                if not inner_min:
                    order.add((req.event_id, rpy.event_id))
                return {req.event_id}, {rpy.event_id}
            return visit(node.phrase, node.place)
        if isinstance(node, (Linear, BranchSeq)):
            left_min, left_max = visit(node.left, place)
            right_min, right_max = visit(node.right, place)
            for a in left_max:
                for b in right_min:
                    order.add((a, b))
            minimal = left_min or right_min
            maximal = right_max or left_max
            return minimal, maximal
        if isinstance(node, BranchPar):
            left_min, left_max = visit(node.left, place)
            right_min, right_max = visit(node.right, place)
            return left_min | right_min, left_max | right_max
        raise PolicyError(f"unknown phrase node {type(node).__name__}")

    visit(phrase, at_place)
    return tuple(events), frozenset(_transitive_closure(order))


def _transitive_closure(order: Set[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    closure = set(order)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def linear_extensions(
    events: Tuple[Event, ...],
    order: FrozenSet[Tuple[int, int]],
    limit: int = 10000,
) -> Iterator[Tuple[Event, ...]]:
    """Enumerate all linear extensions of the partial order.

    Bounded by ``limit`` to guard against combinatorial blow-up on
    wide parallel phrases; raises when the bound is hit so callers
    never silently analyse a truncated space.
    """
    by_id = {event.event_id: event for event in events}
    predecessors: Dict[int, Set[int]] = {event.event_id: set() for event in events}
    for a, b in order:
        predecessors[b].add(a)
    produced = 0

    def extend(chosen: List[int], remaining: Set[int]) -> Iterator[Tuple[Event, ...]]:
        nonlocal produced
        if not remaining:
            produced += 1
            if produced > limit:
                raise PolicyError(
                    f"more than {limit} linear extensions; phrase too wide"
                )
            yield tuple(by_id[i] for i in chosen)
            return
        chosen_set = set(chosen)
        # Sorted for determinism.
        for candidate in sorted(remaining):
            if predecessors[candidate] <= chosen_set:
                yield from extend(chosen + [candidate], remaining - {candidate})

    yield from extend([], {event.event_id for event in events})
