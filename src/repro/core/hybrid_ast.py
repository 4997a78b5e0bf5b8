"""Abstract syntax of network-aware Copland (paper §5.1).

The hybrid embeds plain Copland phrases (:mod:`repro.copland.ast`) and
adds three node types:

- :class:`Guard` — ``K ▶ C``: a NetKAT predicate ``K`` tested at the
  device before it executes phrase ``C``. The test result itself is
  attestable ("That node can also attest the result of the test").
- :class:`PathStar` — ``A *⇒ B``: ``A`` holds for zero or more hops
  along the path, then ``B`` holds at/after the path's end.
- :class:`Forall` — ``∀ p, q : C``: place abstraction; ``p``/``q`` are
  bound variables instantiated with concrete places at compile time.

A :class:`HybridPolicy` wraps a body with its relying party and its
RP-chosen parameters (the ``⟨n, X⟩`` of AP1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.copland.ast import Phrase
from repro.netkat.ast import Predicate
from repro.util.errors import PolicyError


class HybridNode:
    """Base class of hybrid-language nodes (a superset of phrases)."""


@dataclass(frozen=True)
class Guard(HybridNode):
    """``K ▶ C``: run ``C`` only where predicate ``K`` holds.

    ``K`` is a NetKAT predicate over the packet/device state fields the
    switch exposes (``switch``, ``port``, header fields). Per §5.1 the
    test exists "to fail early and avoid the attestation effort, and to
    apply different attestations based on which Boolean test succeeds".
    """

    test: Predicate
    body: "HybridNode"

    def __repr__(self) -> str:
        return f"({self.test!r} |> {self.body!r})"


@dataclass(frozen=True)
class Embedded(HybridNode):
    """A plain Copland phrase embedded in the hybrid language."""

    phrase: Phrase

    def __repr__(self) -> str:
        return repr(self.phrase)


@dataclass(frozen=True)
class HybridAt(HybridNode):
    """``@place [C]`` where place may be a ∀-bound variable."""

    place: str
    body: HybridNode

    def __repr__(self) -> str:
        return f"@{self.place} [{self.body!r}]"


@dataclass(frozen=True)
class HybridSeq(HybridNode):
    """Sequential composition with evidence passing (the hybrid's
    ``-+>``: left's evidence is available to right)."""

    left: HybridNode
    right: HybridNode

    def __repr__(self) -> str:
        return f"({self.left!r} -+> {self.right!r})"


@dataclass(frozen=True)
class PathStar(HybridNode):
    """``A *⇒ B``: A at each of zero or more hops, then B."""

    per_hop: HybridNode
    terminal: HybridNode

    def __repr__(self) -> str:
        return f"({self.per_hop!r} *=> {self.terminal!r})"


@dataclass(frozen=True)
class Forall(HybridNode):
    """``∀ p, q, ... : C``: place abstraction."""

    variables: Tuple[str, ...]
    body: HybridNode

    def __post_init__(self) -> None:
        if not self.variables:
            raise PolicyError("forall needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise PolicyError("duplicate forall variables")

    def __repr__(self) -> str:
        return f"forall {', '.join(self.variables)} : {self.body!r}"


@dataclass(frozen=True)
class HybridPolicy:
    """A complete network-aware attestation policy."""

    name: str
    relying_party: str
    params: Tuple[str, ...]
    body: HybridNode

    def __repr__(self) -> str:
        params = f"<{', '.join(self.params)}>" if self.params else ""
        return f"*{self.relying_party}{params} : {self.body!r}"
