"""The Copland attestation virtual machine.

Executes a phrase across a set of :class:`Place` objects, producing
concrete :class:`~repro.evidence.nodes.Evidence` with real
signatures and hashes (via :mod:`repro.crypto`). The VM corresponds to
the AVM of Petz & Alexander's "Infrastructure for Faithful Execution
of Remote Attestation Protocols": the phrase is the program, places
are the machines, ASPs are the installed services.

Places hold *components* — named byte strings standing for the
binaries/configurations that measurements target. The default
measurement ASP digests the target component at its place; a corrupt
measurer component lies. This is what the adversary analysis and the
§4.2 experiments manipulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
    Request,
    Sign,
)
from repro.evidence import (
    EmptyEvidence,
    Evidence,
    HashEvidence,
    MeasurementEvidence,
    NonceEvidence,
    ParallelEvidence,
    SequenceEvidence,
    SignedEvidence,
)
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyPair
from repro.util.errors import PolicyError

# ASP implementation signature: measure/serve and return the raw value.
AspImplementation = Callable[["Place", str, str, Tuple[str, ...], Evidence], bytes]


def default_measure_asp(
    place: "Place",
    target: str,
    target_place: str,
    args: Tuple[str, ...],
    prior: Evidence,
) -> bytes:
    """The standard measurement ASP: digest the target component.

    A corrupt measurer (this ASP's own component at ``place``) lies: it
    reports the digest of the *expected* (golden) content regardless of
    the target's true state — modelling the §4.2 compromised ``bmon``.
    """
    vm = place.vm
    if vm is None:
        raise PolicyError(f"place {place.name!r} is not attached to a VM")
    target_owner = vm.place(target_place)
    content = target_owner.components.get(target)
    if content is None:
        raise PolicyError(
            f"place {target_place!r} has no component {target!r} to measure"
        )
    measurer_name = place.current_asp
    if measurer_name is not None and place.is_corrupt(measurer_name):
        golden = target_owner.golden.get(target, content)
        return digest(golden, domain="component-measurement")
    return digest(content, domain="component-measurement")


@dataclass
class Place:
    """A Copland place: identity, key, ASPs, and measurable components."""

    name: str
    keypair: KeyPair = None  # type: ignore[assignment]
    asps: Dict[str, AspImplementation] = field(default_factory=dict)
    components: Dict[str, bytes] = field(default_factory=dict)
    # Golden (vetted) contents, for appraisers and for lying measurers.
    golden: Dict[str, bytes] = field(default_factory=dict)
    vm: Optional["CoplandVM"] = None
    current_asp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.keypair is None:
            self.keypair = KeyPair.generate(self.name)

    def install_component(self, name: str, content: bytes, vetted: bool = True) -> None:
        """Install a component; vetted content also becomes the golden copy."""
        self.components[name] = content
        if vetted:
            self.golden[name] = content

    def corrupt_component(self, name: str, content: bytes = b"MALWARE") -> None:
        """Adversary action: replace a component without updating golden."""
        if name not in self.components:
            raise PolicyError(f"place {self.name!r} has no component {name!r}")
        self.components[name] = content

    def repair_component(self, name: str) -> None:
        """Adversary action: restore the golden copy (hide the tracks)."""
        golden = self.golden.get(name)
        if golden is None:
            raise PolicyError(f"no golden copy of {name!r} at {self.name!r}")
        self.components[name] = golden

    def is_corrupt(self, name: str) -> bool:
        content = self.components.get(name)
        golden = self.golden.get(name)
        return content is not None and golden is not None and content != golden

    def sign(self, payload: bytes) -> bytes:
        return self.keypair.sign(payload)


@dataclass
class VmEvent:
    """One step of an execution, in the order it actually happened."""

    kind: str  # "measure" | "asp" | "sign" | "hash" | "req" | "rpy"
    place: str
    detail: str
    sequence: int


class CoplandVM:
    """Executes phrases over registered places."""

    def __init__(self) -> None:
        self._places: Dict[str, Place] = {}
        self.events: List[VmEvent] = []
        self._sequence = 0
        # Adversary scheduling hook: parallel arms are unordered, so an
        # active adversary who controls timing may act *between* them
        # (the §4.2 attack). When set, this callable runs after the
        # first-evaluated (right) arm and before the left arm.
        self.between_par_arms: Optional[Callable[[], None]] = None

    # --- setup ----------------------------------------------------------

    def register(self, place: Place) -> Place:
        if place.name in self._places:
            raise PolicyError(f"place {place.name!r} already registered")
        place.vm = self
        if not place.asps:
            pass  # places may rely purely on sign/hash
        self._places[place.name] = place
        return place

    def place(self, name: str) -> Place:
        place = self._places.get(name)
        if place is None:
            raise PolicyError(f"no place registered as {name!r}")
        return place

    # --- execution ---------------------------------------------------------

    def execute_request(
        self, request: Request, param_values: Optional[Dict[str, bytes]] = None
    ) -> Evidence:
        """Execute a ``*RP <params> : C`` request.

        ``param_values`` supplies concrete bytes for each declared
        parameter; parameters act as nonces bound into the initial
        evidence (Helble et al.'s nonce treatment).
        """
        param_values = param_values or {}
        missing = [p for p in request.params if p not in param_values]
        if missing:
            raise PolicyError(f"missing values for request parameters {missing}")
        evidence: Evidence = EmptyEvidence()
        for param in request.params:
            evidence = NonceEvidence(name=param, value=param_values[param])
        self._param_env = dict(param_values)
        try:
            return self.execute(
                request.phrase, at_place=request.relying_party, evidence=evidence
            )
        finally:
            self._param_env = {}

    def execute(
        self,
        phrase: Phrase,
        at_place: str,
        evidence: Optional[Evidence] = None,
    ) -> Evidence:
        """Execute ``phrase`` starting at ``at_place``."""
        if not hasattr(self, "_param_env"):
            self._param_env = {}
        return self._eval(phrase, at_place, evidence or EmptyEvidence())

    def _event(self, kind: str, place: str, detail: str) -> None:
        self._sequence += 1
        self.events.append(
            VmEvent(kind=kind, place=place, detail=detail, sequence=self._sequence)
        )

    def _eval(self, phrase: Phrase, place_name: str, evidence: Evidence) -> Evidence:
        place = self.place(place_name)
        if isinstance(phrase, Measure):
            impl = place.asps.get(phrase.asp, default_measure_asp)
            place.current_asp = phrase.asp
            try:
                value = impl(
                    place, phrase.target, phrase.target_place, (), evidence
                )
            finally:
                place.current_asp = None
            self._event(
                "measure",
                place_name,
                f"{phrase.asp} {phrase.target_place} {phrase.target}",
            )
            return MeasurementEvidence(
                asp=phrase.asp,
                place=place_name,
                target=phrase.target,
                target_place=phrase.target_place,
                value=value,
                prior=evidence,
            )
        if isinstance(phrase, Asp):
            impl = place.asps.get(phrase.name)
            if impl is None:
                raise PolicyError(
                    f"place {place_name!r} has no ASP {phrase.name!r}"
                )
            resolved_args = tuple(
                self._param_env.get(arg, arg.encode()).hex()
                if isinstance(self._param_env.get(arg, None), bytes)
                else arg
                for arg in phrase.args
            )
            place.current_asp = phrase.name
            try:
                value = impl(place, "", "", resolved_args, evidence)
            finally:
                place.current_asp = None
            self._event("asp", place_name, repr(phrase))
            return MeasurementEvidence(
                asp=phrase.name,
                place=place_name,
                target="",
                target_place="",
                value=value,
                prior=evidence,
            )
        if isinstance(phrase, At):
            self._event("req", place_name, f"@{phrase.place}")
            result = self._eval(phrase.phrase, phrase.place, evidence)
            self._event("rpy", phrase.place, f"->{place_name}")
            return result
        if isinstance(phrase, Linear):
            intermediate = self._eval(phrase.left, place_name, evidence)
            return self._eval(phrase.right, place_name, intermediate)
        if isinstance(phrase, BranchSeq):
            left_in = evidence if phrase.left_split == "+" else EmptyEvidence()
            left = self._eval(phrase.left, place_name, left_in)
            if phrase.chain:
                right_in: Evidence = (
                    left if phrase.right_split == "+" else EmptyEvidence()
                )
            else:
                right_in = evidence if phrase.right_split == "+" else EmptyEvidence()
            right = self._eval(phrase.right, place_name, right_in)
            return SequenceEvidence(left=left, right=right)
        if isinstance(phrase, BranchPar):
            left_in = evidence if phrase.left_split == "+" else EmptyEvidence()
            right_in = evidence if phrase.right_split == "+" else EmptyEvidence()
            # The VM runs branches in an arbitrary (here: right-first)
            # order: parallel arms are unordered, and right-first is
            # exactly the §4.2 adversary's preferred schedule.
            right = self._eval(phrase.right, place_name, right_in)
            if self.between_par_arms is not None:
                self.between_par_arms()
            left = self._eval(phrase.left, place_name, left_in)
            return ParallelEvidence(left=left, right=right)
        if isinstance(phrase, Sign):
            signature = place.sign(evidence.encode())
            self._event("sign", place_name, "!")
            return SignedEvidence(
                evidence=evidence, place=place_name, signature=signature
            )
        if isinstance(phrase, Hash):
            self._event("hash", place_name, "#")
            return HashEvidence.of(evidence, place_name)
        if isinstance(phrase, Copy):
            return evidence
        if isinstance(phrase, Null):
            return EmptyEvidence()
        raise PolicyError(f"unknown phrase node {type(phrase).__name__}")
