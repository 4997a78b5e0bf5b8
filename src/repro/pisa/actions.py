"""Actions: the behaviour half of match-action tables.

An :class:`Action` is a named sequence of primitives, each primitive a
small opcode over the packet context — mirroring how P4 compiles action
bodies down to a fixed primitive set (modify_field, drop, ...). Action
*definitions* are part of the program measurement; action *parameters*
arrive per table entry at run time.

Parameter references: a primitive argument given as the string
``"$0"``, ``"$1"``, ... is substituted from the entry's action data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from repro.util.errors import PipelineError


class Primitive(enum.Enum):
    """The primitive opcode set."""

    SET_FIELD = "set_field"  # (field, value)
    COPY_FIELD = "copy_field"  # (dst_field, src_field)
    ADD_TO_FIELD = "add_to_field"  # (field, delta) — wraps at field width? no: int
    FORWARD = "forward"  # (port,)
    DROP = "drop"  # ()
    TO_CPU = "to_cpu"  # () — punt to the control plane
    REGISTER_WRITE = "register_write"  # (register, index, value)
    REGISTER_READ = "register_read"  # (register, index, dst_field)
    COUNT = "count"  # (counter, index)
    MARK_RA = "mark_ra"  # () — request RA processing (PERA hook)
    CLONE = "clone"  # (port,) — duplicate the packet to another port
    NO_OP = "no_op"  # ()
    SELECT_FORWARD = "select_forward"  # (group,) — pick an ECMP group member


Arg = Union[int, str]


@dataclass(frozen=True)
class Step:
    """One primitive invocation with its (possibly symbolic) arguments."""

    primitive: Primitive
    args: Tuple[Arg, ...] = ()


@dataclass(frozen=True)
class Action:
    """A named action: an ordered sequence of steps.

    ``param_count`` declares how many runtime parameters entries must
    supply; ``$i`` references in step args index into them.
    """

    name: str
    steps: Tuple[Step, ...]
    param_count: int = 0

    def describe(self) -> bytes:
        """Canonical byte description for program measurement."""
        parts = [self.name, str(self.param_count)]
        for step in self.steps:
            parts.append(step.primitive.value)
            parts += [str(arg) for arg in step.args]
        return "|".join(parts).encode("utf-8")

    def resolve_args(
        self, step: Step, params: Sequence[int]
    ) -> Tuple[Union[int, str], ...]:
        """Substitute ``$i`` references in ``step`` from ``params``."""
        resolved = []
        for arg in step.args:
            if isinstance(arg, str) and arg.startswith("$"):
                try:
                    index = int(arg[1:])
                except ValueError as exc:
                    raise PipelineError(f"bad parameter reference {arg!r}") from exc
                if not 0 <= index < len(params):
                    raise PipelineError(
                        f"action {self.name!r} step references parameter {arg} "
                        f"but entry supplied {len(params)}"
                    )
                resolved.append(params[index])
            else:
                resolved.append(arg)
        return tuple(resolved)


@dataclass(frozen=True)
class ActionCall:
    """An action bound to concrete runtime parameters (from an entry)."""

    action: Action
    params: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.params) != self.action.param_count:
            raise PipelineError(
                f"action {self.action.name!r} expects "
                f"{self.action.param_count} parameters, got {len(self.params)}"
            )


# --- a small standard library of actions ------------------------------------

def forward_action() -> Action:
    """``forward(port)`` — set the egress port."""
    return Action("forward", (Step(Primitive.FORWARD, ("$0",)),), param_count=1)


def drop_action() -> Action:
    """``drop()`` — discard the packet."""
    return Action("drop", (Step(Primitive.DROP),))


def noop_action() -> Action:
    """``no_op()`` — match but do nothing (used as table defaults)."""
    return Action("no_op", (Step(Primitive.NO_OP),))


def ecmp_select_action() -> Action:
    """``ecmp_select(group)`` — forward via a multipath group member.

    The group id resolves against the pipeline's action-selector
    groups (installed with :meth:`repro.pisa.runtime.P4Runtime.write_group`);
    the pipeline's ``member_selector`` hook picks the member port —
    mirroring a P4 action selector backed by a hash extern.
    """
    return Action(
        "ecmp_select", (Step(Primitive.SELECT_FORWARD, ("$0",)),), param_count=1
    )

