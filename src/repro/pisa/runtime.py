"""A P4Runtime-like control-plane API.

Mirrors the verbs of the real P4Runtime gRPC service in-process:
``set_forwarding_pipeline_config`` (program install),
``write``/``read`` on table entries, digest subscriptions, and master arbitration (one writer at a time per
device). The calibration hint for this reproduction calls P4Runtime
scripting the standard control-plane substrate — this module is that
substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.pisa.actions import ActionCall
from repro.pisa.pipeline import Pipeline
from repro.pisa.program import DataplaneProgram
from repro.pisa.tables import InstalledEntry, MatchKey
from repro.util.errors import PipelineError


@dataclass(frozen=True)
class TableEntry:
    """Control-plane view of one table entry (P4Runtime ``TableEntry``)."""

    table: str
    keys: Tuple[MatchKey, ...]
    action: str
    params: Tuple[int, ...] = ()
    priority: int = 0


@dataclass
class DigestMessage:
    """A dataplane-to-controller notification (P4Runtime ``DigestList``)."""

    name: str
    payload: dict


class P4Runtime:
    """The control-plane endpoint of one switch.

    Owns the device's pipeline: installs programs, writes entries,
    streams digests. ``election_id`` arbitration admits exactly one
    master controller; writes from non-masters are rejected, which is
    the hook the attestation story cares about — a rogue controller
    *can* become master by presenting a higher election id, and only
    attestation of the installed program reveals what it did.
    """

    def __init__(self, device_id: str) -> None:
        self.device_id = device_id
        self.pipeline: Optional[Pipeline] = None
        self._master_election_id: int = 0
        self._master: Optional[str] = None
        self._digest_subscribers: Dict[str, List[Callable[[DigestMessage], None]]] = {}
        self.config_history: List[str] = []
        # Observers called with the kind of state change ("config" or
        # "table") after every successful write. PERA's evidence cache
        # hangs off this: control-plane writes must invalidate cached
        # measurements immediately, not at TTL expiry.
        self.change_observers: List[Callable[[str], None]] = []

    def _notify(self, kind: str) -> None:
        for observer in self.change_observers:
            observer(kind)

    # --- arbitration -----------------------------------------------------

    def arbitrate(self, controller: str, election_id: int) -> bool:
        """Claim mastership; highest election id wins (P4Runtime §5.3)."""
        if election_id <= 0:
            raise PipelineError("election id must be positive")
        if election_id >= self._master_election_id:
            self._master_election_id = election_id
            self._master = controller
            return True
        return False

    @property
    def master(self) -> Optional[str]:
        return self._master

    def _check_master(self, controller: str) -> None:
        if controller != self._master:
            raise PipelineError(
                f"controller {controller!r} is not master of device "
                f"{self.device_id!r} (master: {self._master!r})"
            )

    # --- pipeline config -----------------------------------------------------

    def set_forwarding_pipeline_config(
        self, controller: str, program: DataplaneProgram
    ) -> Pipeline:
        """Install ``program``, replacing any previous pipeline.

        Table entries do NOT survive a program swap — exactly why use
        case UC1 wants the swap to be attestable.
        """
        self._check_master(controller)
        self.pipeline = Pipeline(program)
        self.config_history.append(program.full_name)
        self._notify("config")
        return self.pipeline

    def get_forwarding_pipeline_config(self) -> Optional[DataplaneProgram]:
        return self.pipeline.program if self.pipeline else None

    def _require_pipeline(self) -> Pipeline:
        if self.pipeline is None:
            raise PipelineError(
                f"device {self.device_id!r} has no forwarding pipeline config"
            )
        return self.pipeline

    # --- table writes -----------------------------------------------------------

    def write(self, controller: str, entry: TableEntry) -> None:
        """Insert a table entry (P4Runtime INSERT)."""
        self._check_master(controller)
        pipeline = self._require_pipeline()
        spec = pipeline.program.table_spec(entry.table)
        if entry.action not in spec.allowed_actions:
            raise PipelineError(
                f"action {entry.action!r} not allowed in table {entry.table!r}"
            )
        action = pipeline.program.action(entry.action)
        pipeline.table(entry.table).insert(
            InstalledEntry(
                keys=entry.keys,
                action_call=ActionCall(action=action, params=entry.params),
                priority=entry.priority,
            )
        )
        self._notify("table")

    def delete(self, controller: str, entry: TableEntry) -> bool:
        """Remove a table entry (P4Runtime DELETE); True if found."""
        self._check_master(controller)
        pipeline = self._require_pipeline()
        action = pipeline.program.action(entry.action)
        removed = pipeline.table(entry.table).remove(
            InstalledEntry(
                keys=entry.keys,
                action_call=ActionCall(action=action, params=entry.params),
                priority=entry.priority,
            )
        )
        if removed:
            self._notify("table")
        return removed

    def read_entries(self, table: str) -> List[InstalledEntry]:
        """Read back a table's entries (P4Runtime READ)."""
        return self._require_pipeline().table(table).entries

    # --- action-selector groups ----------------------------------------------

    def write_group(
        self, controller: str, group_id: int, ports: Tuple[int, ...]
    ) -> None:
        """Install a multipath group's member ports (P4Runtime
        ``ActionProfileGroup`` INSERT/MODIFY).

        Entries written with the ``ecmp_select`` action reference the
        group by id; the pipeline's member-selector hook picks among
        the ports per packet. Master-gated like every write — a rogue
        controller rewriting a next-hop set is exactly as attestable
        as one rewriting an entry.
        """
        self._check_master(controller)
        self._require_pipeline().set_group(group_id, ports)
        self._notify("table")

    def read_groups(self) -> Dict[int, Tuple[int, ...]]:
        """Read back all installed multipath groups."""
        return dict(self._require_pipeline().groups)

    # --- digests ----------------------------------------------------------------

    def subscribe_digest(
        self, name: str, callback: Callable[[DigestMessage], None]
    ) -> None:
        self._digest_subscribers.setdefault(name, []).append(callback)

    def emit_digest(self, name: str, payload: dict) -> int:
        """Called by the dataplane; returns subscriber count."""
        message = DigestMessage(name=name, payload=payload)
        subscribers = self._digest_subscribers.get(name, [])
        for callback in subscribers:
            callback(message)
        return len(subscribers)
