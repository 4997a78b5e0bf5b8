"""The attestation audit journal: structured, append-only, bounded.

Counters say a signature was verified; the journal says *which*
signature, over *which* evidence node, for *which* packet, and what the
appraiser concluded. Each :class:`AuditEvent` is one step of an RA
protocol run — a measurement taken, an evidence node created, composed,
inspected or stripped, a signature made or verified, a cache hit, a
verdict — linked to

- the owning **trace** (:mod:`repro.telemetry.tracing` id + hop), and
- the content-addressed **evidence digest** of the
  :mod:`repro.evidence` node it concerns,

so the journal is the faithful, auditable execution record Copland-
style infrastructures demand: every claim an appraiser makes about a
packet can be replayed against the journal entry where the evidence
was produced.

The journal is a counted-eviction :class:`~repro.util.ring.RingBuffer`
(like spans and flight-recorder frames): heavy traffic truncates the oldest
events and says so, instead of eating the heap. The disabled fast path
is the shared :data:`NULL_JOURNAL`, whose :meth:`~AuditJournal.record`
does nothing and allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.util.clock import SimClock
from repro.util.ring import RingBuffer

DEFAULT_MAX_EVENTS = 65536


class AuditKind:
    """Event-kind vocabulary (plain strings, namespaced like metrics)."""

    TRACE_STARTED = "trace.started"
    PACKET_FORWARDED = "packet.forwarded"
    PACKET_DELIVERED = "packet.delivered"
    PACKET_DROPPED = "packet.dropped"
    CONTROL_SENT = "control.sent"
    MEASUREMENT_TAKEN = "measurement.taken"
    EVIDENCE_CREATED = "evidence.created"
    EVIDENCE_COMPOSED = "evidence.composed"
    EVIDENCE_INSPECTED = "evidence.inspected"
    EVIDENCE_PUSHED = "evidence.pushed"
    EVIDENCE_SENT_OOB = "evidence.sent_oob"
    EVIDENCE_CACHE_HIT = "evidence.cache_hit"
    EVIDENCE_CACHE_MISS = "evidence.cache_miss"
    SIGNATURE_MADE = "signature.made"
    SIGNATURE_VERIFIED = "signature.verified"
    EPOCH_SEALED = "epoch.sealed"
    CHECK_FAILED = "check.failed"
    VERDICT_ISSUED = "verdict.issued"
    POLICY_TEST_FAILED = "policy.test_failed"
    GATE_DROPPED = "gate.dropped"
    CONTROL_DROPPED = "control.dropped"
    FAULT_INJECTED = "fault.injected"
    FAULT_CLEARED = "fault.cleared"
    RECOVERY_RESENT = "recovery.resent"
    RECOVERY_RETRY = "recovery.retry"
    RECOVERY_RECOVERED = "recovery.recovered"
    RECOVERY_GAVE_UP = "recovery.gave_up"
    RECOVERY_REPROVISIONED = "recovery.reprovisioned"
    ALERT_RAISED = "alert.raised"
    ALERT_CLEARED = "alert.cleared"


class Check:
    """Appraisal check names (the ``check=`` detail of CHECK_FAILED)."""

    SIGNATURE = "signature"
    MEASUREMENT = "measurement"
    CHAIN = "chain"
    COVERAGE = "coverage"
    FUNCTION = "function"
    NONCE = "nonce"
    BINDING = "binding"
    SHIM = "shim"
    AVAILABILITY = "availability"
    OTHER = "other"


class CheckFailures(List[str]):
    """A failure sink that remembers which check produced each message.

    An appraiser sets :attr:`current` to the :class:`Check` it is about
    to run, and its checks append plain strings (the verdict's
    ``failures``); :attr:`detailed` pairs each with its check so the
    audit journal reports failures structurally.
    """

    def __init__(self) -> None:
        super().__init__()
        self.current: str = Check.OTHER
        self.detailed: List[Tuple[str, str]] = []

    def append(self, message: str) -> None:
        super().append(message)
        self.detailed.append((self.current, message))


@dataclass(frozen=True)
class AuditEvent:
    """One structured journal entry (immutable once recorded)."""

    seq: int
    time_s: float
    kind: str
    actor: str
    trace: Optional[str] = None
    hop: Optional[int] = None
    digest: Optional[str] = None  # hex content digest of the evidence node
    detail: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The export form (a ``journal`` entry of the run bundle)."""
        doc: Dict[str, object] = {
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "actor": self.actor,
        }
        if self.trace is not None:
            doc["trace"] = self.trace
        if self.hop is not None:
            doc["hop"] = self.hop
        if self.digest is not None:
            doc["digest"] = self.digest
        if self.detail:
            doc["detail"] = dict(self.detail)
        return doc

    def __repr__(self) -> str:
        trace = f" trace={self.trace}@{self.hop}" if self.trace else ""
        return f"AuditEvent({self.seq}, {self.kind}, {self.actor}{trace})"


class AuditJournal:
    """Bounded append-only journal against one (rebindable) sim clock."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.clock = clock or SimClock()
        self._events: RingBuffer[AuditEvent] = RingBuffer(max_events)
        self._seq = 0

    def bind_clock(self, clock: SimClock) -> None:
        """Point event timestamps at a (new) simulator's clock."""
        self.clock = clock

    def record(
        self,
        kind: str,
        actor: str,
        trace: Optional[str] = None,
        hop: Optional[int] = None,
        digest: Optional[bytes] = None,
        **detail: object,
    ) -> AuditEvent:
        """Append one event; returns it (mostly for tests)."""
        self._seq += 1
        event = AuditEvent(
            seq=self._seq,
            time_s=self.clock.now,
            kind=kind,
            actor=actor,
            trace=trace,
            hop=hop,
            digest=digest.hex() if digest is not None else None,
            detail=detail,
        )
        self._events.append(event)
        return event

    # --- queries -----------------------------------------------------------

    @property
    def events(self) -> List[AuditEvent]:
        """All retained events, oldest first (bounded; see ``dropped``)."""
        return self._events.to_list()

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer."""
        return self._events.dropped

    def for_trace(self, trace_id: Optional[str]) -> List[AuditEvent]:
        """Events belonging to one trace, in journal order."""
        if trace_id is None:
            return []
        return [e for e in self._events if e.trace == trace_id]

    def load(self, events: Iterable["EventLike"]) -> None:
        """Append pre-built events (merged shard streams, replays)."""
        for event in events:
            if not isinstance(event, AuditEvent):
                event = event_from_dict(event)
            self._events.append(event)
            if event.seq > self._seq:
                self._seq = event.seq

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


class _NullJournal(AuditJournal):
    """The disabled fast path: record() allocates nothing."""

    def record(self, kind, actor, trace=None, hop=None, digest=None, **detail):
        return None  # type: ignore[return-value]


NULL_JOURNAL = _NullJournal(max_events=1)


def event_from_dict(doc: Mapping[str, object]) -> AuditEvent:
    """Rebuild an :class:`AuditEvent` from its :meth:`~AuditEvent.as_dict`
    export form (the sharded runner ships events across processes as
    dicts and rehydrates them into the parent journal)."""
    return AuditEvent(
        seq=int(doc["seq"]),  # type: ignore[arg-type]
        time_s=float(doc["time_s"]),  # type: ignore[arg-type]
        kind=str(doc["kind"]),
        actor=str(doc["actor"]),
        trace=doc.get("trace"),  # type: ignore[arg-type]
        hop=doc.get("hop"),  # type: ignore[arg-type]
        digest=doc.get("digest"),  # type: ignore[arg-type]
        detail=dict(doc.get("detail", {}) or {}),  # type: ignore[arg-type]
    )


def _merge_sort_key(doc: Mapping[str, object], shard_seq: int):
    """Canonical ordering for merged journals:
    ``(time, trace, actor, seq)``.

    Every actor is owned by exactly one shard (ownership gates), so an
    actor's events all carry shard-local seqs from the same journal and
    their relative order is the actor's causal order — invariant under
    re-partitioning. Distinct actors sharing a ``(time, trace)`` group
    are causally concurrent (an effect at another node always pays a
    strictly positive link latency, landing at a later timestamp; a
    cloned packet *can* put one trace at two nodes at the same instant,
    which is exactly the concurrent case), so ordering them by name is
    a sound canonical choice.
    """
    trace = doc.get("trace") or ""
    return (
        float(doc["time_s"]),  # type: ignore[arg-type]
        trace,
        str(doc.get("actor", "")),
        shard_seq,
    )


def merge_audit_events(
    shard_events: Sequence[Sequence[EventLike]],
) -> List[Dict[str, object]]:
    """Merge per-shard audit streams into one canonical journal.

    Returns export-form dicts sorted by ``(sim_time, trace_id,
    tiebreak)`` and renumbered ``seq`` = 1..N, so the merged stream is
    byte-identical no matter how the fabric was partitioned — the
    determinism contract :mod:`repro.net.shardrun` pins in tests.
    """
    keyed = []
    for events in shard_events:
        for event in events:
            doc = event.as_dict() if isinstance(event, AuditEvent) else dict(event)
            keyed.append((_merge_sort_key(doc, int(doc.get("seq", 0))), doc))
    keyed.sort(key=lambda pair: pair[0])
    merged = []
    for new_seq, (_, doc) in enumerate(keyed, start=1):
        doc["seq"] = new_seq
        merged.append(doc)
    return merged

# --- the narrative renderer (shared by explain() and the report CLI) ----------

EventLike = Union[AuditEvent, Mapping[str, object]]


def _as_dict(event: EventLike) -> Mapping[str, object]:
    if isinstance(event, AuditEvent):
        return event.as_dict()
    return event


def _describe(doc: Mapping[str, object]) -> str:
    """One human-readable line for one event (without the hop prefix)."""
    kind = doc.get("kind", "?")
    actor = doc.get("actor", "?")
    detail = doc.get("detail", {}) or {}
    digest = doc.get("digest")
    short = f" [{str(digest)[:12]}]" if digest else ""
    if kind == AuditKind.TRACE_STARTED:
        return f"{actor}: trace started"
    if kind == AuditKind.PACKET_FORWARDED:
        return f"{actor}: forwarded over {detail.get('link', 'link')}"
    if kind == AuditKind.PACKET_DELIVERED:
        return f"{actor}: packet delivered"
    if kind == AuditKind.PACKET_DROPPED:
        return f"{actor}: packet dropped ({detail.get('reason', '?')})"
    if kind == AuditKind.CONTROL_SENT:
        return f"{actor}: control message to {detail.get('recipient', '?')}"
    if kind == AuditKind.MEASUREMENT_TAKEN:
        return f"{actor}: measured {detail.get('inertia', '?')}{short}"
    if kind == AuditKind.EVIDENCE_CREATED:
        return f"{actor}: evidence record created{short}"
    if kind == AuditKind.EVIDENCE_COMPOSED:
        return (
            f"{actor}: evidence composed "
            f"({detail.get('mode', '?')}){short}"
        )
    if kind == AuditKind.EVIDENCE_INSPECTED:
        return f"{actor}: inspected {detail.get('records', 0)} prior record(s)"
    if kind == AuditKind.EVIDENCE_PUSHED:
        return f"{actor}: pushed evidence in-band (+{detail.get('bytes', '?')}B)"
    if kind == AuditKind.EVIDENCE_SENT_OOB:
        return f"{actor}: sent evidence out-of-band to {detail.get('to', '?')}"
    if kind == AuditKind.EVIDENCE_CACHE_HIT:
        return f"{actor}: reused cached evidence record{short}"
    if kind == AuditKind.EVIDENCE_CACHE_MISS:
        return f"{actor}: evidence cache miss"
    if kind == AuditKind.SIGNATURE_MADE:
        return f"{actor}: signed evidence record{short}"
    if kind == AuditKind.EPOCH_SEALED:
        return (
            f"{actor}: epoch {detail.get('epoch', '?')} sealed "
            f"({detail.get('records', 0)} records, "
            f"{detail.get('reason', '?')})"
        )
    if kind == AuditKind.SIGNATURE_VERIFIED:
        ok = detail.get("ok", True)
        place = detail.get("place", "?")
        outcome = "verified" if ok else "FAILED verification"
        return f"{actor}: signature by {place} {outcome}{short}"
    if kind == AuditKind.CHECK_FAILED:
        where = detail.get("place")
        record = detail.get("record")
        at = ""
        if where is not None:
            at = f" at {where}"
            if record is not None:
                at += f" (record {record})"
        return (
            f"{actor}: check '{detail.get('check', '?')}' failed{at}: "
            f"{detail.get('message', '')}"
        )
    if kind == AuditKind.VERDICT_ISSUED:
        status = "ACCEPTED" if detail.get("accepted") else "REJECTED"
        return (
            f"{actor}: verdict {status} "
            f"({detail.get('records', 0)} records, "
            f"{detail.get('failures', 0)} failures)"
        )
    if kind == AuditKind.POLICY_TEST_FAILED:
        return f"{actor}: hop test failed (attestation skipped)"
    if kind == AuditKind.GATE_DROPPED:
        return f"{actor}: dropped by evidence gate"
    if kind == AuditKind.CONTROL_DROPPED:
        return (
            f"{actor}: control message dropped "
            f"({detail.get('reason', '?')})"
        )
    if kind == AuditKind.FAULT_INJECTED:
        return (
            f"{actor}: FAULT {detail.get('fault', '?')} "
            f"injected at {detail.get('target', '?')}"
        )
    if kind == AuditKind.FAULT_CLEARED:
        return (
            f"{actor}: fault {detail.get('fault', '?')} "
            f"cleared at {detail.get('target', '?')}"
        )
    if kind == AuditKind.RECOVERY_RESENT:
        return (
            f"{actor}: link loss recovered by local resend "
            f"({detail.get('attempts', '?')} attempt(s))"
        )
    if kind == AuditKind.RECOVERY_RETRY:
        return (
            f"{actor}: retrying delivery to {detail.get('to', '?')} "
            f"(attempt {detail.get('attempt', '?')})"
        )
    if kind == AuditKind.RECOVERY_RECOVERED:
        return (
            f"{actor}: delivery to {detail.get('to', '?')} recovered "
            f"after {detail.get('attempts', '?')} retry(ies)"
        )
    if kind == AuditKind.RECOVERY_GAVE_UP:
        return (
            f"{actor}: gave up on {detail.get('to', '?')} "
            f"after {detail.get('attempts', '?')} attempt(s)"
        )
    if kind == AuditKind.RECOVERY_REPROVISIONED:
        return (
            f"{actor}: reprovisioned {detail.get('switch', '?')} "
            "with the vetted program"
        )
    if kind == AuditKind.ALERT_RAISED:
        return (
            f"{actor}: ALERT {detail.get('rule', '?')} raised "
            f"at window {detail.get('window', '?')} "
            f"(value={detail.get('value', '?')})"
        )
    if kind == AuditKind.ALERT_CLEARED:
        return (
            f"{actor}: alert {detail.get('rule', '?')} cleared "
            f"at window {detail.get('window', '?')}"
        )
    extra = f" {dict(detail)}" if detail else ""
    return f"{actor}: {kind}{extra}"


def narrative(
    events: Iterable[EventLike], trace_id: Optional[str] = None
) -> str:
    """Join one trace's events into the per-hop story of a packet.

    ``events`` may be :class:`AuditEvent` objects or exported dicts
    (the report CLI feeds the latter); when ``trace_id`` is given,
    events belonging to other traces are filtered out first.
    """
    docs = [_as_dict(e) for e in events]
    if trace_id is not None:
        docs = [d for d in docs if d.get("trace") == trace_id]
    if not docs:
        missing = f" {trace_id}" if trace_id else ""
        return f"(no audit events recorded for trace{missing})"
    docs.sort(key=lambda d: d.get("seq", 0))
    tid = trace_id or str(docs[0].get("trace", "?"))
    hops = [int(d["hop"]) for d in docs if d.get("hop") is not None]
    lines = [
        f"trace {tid}: {len(docs)} events over "
        f"{max(hops) if hops else 0} hop(s)"
    ]
    last_hop: object = object()  # sentinel: print the first prefix too
    for doc in docs:
        hop = doc.get("hop")
        prefix = f"  hop {hop}" if hop is not None else "  ----- "
        if hop == last_hop:
            prefix = " " * len(prefix)
        last_hop = hop
        lines.append(f"{prefix}  {_describe(doc)}")
    return "\n".join(lines)


def explain_verdict(verdict, events: Iterable[EventLike]) -> str:
    """The ``PathVerdict.explain()`` renderer: narrative + conclusion.

    ``verdict`` duck-types on ``accepted``/``failures``/``trace_id`` so
    this stays importable without the core layer.
    """
    trace_id = getattr(verdict, "trace_id", None)
    degraded = getattr(verdict, "degraded", False)
    story = narrative(events, trace_id=trace_id)
    lines = [story]
    if verdict.accepted:
        lines.append(
            "conclusion: ACCEPTED (DEGRADED — fail-open without appraisal)"
            if degraded
            else "conclusion: ACCEPTED — every check passed at every hop"
        )
    else:
        mode = " (degraded mode, fail-closed)" if degraded else ""
        lines.append(
            f"conclusion: REJECTED{mode} — "
            f"{len(verdict.failures)} check(s) failed"
        )
        lines.extend(f"  - {failure}" for failure in verdict.failures)
    return "\n".join(lines)


__all__ = [
    "AuditEvent",
    "AuditJournal",
    "AuditKind",
    "Check",
    "CheckFailures",
    "DEFAULT_MAX_EVENTS",
    "NULL_JOURNAL",
    "event_from_dict",
    "explain_verdict",
    "merge_audit_events",
    "narrative",
]
