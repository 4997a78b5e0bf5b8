"""Declarative health/SLO rules evaluated over flight-recorder frames.

The monitoring story the paper's operational case needs: a compromised
switch, a lossy link or a dead appraiser should be *detected* by the
telemetry layer inside the fault window, not reconstructed from the
journal afterwards. Rules are small frozen declarations — thresholds
on per-window rates, trailing-window ratios, absence-of-signal and
levels — evaluated at every window close
over the merged frame stream, emitting typed ``alert.raised`` /
``alert.cleared`` events that carry the offending values.

Evaluation is a pure function of ``(frames, rules, interval_s)``: it
runs **post-merge** in the sharded parent, so the alert timeline is
byte-identical across shard counts for free — the same argument that
makes the audit merge canonical. Alert events are shaped exactly like
audit-journal export dicts (``seq``/``time_s``/``kind``/``actor``/
``detail``) so campaigns fold them into the journal with
:func:`~repro.telemetry.audit.merge_audit_events`.

Every rule judges each window close as *breached*, *compliant* or
*no signal* (:meth:`HealthRule.judge`), and one state machine turns
those judgements into alerts: ``for_windows`` breaches in a row raise
(one, except for :class:`AbsenceRule`), the first compliant window
clears, and no signal changes nothing. The rules (values are
**per-window deltas** unless noted):

- :class:`ThresholdRule` — matching-key delta sum ``> threshold``.
- :class:`RatioRule` — numerator/denominator delta sums over a
  trailing ``over_windows`` aggregation; a zero denominator means "no
  traffic" and evaluates as compliant.
- :class:`AbsenceRule` — no signal until its counter has counted
  anything; then a window without matching activity is a breach, and
  activity is compliant.
- :class:`LevelRule` — bounds the worst **cumulative** matching value
  (a reconstructed *level*, not a rate): summing a sampled occupancy
  probe's deltas yields the current occupancy, so this is the rule
  for queue depths and other gauges the flight recorder carries as
  probe series.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.audit import AuditKind, merge_audit_events
from repro.telemetry.metrics import parse_name
from repro.telemetry.timeseries import Frame, apply_delta

#: The ``actor`` stamped on alert events (no node owns the health layer).
HEALTH_ACTOR = "health"

LabelFilter = Tuple[Tuple[str, str], ...]
#: One window's judgement: its value, and whether the rule is breached
#: (``True``), compliant (``False``) or without signal (``None``).
Judgement = Tuple[float, Optional[bool]]


def label_filter(**labels: object) -> LabelFilter:
    """Build a rule label constraint: ``label_filter(switch="s1")``."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _matching(
    view: Mapping[str, float], metric: str, labels: LabelFilter = ()
) -> List[float]:
    """The values of ``view``'s ``metric`` keys that carry ``labels``."""
    values = []
    for key, value in view.items():
        name, items = parse_name(key)
        if name == metric and (not labels or set(labels) <= set(items)):
            values.append(value)
    return values


class HealthRule:
    """What the five rule kinds share: each judges every window close,
    and :func:`evaluate_health` turns the judgements into alerts."""

    kind: ClassVar[str]
    #: Breaches in a row that raise the rule.
    for_windows = 1

    def judge(
        self,
        delta: Mapping[str, float],
        cumulative: Mapping[str, float],
        history: Sequence[Mapping[str, float]],
    ) -> Judgement:
        """Judge one window from its delta, the cumulative view after it
        and every delta so far (oldest first)."""
        raise NotImplementedError

    def raise_detail(self, streak: int) -> Dict[str, object]:
        """What an ``alert.raised`` carries besides its value."""
        return {"threshold": self.threshold}  # type: ignore[attr-defined]

    def as_doc(self) -> Dict[str, object]:
        """The rule for the run bundle: its ``type`` and its fields."""
        doc: Dict[str, object] = {"type": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            doc[f.name] = dict(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True)
class ThresholdRule(HealthRule):
    """Per-window delta sum above ``threshold``."""

    name: str
    metric: str
    threshold: float = 0.0
    labels: LabelFilter = ()
    kind: ClassVar[str] = "threshold"

    def judge(self, delta, cumulative, history) -> Judgement:
        value = sum(_matching(delta, self.metric, self.labels))
        return value, value > self.threshold


@dataclass(frozen=True)
class RatioRule(HealthRule):
    """Trailing-window ratio (e.g. verdict fail rate) above ``threshold``.

    The numerator and denominator are delta sums over the trailing
    ``over_windows`` windows (inclusive); windows with a zero
    denominator are compliant by definition.
    """

    name: str
    numerator: str
    denominator: str
    threshold: float
    over_windows: int = 1
    numerator_labels: LabelFilter = ()
    kind: ClassVar[str] = "ratio"

    def judge(self, delta, cumulative, history) -> Judgement:
        tail = history[-self.over_windows :]
        num = sum(
            sum(_matching(d, self.numerator, self.numerator_labels)) for d in tail
        )
        den = sum(sum(_matching(d, self.denominator)) for d in tail)
        if den > 0:
            ratio = num / den
            return ratio, ratio > self.threshold
        return 0.0, False


@dataclass(frozen=True)
class AbsenceRule(HealthRule):
    """No matching activity for ``for_windows`` windows after arming.

    The rule arms once its counter has counted anything (a positive
    cumulative sum), so a run that never produces the signal never
    raises it.
    """

    name: str
    metric: str
    for_windows: int = 2
    kind: ClassVar[str] = "absence"

    def judge(self, delta, cumulative, history) -> Judgement:
        activity = sum(_matching(delta, self.metric))
        if activity > 0:
            return activity, False
        if sum(_matching(cumulative, self.metric)) > 0:
            return 0.0, True
        return 0.0, None

    def raise_detail(self, streak: int) -> Dict[str, object]:
        return {"silent_windows": streak}


@dataclass(frozen=True)
class LevelRule(HealthRule):
    """Worst cumulative matching value above ``threshold`` — a level.

    Delta-encoded probe series (queue depth sampled every window)
    reconstruct the current occupancy when their deltas are summed,
    which is exactly the ``cumulative`` view the evaluator maintains;
    the rule bounds the worst single matching key (one queue's depth).
    """

    name: str
    metric: str
    threshold: float
    kind: ClassVar[str] = "level"

    def judge(self, delta, cumulative, history) -> Judgement:
        level = max(_matching(cumulative, self.metric), default=0.0)
        return level, level > self.threshold


@dataclass
class HealthReport:
    """Everything the health pass produced for one campaign."""

    alerts: List[Dict[str, object]]
    rules: List[Dict[str, object]]
    windows: int
    #: Rules still raised when the run ended: ``{rule_name: raise_window}``.
    active: Dict[str, int]

    @property
    def raised(self) -> List[Dict[str, object]]:
        return [a for a in self.alerts if a["kind"] == AuditKind.ALERT_RAISED]

    @property
    def cleared(self) -> List[Dict[str, object]]:
        return [a for a in self.alerts if a["kind"] == AuditKind.ALERT_CLEARED]

    def alerts_for(self, rule_name: str) -> List[Dict[str, object]]:
        return [
            a
            for a in self.alerts
            if a["detail"]["rule"] == rule_name  # type: ignore[index]
        ]

    def first_raise_window(self, rule_name: str) -> Optional[int]:
        for alert in self.alerts:
            if (
                alert["kind"] == AuditKind.ALERT_RAISED
                and alert["detail"]["rule"] == rule_name  # type: ignore[index]
            ):
                return int(alert["detail"]["window"])  # type: ignore[index]
        return None


class _RuleState:
    __slots__ = ("raised", "streak", "window")

    def __init__(self) -> None:
        self.raised = False
        self.streak = 0
        self.window = -1


def evaluate_health(
    frames: Sequence[Frame],
    rules: Sequence[HealthRule],
    interval_s: float,
) -> HealthReport:
    """Run every rule over every window close; emit the alert timeline.

    Pure and deterministic: windows run 0..max(w) with absent frames
    treated as all-zero deltas, rules evaluate in declaration order,
    and alert ``seq`` renumbers 1..N in emission order. ``time_s`` is
    the nominal window close time ``(w+1)·interval_s``.
    """
    deltas: Dict[int, Mapping[str, float]] = {
        int(frame["w"]): frame["v"] for frame in frames  # type: ignore[misc]
    }
    last_window = max(deltas) if deltas else -1
    states = [_RuleState() for _ in rules]
    cumulative: Dict[str, float] = {}
    history: List[Mapping[str, float]] = []
    alerts: List[Dict[str, object]] = []

    def emit(kind: str, rule, window: int, **detail: object) -> None:
        alerts.append(
            {
                "seq": len(alerts) + 1,
                "time_s": (window + 1) * interval_s,
                "kind": kind,
                "actor": HEALTH_ACTOR,
                "detail": {"rule": rule.name, "window": window, **detail},
            }
        )

    for window in range(last_window + 1):
        delta = deltas.get(window, {})
        cumulative = apply_delta(cumulative, delta)
        history.append(delta)
        for rule, state in zip(rules, states):
            value, breached = rule.judge(delta, cumulative, history)
            if breached:
                state.streak += 1
                if not state.raised and state.streak >= rule.for_windows:
                    state.raised = True
                    state.window = window
                    emit(
                        AuditKind.ALERT_RAISED,
                        rule,
                        window,
                        value=value,
                        **rule.raise_detail(state.streak),
                    )
            elif breached is not None:
                state.streak = 0
                if state.raised:
                    state.raised = False
                    emit(AuditKind.ALERT_CLEARED, rule, window, value=value)

    return HealthReport(
        alerts=alerts,
        rules=[rule.as_doc() for rule in rules],
        windows=last_window + 1,
        active={
            rule.name: state.window
            for rule, state in zip(rules, states)
            if state.raised
        },
    )


def fold_alerts(journal, alerts: Sequence[Mapping[str, object]]) -> None:
    """Merge alert dicts into an :class:`~repro.telemetry.audit.AuditJournal`.

    Alerts are audit-export-shaped, so :func:`merge_audit_events`
    orders the union by ``(time, trace, actor, seq)`` and renumbers —
    the journal export stays byte-identical across shard counts
    whether or not a health pass ran.
    """
    if not alerts:
        return
    docs = merge_audit_events(
        [[event.as_dict() for event in journal.events], list(alerts)]
    )
    journal.clear()
    journal.load(docs)


def run_health_pass(run, rules) -> Optional[HealthReport]:
    """A campaign's post-merge health pass over ``run`` (a
    :class:`~repro.net.shardrun.ShardedResult`): evaluate ``rules``
    over its frames and fold the alerts into its journal. ``None``
    rules mean no pass.

    A pure function of the canonical frame stream, run in the parent
    after the merge, so the alert timeline cannot depend on the
    partitioning.
    """
    if rules is None:
        return None
    report = evaluate_health(run.frames, list(rules), run.sample_interval_s)
    fold_alerts(run.telemetry.audit, report.alerts)
    return report


__all__ = [
    "AbsenceRule",
    "HEALTH_ACTOR",
    "HealthReport",
    "HealthRule",
    "LevelRule",
    "RatioRule",
    "ThresholdRule",
    "evaluate_health",
    "fold_alerts",
    "label_filter",
    "run_health_pass",
]
