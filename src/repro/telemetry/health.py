"""Declarative health/SLO rules evaluated over flight-recorder frames.

The monitoring story the paper's operational case needs: a compromised
switch, a lossy link or a dead appraiser should be *detected* by the
telemetry layer inside the fault window, not reconstructed from the
journal afterwards. Rules are small frozen declarations — thresholds
on per-window rates, trailing-window ratios, absence-of-signal, and
load-imbalance bounds — evaluated at every window close over the
merged frame stream, emitting typed ``alert.raised`` /
``alert.cleared`` events that carry the offending values.

Evaluation is a pure function of ``(frames, rules, interval_s)``: it
runs **post-merge** in the sharded parent, so the alert timeline is
byte-identical across shard counts for free — the same argument that
makes the audit merge canonical. Alert events are shaped exactly like
audit-journal export dicts (``seq``/``time_s``/``kind``/``actor``/
``detail``) so campaigns fold them into the journal with
:func:`~repro.telemetry.audit.merge_audit_events`.

Rule semantics (all values are **per-window deltas** unless noted):

- :class:`ThresholdRule` — matching-key delta sum ``> threshold`` for
  ``over_windows`` consecutive windows raises; first compliant window
  clears.
- :class:`RatioRule` — numerator/denominator delta sums over a
  trailing ``over_windows`` aggregation; a zero denominator means "no
  traffic" and evaluates as compliant.
- :class:`AbsenceRule` — arms on the first window with matching
  activity, raises after ``for_windows`` consecutive silent windows,
  clears when the signal resumes.
- :class:`ImbalanceRule` — groups **cumulative** matching counts by a
  label-derived group key (ECMP: the sending switch is the link label
  up to the first ``:``) and bounds ``max/mean`` per group once the
  group has seen ``min_total`` events.
- :class:`LevelRule` — bounds the **cumulative** matching value (a
  reconstructed *level*, not a rate): summing a sampled occupancy
  probe's deltas yields the current occupancy, so this is the rule
  for queue depths and other gauges the flight recorder carries as
  probe series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.audit import AuditKind, merge_audit_events
from repro.telemetry.metrics import parse_name
from repro.telemetry.timeseries import Frame, apply_delta

#: The ``actor`` stamped on alert events (no node owns the health layer).
HEALTH_ACTOR = "health"

LabelFilter = Tuple[Tuple[str, str], ...]


def label_filter(**labels: object) -> LabelFilter:
    """Build a rule label constraint: ``label_filter(switch="s1")``."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _matches(key: str, metric: str, labels: LabelFilter) -> bool:
    name, items = parse_name(key)
    if name != metric:
        return False
    if not labels:
        return True
    present = dict(items)
    return all(present.get(k) == v for k, v in labels)


def _match_sum(
    view: Mapping[str, float], metric: str, labels: LabelFilter
) -> float:
    return sum(v for k, v in view.items() if _matches(k, metric, labels))


@dataclass(frozen=True)
class ThresholdRule:
    """Per-window delta sum above ``threshold`` for N consecutive windows."""

    name: str
    metric: str
    threshold: float = 0.0
    over_windows: int = 1
    labels: LabelFilter = ()
    kind: str = field(default="threshold", init=False)

    def breached(self, value: float) -> bool:
        return value > self.threshold

    def as_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "threshold": self.threshold,
            "over_windows": self.over_windows,
        }


@dataclass(frozen=True)
class RatioRule:
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
    denominator_labels: LabelFilter = ()
    kind: str = field(default="ratio", init=False)

    def as_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "threshold": self.threshold,
            "over_windows": self.over_windows,
        }


@dataclass(frozen=True)
class AbsenceRule:
    """No matching activity for ``for_windows`` windows after arming."""

    name: str
    metric: str
    for_windows: int = 2
    labels: LabelFilter = ()
    kind: str = field(default="absence", init=False)

    def as_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "for_windows": self.for_windows,
        }


@dataclass(frozen=True)
class ImbalanceRule:
    """Cumulative per-group ``max/mean`` spread above ``bound``.

    Group key: the matched key's label value for ``group_label``,
    truncated at the first ``group_sep`` — with the simulator's link
    labels (``sw:port->peer:pport``) that is the sending switch, so
    the rule bounds ECMP spread across each switch's uplinks.
    """

    name: str
    metric: str
    bound: float
    group_label: str = "link"
    group_sep: str = ":"
    min_ports: int = 2
    min_total: float = 64.0
    kind: str = field(default="imbalance", init=False)

    def groups(self, cumulative: Mapping[str, float]) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for key, value in cumulative.items():
            metric_name, items = parse_name(key)
            if metric_name != self.metric:
                continue
            label_value = dict(items).get(self.group_label)
            if label_value is None:
                continue
            group = label_value.split(self.group_sep, 1)[0]
            grouped.setdefault(group, []).append(value)
        return grouped

    def worst(self, cumulative: Mapping[str, float]) -> float:
        worst = 0.0
        for values in self.groups(cumulative).values():
            if len(values) < self.min_ports or sum(values) < self.min_total:
                continue
            mean = sum(values) / len(values)
            if mean > 0:
                worst = max(worst, max(values) / mean)
        return worst

    def as_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "metric": self.metric,
            "bound": self.bound,
            "group_label": self.group_label,
            "min_ports": self.min_ports,
            "min_total": self.min_total,
        }


@dataclass(frozen=True)
class LevelRule:
    """Cumulative matching value above ``threshold`` — a level, not a rate.

    Delta-encoded probe series (queue depth sampled every window)
    reconstruct the current occupancy when their deltas are summed,
    which is exactly the ``cumulative`` view the evaluator maintains.
    ``aggregate="max"`` bounds the worst single matching key (one
    queue's depth); ``"sum"`` bounds the total across matching keys.
    Raises at the first window close with the level above
    ``threshold``; clears at the first window back at or below it.
    """

    name: str
    metric: str
    threshold: float
    aggregate: str = "max"
    labels: LabelFilter = ()
    kind: str = field(default="level", init=False)

    def __post_init__(self) -> None:
        if self.aggregate not in ("max", "sum"):
            raise ValueError(
                f"LevelRule aggregate must be 'max' or 'sum', "
                f"got {self.aggregate!r}"
            )

    def level(self, cumulative: Mapping[str, float]) -> float:
        values = [
            v
            for k, v in cumulative.items()
            if _matches(k, self.metric, self.labels)
        ]
        if not values:
            return 0.0
        return max(values) if self.aggregate == "max" else sum(values)

    def as_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "threshold": self.threshold,
            "aggregate": self.aggregate,
        }


HealthRule = object  # union of the five dataclasses above (duck-typed)


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
    __slots__ = ("raised", "streak", "armed", "silent")

    def __init__(self) -> None:
        self.raised = False
        self.streak = 0
        self.armed = False
        self.silent = 0


def _window_deltas(frames: Sequence[Frame]) -> Dict[int, Mapping[str, float]]:
    deltas: Dict[int, Mapping[str, float]] = {}
    for frame in frames:
        deltas[int(frame["w"])] = frame["v"]  # type: ignore[assignment]
    return deltas


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
    deltas = _window_deltas(frames)
    last_window = max(deltas) if deltas else -1
    states = {id(rule): _RuleState() for rule in rules}
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
        for rule in rules:
            state = states[id(rule)]
            if isinstance(rule, ThresholdRule):
                value = _match_sum(delta, rule.metric, rule.labels)
                if rule.breached(value):
                    state.streak += 1
                    if not state.raised and state.streak >= rule.over_windows:
                        state.raised = True
                        emit(
                            AuditKind.ALERT_RAISED,
                            rule,
                            window,
                            value=value,
                            threshold=rule.threshold,
                        )
                else:
                    state.streak = 0
                    if state.raised:
                        state.raised = False
                        emit(AuditKind.ALERT_CLEARED, rule, window, value=value)
            elif isinstance(rule, RatioRule):
                tail = history[-rule.over_windows :]
                num = sum(
                    _match_sum(d, rule.numerator, rule.numerator_labels)
                    for d in tail
                )
                den = sum(
                    _match_sum(d, rule.denominator, rule.denominator_labels)
                    for d in tail
                )
                ratio = num / den if den > 0 else 0.0
                if den > 0 and ratio > rule.threshold:
                    if not state.raised:
                        state.raised = True
                        emit(
                            AuditKind.ALERT_RAISED,
                            rule,
                            window,
                            value=ratio,
                            threshold=rule.threshold,
                        )
                elif state.raised:
                    state.raised = False
                    emit(AuditKind.ALERT_CLEARED, rule, window, value=ratio)
            elif isinstance(rule, AbsenceRule):
                activity = _match_sum(delta, rule.metric, rule.labels)
                if activity > 0:
                    state.armed = True
                    state.silent = 0
                    if state.raised:
                        state.raised = False
                        emit(
                            AuditKind.ALERT_CLEARED, rule, window, value=activity
                        )
                elif state.armed:
                    state.silent += 1
                    if not state.raised and state.silent >= rule.for_windows:
                        state.raised = True
                        emit(
                            AuditKind.ALERT_RAISED,
                            rule,
                            window,
                            value=0.0,
                            silent_windows=state.silent,
                        )
            elif isinstance(rule, LevelRule):
                level = rule.level(cumulative)
                if level > rule.threshold:
                    if not state.raised:
                        state.raised = True
                        emit(
                            AuditKind.ALERT_RAISED,
                            rule,
                            window,
                            value=level,
                            threshold=rule.threshold,
                        )
                elif state.raised:
                    state.raised = False
                    emit(AuditKind.ALERT_CLEARED, rule, window, value=level)
            elif isinstance(rule, ImbalanceRule):
                worst = rule.worst(cumulative)
                if worst > rule.bound:
                    if not state.raised:
                        state.raised = True
                        emit(
                            AuditKind.ALERT_RAISED,
                            rule,
                            window,
                            value=worst,
                            threshold=rule.bound,
                        )
                elif state.raised and worst > 0:
                    state.raised = False
                    emit(AuditKind.ALERT_CLEARED, rule, window, value=worst)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown health rule type: {rule!r}")

    active = {
        rule.name: int(
            next(
                (
                    a["detail"]["window"]  # type: ignore[index]
                    for a in reversed(alerts)
                    if a["detail"]["rule"] == rule.name  # type: ignore[index]
                    and a["kind"] == AuditKind.ALERT_RAISED
                ),
                -1,
            )
        )
        for rule in rules
        if states[id(rule)].raised
    }
    return HealthReport(
        alerts=alerts,
        rules=[rule.as_doc() for rule in rules],
        windows=last_window + 1,
        active=active,
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
    "ImbalanceRule",
    "LevelRule",
    "RatioRule",
    "ThresholdRule",
    "evaluate_health",
    "fold_alerts",
    "label_filter",
    "run_health_pass",
]
