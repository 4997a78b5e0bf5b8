"""A model of the health engine (``evaluate_health``) over random frames.

Hypothesis draws a sparse stream of per-window deltas (windows may be
missing; a missing window is an all-zero delta) over a small key
alphabet, and a rule list: random rules of all four kinds, optionally
followed by one of the two shipped rule sets. The engine's alerts and
its ``active`` map must equal a reference written rule by rule from
docs/MONITORING.md's table, each about ten lines over the whole window
series:

- threshold: the window's matching delta sum above ``threshold``;
- ratio: numerator over denominator summed over the trailing
  ``over_windows`` windows, above ``threshold``; a zero denominator
  is compliant;
- absence: after the first window with activity, ``for_windows``
  silent windows in a row raise; activity clears;
- level: the worst matching *cumulative* value above ``threshold``.

Counter keys only step up, as the recorder's counters do; the gauge
keys (``q`` and the queue depth) step both ways. Alerts are compared
as JSON text, which tells ``0`` from ``0.0``: the run goldens hash
them that way.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chaos import standard_chaos_rules
from repro.core.fabric import standard_fabric_rules
from repro.telemetry.health import (
    AbsenceRule,
    LevelRule,
    RatioRule,
    ThresholdRule,
    evaluate_health,
    label_filter,
)

#: Keys the random rules watch: ``m`` is a counter, ``q`` a gauge.
RANDOM_KEYS = [
    "m", "m{a=x}", "m{a=y,link=s1:1->a:1}", "m{link=s1:2->b:1}",
    "m{a=x,link=s2:1->a:2}",
]
RANDOM_GAUGE_KEYS = ["q{link=s1:1->a:1}", "q{a=x,link=s1:2->b:1}"]
#: Keys the shipped rule sets watch (the queue depth is a gauge).
SHIPPED_KEYS = [
    "net.qdisc.depth_bytes{node=s1,port=1}",
    "net.qdisc.depth_bytes{node=s2,port=2}",
    "net.link.dropped{link=s1:1->a:1}",
    "net.control.dropped{reason=down,recipient=A}",
    "core.path_verdicts{accepted=False}", "core.path_verdicts{accepted=True}",
    "faults.events{fault=clock_skew,status=injected}",
    "faults.events{fault=packet_corrupt,status=injected}",
    "net.link.tx_packets{link=s1:1->a:1}", "net.link.tx_packets{link=s1:2->b:1}",
    "pera.epoch_sealed_events{switch=s1}",
    "net.qdisc.pause_frames{node=s1,port=1}",
]
METRICS = ["m", "q"]
LABELS = [(), label_filter(a="x"), label_filter(a="y")]


# --- the reference -------------------------------------------------------------


def parse(key):
    name, _, inner = key.partition("{")
    return name, dict(p.split("=", 1) for p in inner.rstrip("}").split(",") if p)


def matching(view, metric, labels=()):
    return [
        v for k, v in view.items()
        if parse(k)[0] == metric and all(parse(k)[1].get(a) == b for a, b in labels)
    ]


def ref_threshold(rule, deltas, cums):
    up, out = False, []
    for w, delta in enumerate(deltas):
        value = sum(matching(delta, rule.metric, rule.labels))
        if value > rule.threshold and not up:
            up = True
            out.append(
                (w, "alert.raised", {"value": value, "threshold": rule.threshold})
            )
        elif value <= rule.threshold and up:
            up = False
            out.append((w, "alert.cleared", {"value": value}))
    return out, up


def ref_ratio(rule, deltas, cums):
    up, out = False, []
    for w in range(len(deltas)):
        tail = deltas[max(0, w + 1 - rule.over_windows) : w + 1]
        num = sum(sum(matching(d, rule.numerator, rule.numerator_labels)) for d in tail)
        den = sum(sum(matching(d, rule.denominator)) for d in tail)
        ratio = num / den if den > 0 else 0.0
        if den > 0 and ratio > rule.threshold and not up:
            up = True
            out.append(
                (w, "alert.raised", {"value": ratio, "threshold": rule.threshold})
            )
        elif not (den > 0 and ratio > rule.threshold) and up:
            up = False
            out.append((w, "alert.cleared", {"value": ratio}))
    return out, up


def ref_absence(rule, deltas, cums):
    up, out, armed, silent = False, [], False, 0
    for w, delta in enumerate(deltas):
        activity = sum(matching(delta, rule.metric))
        if activity > 0:
            armed, silent = True, 0
            if up:
                up = False
                out.append((w, "alert.cleared", {"value": activity}))
        elif armed:
            silent += 1
            if silent >= rule.for_windows and not up:
                up = True
                out.append(
                    (w, "alert.raised", {"value": 0.0, "silent_windows": silent})
                )
    return out, up


def ref_level(rule, deltas, cums):
    up, out = False, []
    for w, cum in enumerate(cums):
        level = max(matching(cum, rule.metric), default=0.0)
        if level > rule.threshold and not up:
            up = True
            out.append(
                (w, "alert.raised", {"value": level, "threshold": rule.threshold})
            )
        elif level <= rule.threshold and up:
            up = False
            out.append((w, "alert.cleared", {"value": level}))
    return out, up


REFERENCE = {
    ThresholdRule: ref_threshold,
    RatioRule: ref_ratio,
    AbsenceRule: ref_absence,
    LevelRule: ref_level,
}


def reference(frames, rules, interval_s):
    """``(alerts, active)`` as the table in docs/MONITORING.md says."""
    by_window = {frame["w"]: frame["v"] for frame in frames}
    deltas = [by_window.get(w, {}) for w in range(max(by_window, default=-1) + 1)]
    cums, cum = [], {}
    for delta in deltas:
        cum = dict(cum)
        for key, step in delta.items():
            cum[key] = cum.get(key, 0.0) + step
        cums.append(cum)
    events, active = [], {}
    for index, rule in enumerate(rules):
        out, up = REFERENCE[type(rule)](rule, deltas, cums)
        events += [(w, index, rule.name, kind, detail) for w, kind, detail in out]
        if up:
            active[rule.name] = max(w for w, kind, _ in out if kind == "alert.raised")
    alerts = [
        {
            "seq": seq,
            "time_s": (w + 1) * interval_s,
            "kind": kind,
            "actor": "health",
            "detail": {"rule": name, "window": w, **detail},
        }
        for seq, (w, _, name, kind, detail) in enumerate(sorted(events), start=1)
    ]
    return alerts, active


# --- strategies ----------------------------------------------------------------

GAUGES = ("q", "net.qdisc.depth_bytes")
step = st.sampled_from([-5000.0, -300.0, -3.0, 3.0, 40.0, 300.0, 5000.0])


def as_delta(*parts):
    """Counters step up; gauges keep their sign."""
    return {
        k: v if parse(k)[0] in GAUGES else abs(v)
        for part in parts
        for k, v in part.items()
    }


@st.composite
def frame_streams(draw):
    frames, window = [], -1
    windows = st.tuples(
        st.sampled_from([1, 1, 1, 2, 4]),
        st.dictionaries(st.sampled_from(RANDOM_KEYS), step, max_size=3),
        st.dictionaries(st.sampled_from(RANDOM_GAUGE_KEYS), step, max_size=2),
        st.dictionaries(st.sampled_from(SHIPPED_KEYS), step, max_size=3),
    )
    for gap, *parts in draw(st.lists(windows, min_size=2, max_size=12)):
        window += gap
        frames.append(
            {"w": window, "t": float(window + 1), "v": as_delta(*parts)}
        )
    return frames


level = st.sampled_from([0.0, 1.0, 2.5, 100.0, 4096.0])
random_rule = st.one_of(
    st.builds(ThresholdRule, name=st.just(""), metric=st.sampled_from(METRICS),
              threshold=level, labels=st.sampled_from(LABELS)),
    st.builds(RatioRule, name=st.just(""), numerator=st.sampled_from(METRICS),
              denominator=st.sampled_from(METRICS),
              threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
              over_windows=st.integers(1, 3),
              numerator_labels=st.sampled_from(LABELS)),
    # Absence arms on a positive count, which only a counter keeps.
    st.builds(AbsenceRule, name=st.just(""), metric=st.just("m"),
              for_windows=st.integers(1, 3)),
    st.builds(LevelRule, name=st.just(""), metric=st.sampled_from(METRICS),
              threshold=level),
)
shipped_rules = st.one_of(
    st.just([]),
    st.just(standard_chaos_rules()),
    st.builds(standard_fabric_rules, queue_depth_bytes=level,
              pause_frames_per_window=st.sampled_from([0.0, 2.0])),
)


@settings(deadline=None)
@given(
    frames=frame_streams(),
    drawn=st.lists(random_rule, min_size=1, max_size=6),
    shipped=shipped_rules,
    interval_s=st.sampled_from([1.0, 2e-3]),
)
def test_engine_matches_reference(frames, drawn, shipped, interval_s):
    rules = [
        dataclasses.replace(rule, name=f"r{i}") for i, rule in enumerate(drawn)
    ] + shipped
    report = evaluate_health(frames, rules, interval_s)
    alerts, active = reference(frames, rules, interval_s)
    assert json.dumps(report.alerts, sort_keys=True) == json.dumps(
        alerts, sort_keys=True
    )
    assert report.active == active
