"""A process-local metrics registry: counters, gauges, histograms.

The design target is the simulator's per-packet hot path: an increment
must be one attribute add on a pre-resolved object. Metrics are
resolved once (``registry.counter(name, **labels)`` get-or-creates)
and then held by the instrumented object, so steady-state cost is
``self._tx.inc(n)`` — a slotted ``+=``. Labeled children give the
per-switch / per-link / per-policy breakdowns the paper's cost story
needs (Fig. 4's axes are only legible when the numbers are split by
where they were paid).

Disabled telemetry hands out the ``NULL_*`` singletons instead, whose
mutators are no-ops, so call sites never branch.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for wall-clock latencies in seconds
#: (10µs .. 10s, roughly half-decade steps).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0,
)


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@functools.lru_cache(maxsize=None)
def render_name(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` — the flat key used in snapshots and tables.

    Memoised like :func:`parse_name`, and for the same reason: the
    flight recorder's probes name the same closed key set at every
    tick, so each key is rendered once per process.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@functools.lru_cache(maxsize=None)
def parse_name(flat: str) -> Tuple[str, LabelItems]:
    """Invert :func:`render_name` (labels must not contain ``,`` / ``=``).

    Memoised: health rules parse every key of every flight-recorder
    frame, and a run's key set is closed (842 keys on the k=4 congested
    ledger run). Unbounded, because the rules scan the keys in one
    cyclic order, which a bounded LRU smaller than the key set misses
    on every call; across runs in one process the cache grows only by
    keys with new node, port or label names.
    """
    if not flat.endswith("}") or "{" not in flat:
        return flat, ()
    name, _, inner = flat[:-1].partition("{")
    items = []
    for pair in inner.split(","):
        key, _, value = pair.partition("=")
        items.append((key, value))
    return name, tuple(items)


class Counter:
    """A monotonically increasing count (events, packets, bytes)."""

    __slots__ = ("name", "labels", "flat", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.flat = render_name(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (queue depth, cache size)."""

    __slots__ = ("name", "labels", "flat", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.flat = render_name(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram (cumulative-style upper bounds).

    ``buckets`` are sorted inclusive upper bounds; one overflow bucket
    is added implicitly. ``observe`` is a bisect plus two adds, cheap
    enough for per-appraisal latencies.
    """

    __slots__ = ("name", "labels", "flat", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        chosen = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        if list(chosen) != sorted(chosen):
            raise ValueError(f"histogram buckets must be sorted: {chosen}")
        self.name = name
        self.labels = labels
        self.flat = render_name(name, labels)
        self.buckets = chosen
        self.counts: List[int] = [0] * (len(chosen) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "mean": self.mean,
        }


class _NullCounter(Counter):
    """Shared sink for disabled telemetry: mutators are no-ops."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Get-or-create home of every metric in one telemetry domain.

    A metric's identity is ``(name, sorted label items)``; asking for
    the same identity twice returns the same object, so instrumented
    code can resolve eagerly and increment forever. Asking for one
    name with two different metric kinds is a bug and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, _label_items(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, _label_items(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets=buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _get_or_create(self, cls, name: str, labels: LabelItems):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics by kind, keyed ``name{labels}`` — the JSON view."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for _key, metric in sorted(self._metrics.items()):
            out[metric.kind + "s"][metric.flat] = metric.snapshot()
        return out

    def absorb_snapshot(self, snap: Mapping[str, Mapping[str, object]]) -> None:
        """Fold an exported snapshot into this registry's live metrics.

        The sharded runner's merge path: each shard exports its own
        ``snapshot()`` (a picklable dict), and the parent absorbs them
        one by one. Counters and gauges add; histograms merge
        bucket-wise (bucket layouts must match). Gauges are summed
        because every simulator-level gauge in this codebase is a
        per-shard total (packets, bytes, cache sizes) — a ratio-style
        gauge would need its own merge rule and deserves a counter pair
        instead.
        """
        for flat, value in snap.get("counters", {}).items():
            name, labels = parse_name(flat)
            self._get_or_create(Counter, name, labels).value += float(value)
        for flat, value in snap.get("gauges", {}).items():
            name, labels = parse_name(flat)
            self._get_or_create(Gauge, name, labels).value += float(value)
        for flat, doc in snap.get("histograms", {}).items():
            name, labels = parse_name(flat)
            buckets = tuple(doc["buckets"])
            hist = self.histogram(name, buckets=buckets, **dict(labels))
            if hist.buckets != buckets:
                raise ValueError(
                    f"histogram {flat!r} bucket mismatch: "
                    f"{hist.buckets} vs {buckets}"
                )
            for i, count in enumerate(doc["counts"]):
                hist.counts[i] += int(count)
            hist.sum += float(doc["sum"])
            hist.count += int(doc["count"])


def merge_snapshots(
    snapshots: Iterator[Mapping[str, Mapping[str, object]]] | List,
) -> Dict[str, Dict[str, object]]:
    """Merge per-shard metric snapshots into one combined snapshot."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.absorb_snapshot(snap)
    return merged.snapshot()
