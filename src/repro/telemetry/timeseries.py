"""The flight recorder: windowed time-series frames over the registry.

End-of-run telemetry answers *how much*; an operator reacting to a
compromised switch needs *when*. The :class:`FlightRecorder` samples
the metrics registry (plus derived per-node state) on a fixed
**sim-time** cadence and stores one sparse, delta-encoded frame per
window, so a million-packet fat-tree campaign keeps a bounded, replay-
able timeline of per-link throughput, drop rates, verdict outcomes,
epoch seals and cache churn — the substrate the health/SLO engine
(:mod:`repro.telemetry.health`) evaluates at every window close.

Determinism is the design driver, exactly as for stats and the audit
journal (``docs/SHARDING.md``):

- Ticks are **virtual**: the simulator fires every due tick *before*
  executing an event at ``t`` (a tick at exactly ``t`` fires first, so
  frame ``w`` covers the half-open interval ``[w·Δ, (w+1)·Δ)``).
  Nothing enters the event queue, so ``events_processed`` and every
  seeded draw are untouched by sampling.
- Frame times are **nominal** (``(w+1)·Δ``), never a shard-local
  clock read, and **empty windows produce no frame** — which is what
  lets per-shard streams (whose shards finish at different local
  times) merge byte-identically to the monolith's stream.
- The cumulative view reads only **single-writer** state: counters
  and the simulator's network counts (each labeled child is counted
  by exactly one shard), ``*_sim_seconds``
  histograms (sim-clock latencies — wall-clock ones are excluded), and
  owned-node probes. Deltas are therefore exact, and
  :func:`merge_frame_streams` is a per-window field-wise sum.

Memory stays bounded two ways: frames are sparse deltas (quiet links
cost nothing), and the frame store is a counted-eviction
:class:`~repro.util.ring.RingBuffer` like every other log here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.telemetry.metrics import Counter, Histogram, render_name
from repro.util.ring import RingBuffer

DEFAULT_MAX_FRAMES = 8192

#: Histograms whose *base name* ends with this suffix observe sim-clock
#: durations and join the byte-identity contract; wall-clock histograms
#: stay out of frames entirely.
SIM_SECONDS_SUFFIX = "_sim_seconds"

#: A probe yields extra cumulative ``(flat_key, value)`` pairs sampled
#: at each tick (e.g. owned-node evidence-cache counters).
Probe = Callable[[], Iterable[Tuple[str, float]]]

Frame = Dict[str, object]


@dataclass(frozen=True)
class SamplingSpec:
    """How a campaign wants its flight recorder configured.

    Frozen and picklable: the sharded runner ships one spec to every
    worker so all shards tick on the same nominal grid.
    """

    #: Window width in sim seconds; ticks fire at ``(w+1)·interval_s``.
    interval_s: float
    #: Ring capacity of the frame store (evictions are counted).
    max_frames: int = DEFAULT_MAX_FRAMES

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(
                f"sample interval must be positive, got {self.interval_s}"
            )
        if self.max_frames <= 0:
            raise ValueError(
                f"max_frames must be positive, got {self.max_frames}"
            )


# --- the delta codec -----------------------------------------------------------


def delta_encode(
    prev: Mapping[str, float], curr: Mapping[str, float]
) -> Dict[str, float]:
    """Sparse difference ``curr - prev`` (keys absent from ``prev``
    count from zero; unchanged keys are omitted)."""
    delta: Dict[str, float] = {}
    for key, value in curr.items():
        step = value - prev.get(key, 0.0)
        if step != 0.0:
            delta[key] = step
    return delta


def apply_delta(
    base: Mapping[str, float], delta: Mapping[str, float]
) -> Dict[str, float]:
    """Fold one frame's delta back onto a cumulative view."""
    out = dict(base)
    for key, step in delta.items():
        out[key] = out.get(key, 0.0) + step
    return out


def cumulative_at(frames: Sequence[Frame], window: int) -> Dict[str, float]:
    """Replay frames up to and including ``window`` into one view."""
    view: Dict[str, float] = {}
    for frame in frames:
        if int(frame["w"]) > window:
            break
        view = apply_delta(view, frame["v"])  # type: ignore[arg-type]
    return view


# --- the recorder --------------------------------------------------------------


class FlightRecorder:
    """Samples one telemetry domain into windowed delta frames.

    The owner (a :class:`~repro.net.simulator.Simulator` or
    :class:`~repro.net.sharding.ShardSimulator`) calls
    :meth:`advance_to` with event times as its loop drains, and
    :meth:`finish` once at the end of the run; both are cheap no-ops
    when no tick is due.
    """

    def __init__(
        self,
        spec: SamplingSpec,
        telemetry,
        probes: Sequence[Probe] = (),
        runtime_probe: Optional[Callable[[], Tuple[float, float]]] = None,
    ) -> None:
        self.spec = spec
        self.telemetry = telemetry
        self.probes: List[Probe] = list(probes)
        #: Optional ``() -> (backlog_len, busy_seconds)`` — wall-clock
        #: flavored, reported in the non-canonical ``runtime`` section
        #: only, never inside frames.
        self.runtime_probe = runtime_probe
        self._frames: RingBuffer[Frame] = RingBuffer(spec.max_frames)
        self._prev: Dict[str, float] = {}
        self._ticks = 0
        self._finished = False

    # -- the sampling loop ------------------------------------------------------

    @property
    def next_tick_s(self) -> float:
        """Sim time of the next due tick (the owner's pump threshold)."""
        return (self._ticks + 1) * self.spec.interval_s

    def advance_to(self, now_s: float) -> None:
        """Fire every tick with nominal time ≤ ``now_s``.

        Called *before* the event at ``now_s`` executes, so that
        event's effects land in the next window.
        """
        if self._finished:
            return
        interval = self.spec.interval_s
        while (self._ticks + 1) * interval <= now_s:
            self._close_window(self._ticks)
            self._ticks += 1

    def finish(self, now_s: float) -> None:
        """Fire due ticks, then close the residual partial window.

        Idempotent — the sharded path finalizes defensively.
        """
        if self._finished:
            return
        self.advance_to(now_s)
        self._close_window(self._ticks)
        self._finished = True

    def _close_window(self, window: int) -> None:
        curr = self._cumulative()
        delta = delta_encode(self._prev, curr)
        self._prev = curr
        if not delta:
            return  # idle window: no frame, by design (see module doc)
        self._frames.append(
            {
                "w": window,
                "t": (window + 1) * self.spec.interval_s,
                "v": delta,
            }
        )

    def _cumulative(self) -> Dict[str, float]:
        """The deterministic cumulative view sampled at each tick."""
        view: Dict[str, float] = {}
        for metric in self.telemetry.metrics:
            if isinstance(metric, Counter):
                view[metric.flat] = metric.value
            elif isinstance(metric, Histogram) and metric.name.endswith(
                SIM_SECONDS_SUFFIX
            ):
                labels = metric.flat[len(metric.name):]  # "" or "{k=v,...}"
                view[f"{metric.name}.count{labels}"] = float(metric.count)
                view[f"{metric.name}.sum{labels}"] = metric.sum
        for probe in self.probes:
            for key, value in probe():
                view[key] = float(value)
        return view

    # -- results ----------------------------------------------------------------

    @property
    def frames(self) -> List[Frame]:
        """Closed frames, oldest first (bounded; see ``frames_dropped``)."""
        return self._frames.to_list()

    @property
    def frames_dropped(self) -> int:
        return self._frames.dropped

    def runtime(self) -> Dict[str, float]:
        """Wall-clock-flavored extras for the ``runtime`` export section."""
        if self.runtime_probe is None:
            return {}
        backlog, busy_s = self.runtime_probe()
        return {"backlog": float(backlog), "busy_s": float(busy_s)}


def net_counter_probe(sim) -> Probe:
    """The simulator's live network counts
    (:meth:`~repro.net.simulator.Simulator.counter_tallies`). They reach
    the registry only when a run ends; where it already holds one, this
    probe's later read of the same key is what the tick records."""

    def probe() -> Iterable[Tuple[str, float]]:
        for name, labels, value in sim.counter_tallies():
            yield render_name(name, labels), value

    return probe


def node_cache_probe(sim) -> Probe:
    """Cumulative evidence-cache counters for the nodes ``sim`` owns.

    Mirrors the ownership gating of
    :func:`~repro.telemetry.instrument.collect_simulator`, so each
    ``switch=`` label is emitted by exactly one shard and frame merges
    stay exact. (``hit_rate`` is derived, not cumulative — the report
    side recomputes it from hits/misses.)

    The switches and their keys are resolved at the first tick: a run's
    nodes are bound when its scenario is built, before the recorder is
    installed.
    """
    switches: Optional[List[tuple]] = None

    def probe() -> Iterable[Tuple[str, float]]:
        nonlocal switches
        if switches is None:
            switches = []
            for name in sim.bound_nodes:
                if not sim.owns(name):
                    continue
                node = sim.node(name)
                if getattr(node, "ra_stats", None) is None:
                    continue
                labels = (("switch", name),)
                switches.append((
                    node,
                    render_name("pera.cache.hits", labels),
                    render_name("pera.cache.misses", labels),
                    render_name("pera.cache.invalidations", labels),
                ))
        for node, hits, misses, invalidations in switches:
            stats = node.cache.stats
            yield hits, stats.hits
            yield misses, stats.misses
            yield invalidations, stats.invalidations

    return probe


def qdisc_depth_probe(sim) -> Probe:
    """Current egress-queue depths for the queues ``sim`` owns.

    A depth is a *level*, not a counter: the recorder's delta encoding
    turns the sampled series into signed steps, and summing them back
    (the health evaluator's cumulative view, a
    :class:`~repro.telemetry.health.LevelRule`'s input) reconstructs
    the occupancy at each window close. Queues are created lazily but
    never destroyed, so once a key appears it is sampled at every
    later tick — the monotone key-set the delta encoder relies on.
    """

    def probe() -> Iterable[Tuple[str, float]]:
        for node, port, depth_bytes in sim.qdisc_queue_depths():
            labels = (("node", node), ("port", str(port)))
            yield render_name("net.qdisc.depth_bytes", labels), float(
                depth_bytes
            )

    return probe


def install_recorder(sim, spec: SamplingSpec) -> FlightRecorder:
    """Attach a flight recorder to a simulator (monolith or shard).

    Wires the network-count probe, the owned-node cache probe, the
    owned egress-queue depth probe, and the simulator's runtime probe,
    then hands the recorder to ``sim.install_recorder`` so the event
    loop pumps it.
    """
    recorder = FlightRecorder(
        spec,
        sim.telemetry,
        probes=[
            net_counter_probe(sim), node_cache_probe(sim),
            qdisc_depth_probe(sim),
        ],
        runtime_probe=lambda: sim.recorder_runtime(),
    )
    sim.install_recorder(recorder)
    return recorder


# --- canonical merge -----------------------------------------------------------


def merge_frame_streams(
    shard_frames: Sequence[Sequence[Frame]],
) -> List[Frame]:
    """Merge per-shard frame streams into the canonical global stream.

    Frames group by window index and their sparse deltas sum key-wise
    (every key is single-writer or an integer counter, so the sum is
    exact); windows no shard populated stay absent, matching the
    monolith's empty-window omission. Nominal times make the merged
    ``t`` well-defined regardless of shard-local finish times.
    """
    by_window: Dict[int, Dict[str, float]] = {}
    for frames in shard_frames:
        for frame in frames:
            window = int(frame["w"])
            bucket = by_window.setdefault(window, {})
            for key, step in frame["v"].items():  # type: ignore[union-attr]
                bucket[key] = bucket.get(key, 0.0) + step
    merged: List[Frame] = []
    for window in sorted(by_window):
        values = by_window[window]
        # Zero-sum keys vanish, exactly as delta_encode omits zero
        # steps on the monolith (can only arise from exotic probes —
        # counter deltas are nonnegative).
        values = {k: values[k] for k in sorted(values) if values[k] != 0.0}
        if not values:
            continue
        merged.append({"w": window, "t": None, "v": values})
    return merged


def renumber_frame_times(frames: List[Frame], interval_s: float) -> List[Frame]:
    """Stamp nominal close times onto merged frames (in place)."""
    for frame in frames:
        frame["t"] = (int(frame["w"]) + 1) * interval_s
    return frames


__all__ = [
    "DEFAULT_MAX_FRAMES",
    "FlightRecorder",
    "Probe",
    "SIM_SECONDS_SUFFIX",
    "SamplingSpec",
    "apply_delta",
    "cumulative_at",
    "delta_encode",
    "install_recorder",
    "merge_frame_streams",
    "net_counter_probe",
    "node_cache_probe",
    "qdisc_depth_probe",
    "renumber_frame_times",
]
