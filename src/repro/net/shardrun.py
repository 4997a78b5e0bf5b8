"""The sharded runner: drive N :class:`ShardSimulator` loops to one
merged, canonical result.

Two backends run the identical barrier protocol:

* ``inline`` — every shard in this process, stepped round-robin. This
  is the reference implementation and the default: ``shards=1`` inline
  is how every campaign runs unless told otherwise.
* ``mp`` — one ``multiprocessing`` worker per shard (fork start
  method), a pipe per worker, one message round-trip per window.

The barrier is one *exchange* in both: each shard hands over its
outbox already bucketed by destination shard, each bucket tagged with
its earliest arrival time; the runner forwards buckets unopened (under
``mp`` as the bytes the source worker pickled, so an entry is pickled
once and unpickled once and the parent does no per-entry work) and the
destination shard sorts what it receives canonically.

Whatever the backend or shard count, the *merge* is canonical:
:meth:`~repro.net.simulator.SimStats.merge` folds stats field-wise,
metric snapshots merge by label
(:func:`repro.telemetry.metrics.merge_snapshots`), and audit streams
merge into one journal ordered by ``(sim_time, trace_id, seq)``
(:func:`repro.telemetry.audit.merge_audit_events`). The runner
canonicalizes even at one shard, so ``shards=1`` output is the
byte-identical baseline the determinism tests pin 2- and 4-shard runs
against.

The scenario contract is a :class:`ScenarioSpec`: a topology (or
factory), a ``build(sim)`` callable that constructs the *full* world
on every shard (ownership gates make execution single-writer — see
:mod:`repro.net.sharding`), and an optional ``harvest(sim, ctx)``
returning a picklable per-shard output. Builds must be deterministic
and, for the ``mp`` backend, module-level callables (or
``functools.partial`` of one) so results can cross the pipe.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.net.sharding import (
    Partition,
    ShardSimulator,
    partition_topology,
)
from repro.net.simulator import SimStats
from repro.net.topology import Topology
from repro.telemetry.audit import merge_audit_events
from repro.telemetry.instrument import Telemetry
from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.timeseries import (
    SamplingSpec,
    install_recorder,
    merge_frame_streams,
    renumber_frame_times,
)
from repro.telemetry.tracing import reset_trace_ids
from repro.util.errors import NetworkError

BACKENDS = ("inline", "mp")

#: Runaway guard on the drain/resume cycle (a drain hook that keeps
#: scheduling fresh work forever is a scenario bug, not a slow run).
MAX_DRAIN_ROUNDS = 64


@dataclass(frozen=True)
class ScenarioSpec:
    """A sharding-ready scenario: topology + full-world build + harvest.

    ``topology`` may be a :class:`Topology` instance or a zero-argument
    factory (factories rebuild per worker under ``mp``, instances are
    shared read-only). ``build(sim)`` binds every node and schedules
    all driving events; it runs once per shard and must be
    deterministic. ``harvest(sim, ctx)`` extracts the per-shard output
    (verdicts, received packets, fault stats) after finalization.

    ``drain(sim, ctx)``, when given, runs after the event queues go
    dry, with every shard's clock advanced to the same global time; it
    may schedule fresh events (the canonical use: sealing still-open
    evidence epochs, whose releases forward parked packets). The
    runner then resumes the window loop, repeating until a drain round
    leaves all shards idle — the barrier-synced form of the plain
    :class:`~repro.net.simulator.Simulator`'s "flush, then run()
    again" idiom.

    ``sampling``, when given, installs a
    :class:`~repro.telemetry.timeseries.FlightRecorder` on every shard;
    the runner merges the per-shard frame streams canonically at the
    end (see :func:`~repro.telemetry.timeseries.merge_frame_streams`),
    so ``ShardedResult.frames`` is byte-identical across shard counts
    like stats and the audit journal.
    """

    topology: Union[Topology, Callable[[], Topology]]
    build: Callable[[Any], Any]
    harvest: Optional[Callable[[Any, Any], Any]] = None
    drain: Optional[Callable[[Any, Any], None]] = None
    sampling: Optional[SamplingSpec] = None

    def make_topology(self) -> Topology:
        topo = self.topology() if callable(self.topology) else self.topology
        if not isinstance(topo, Topology):
            raise NetworkError(
                f"scenario topology resolved to {type(topo).__name__}, "
                "expected Topology"
            )
        return topo


@dataclass
class ShardedResult:
    """The canonical merged output of one sharded run."""

    shards: int
    backend: str
    stats: SimStats
    audit_events: List[Dict[str, object]]
    metrics: Dict[str, Dict[str, object]]
    outputs: List[Any]
    lookahead_s: float
    windows: int
    partition: Partition
    telemetry: Optional[Telemetry] = field(default=None, repr=False)
    #: Per-shard compute time (seconds of event processing, summed over
    #: windows). Wall-clock measurements — deliberately *outside* the
    #: deterministic exports.
    shard_busy_s: List[float] = field(default_factory=list)
    #: Merged flight-recorder frames (empty when the spec sampled
    #: nothing). Deterministic: part of the byte-identity contract.
    frames: List[Dict[str, object]] = field(default_factory=list)
    frames_dropped: int = 0
    #: The sampling window width the frames were recorded at.
    sample_interval_s: Optional[float] = None
    #: Per-shard recorder runtime (backlog/busy) — wall-clock flavored,
    #: outside the deterministic exports like ``shard_busy_s``.
    frames_runtime: List[Dict[str, float]] = field(default_factory=list)

    @property
    def events_processed(self) -> int:
        return self.stats.events_processed

    @property
    def critical_path_s(self) -> float:
        """The slowest shard's compute time: what the run's wall clock
        converges to when every shard has its own core (the standard
        conservative-PDES capacity metric)."""
        return max(self.shard_busy_s, default=0.0)

    def audit_export(self) -> str:
        """The merged audit journal as deterministic JSON — the byte
        string the determinism tests compare across shard counts."""
        return json.dumps(self.audit_events, sort_keys=True)

    def stats_export(self) -> str:
        return json.dumps(self.stats.as_dict(), sort_keys=True)

    def frames_export(self) -> str:
        """The merged frame stream as deterministic JSON — compared
        across shard counts exactly like :meth:`audit_export`."""
        return json.dumps(self.frames, sort_keys=True)


def _worker_opts(runner: "ShardedRunner", max_events: int) -> Dict[str, Any]:
    return {
        "seed": runner.seed,
        "control_latency_s": runner.control_latency_s,
        "telemetry_active": runner.telemetry_active,
        "max_events": max_events,
    }


def _build_shard(
    spec: ScenarioSpec,
    topology: Topology,
    partition: Partition,
    shard_id: int,
    opts: Dict[str, Any],
) -> tuple:
    """Construct one shard's simulator and run the scenario build."""
    telemetry = Telemetry(active=opts["telemetry_active"])
    sim = ShardSimulator(
        topology,
        partition,
        shard_id,
        seed=opts["seed"],
        control_latency_s=opts["control_latency_s"],
        telemetry=telemetry,
    )
    ctx = spec.build(sim)
    if spec.sampling is not None:
        install_recorder(sim, spec.sampling)
    return sim, ctx


def _finish_shard(
    spec: ScenarioSpec, sim: ShardSimulator, ctx: Any, until: Optional[float]
) -> Dict[str, Any]:
    """Advance to ``until``, run the final barrier, and bundle the
    shard's picklable contribution to the merge."""
    if until is not None:
        sim.clock.advance_to(until)
    # Ticks due at the final clock fire *before* the barrier sweep, so
    # deltas from barrier-sealed epochs land in the residual window —
    # exactly where the monolith's end-of-run flush puts them.
    sim.pump_recorder()
    sim.run_barrier_hooks()
    sim.finalize()
    output = spec.harvest(sim, ctx) if spec.harvest is not None else None
    recorder = sim.recorder
    return {
        "stats": sim.stats.as_dict(),
        "audit": [event.as_dict() for event in sim.telemetry.audit.events],
        "metrics": sim.telemetry.metrics.snapshot(),
        "output": output,
        "busy_s": sim.busy_seconds,
        "frames": recorder.frames if recorder is not None else [],
        "frames_dropped": (
            recorder.frames_dropped if recorder is not None else 0
        ),
        "frames_runtime": recorder.runtime() if recorder is not None else {},
    }


def _pickled_outbox(sim: ShardSimulator) -> Dict[int, tuple]:
    """The shard's outbox with each destination's entry list pickled:
    the one serialization a cross-shard entry gets under ``mp``."""
    return {
        dest: (earliest, pickle.dumps(entries, pickle.HIGHEST_PROTOCOL))
        for dest, (earliest, entries) in sim.take_outbox().items()
    }


def _shard_worker(conn, spec, partition, shard_id, opts) -> None:
    """The ``mp`` backend's per-shard process body.

    Protocol (one pipe round-trip per window):

    * worker → parent: ``("ready", next_event_time, clock_now)``
    * parent → worker: ``("step", t_end, hard_limit, blobs)``
    * worker → parent: ``("stepped", outbox, processed, next_time,
      clock_now)``
    * parent → worker: ``("drain", t_sync)`` — advance to the global
      sync time, run the scenario's drain hook
    * worker → parent: ``("drained", outbox, next_time, clock_now)``
    * parent → worker: ``("finish", until)``
    * worker → parent: ``("finished", bundle)`` and exit.

    Cross-shard traffic is pickled exactly once, here: ``outbox`` is
    ``{destination shard: (earliest arrival, pickled entry list)}``,
    and ``blobs`` are the byte strings other workers addressed to this
    shard, relayed by the parent unopened. This worker unpickles them
    and :meth:`~repro.net.sharding.ShardSimulator.inject` puts the
    entries in canonical order.

    Any exception is shipped back as ``("error", traceback)`` so the
    parent can fail loudly instead of hanging on a dead pipe.
    """
    try:
        reset_trace_ids()
        topology = spec.make_topology()
        sim, ctx = _build_shard(spec, topology, partition, shard_id, opts)
        conn.send(("ready", sim.next_event_time(), sim.clock.now))
        while True:
            message = conn.recv()
            if message[0] == "step":
                _, t_end, hard_limit, blobs = message
                sim.inject(
                    [entry for blob in blobs for entry in pickle.loads(blob)]
                )
                processed = sim.run_window(
                    t_end, hard_limit=hard_limit,
                    max_events=opts["max_events"],
                )
                sim.run_barrier_hooks()
                conn.send(
                    ("stepped", _pickled_outbox(sim), processed,
                     sim.next_event_time(), sim.clock.now)
                )
            elif message[0] == "drain":
                sim.clock.advance_to(message[1])
                # Ticks due at the sync time close before drain work
                # (epoch flushes) mutates counters, keeping the flush
                # deltas in the same window the monolith assigns them.
                sim.pump_recorder()
                if spec.drain is not None:
                    spec.drain(sim, ctx)
                conn.send(
                    ("drained", _pickled_outbox(sim), sim.next_event_time(),
                     sim.clock.now)
                )
            elif message[0] == "finish":
                conn.send(
                    ("finished", _finish_shard(spec, sim, ctx, message[1]))
                )
                return
            else:
                raise NetworkError(f"unknown runner command {message[0]!r}")
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class ShardedRunner:
    """Partition a scenario, run its shards to completion, merge."""

    def __init__(
        self,
        spec: ScenarioSpec,
        shards: int = 1,
        backend: str = "inline",
        seed: int = 0,
        control_latency_s: float = 50e-6,
        telemetry_active: bool = True,
    ) -> None:
        if backend not in BACKENDS:
            raise NetworkError(
                f"unknown backend {backend!r} (choose from {BACKENDS})"
            )
        self.spec = spec
        self.shards = shards
        self.backend = backend
        self.seed = seed
        self.control_latency_s = control_latency_s
        self.telemetry_active = telemetry_active

    # --- public entry ---------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> ShardedResult:
        topology = self.spec.make_topology()
        partition = partition_topology(
            topology, self.shards, self.control_latency_s
        )
        if self.backend == "mp":
            bundles, windows = self._run_mp(partition, until, max_events)
        else:
            bundles, windows = self._run_inline(
                topology, partition, until, max_events
            )
        return self._merge(partition, bundles, windows)

    # --- backends -------------------------------------------------------------

    @staticmethod
    def _exchange(
        outboxes: List[Dict[int, tuple]], pending: List[List[tuple]]
    ) -> None:
        """Hand every outbox bucket to its destination shard, unopened.

        A bucket is ``(earliest arrival, payload)``; the payload is the
        source shard's entry list (``inline``) or its pickle (``mp``)
        and only the destination looks inside — it sorts what it gets
        canonically in ``inject``, so neither the order of ``outboxes``
        nor the shard count shows in the result.
        """
        for outbox in outboxes:
            for dest, bucket in outbox.items():
                pending[dest].append(bucket)

    def _run_inline(self, topology, partition, until, max_events):
        reset_trace_ids()
        opts = _worker_opts(self, max_events)
        sims: List[ShardSimulator] = []
        ctxs: List[Any] = []
        for shard_id in range(partition.shard_count):
            sim, ctx = _build_shard(
                self.spec, topology, partition, shard_id, opts
            )
            sims.append(sim)
            ctxs.append(ctx)
        pending: List[List[tuple]] = [[] for _ in sims]
        windows = 0
        drain_rounds = 0
        while True:
            while True:
                start = self._next_start(
                    [sim.next_event_time() for sim in sims], pending, until
                )
                if start is None:
                    break
                t_end = start + partition.lookahead_s
                outboxes = []
                for shard_id, sim in enumerate(sims):
                    if pending[shard_id]:
                        sim.inject([
                            entry
                            for _earliest, entries in pending[shard_id]
                            for entry in entries
                        ])
                        pending[shard_id] = []
                    sim.run_window(
                        t_end, hard_limit=until, max_events=max_events
                    )
                    sim.run_barrier_hooks()
                    outboxes.append(sim.take_outbox())
                windows += 1
                self._exchange(outboxes, pending)
            if self.spec.drain is None:
                break
            drain_rounds += 1
            if drain_rounds > MAX_DRAIN_ROUNDS:
                raise NetworkError(
                    "scenario drain hook kept scheduling work after "
                    f"{MAX_DRAIN_ROUNDS} rounds"
                )
            t_sync = max(sim.clock.now for sim in sims)
            outboxes = []
            for sim, ctx in zip(sims, ctxs):
                sim.clock.advance_to(t_sync)
                sim.pump_recorder()
                self.spec.drain(sim, ctx)
                outboxes.append(sim.take_outbox())
            self._exchange(outboxes, pending)
            if (
                self._next_start(
                    [sim.next_event_time() for sim in sims], pending, until
                )
                is None
            ):
                break
        bundles = [
            _finish_shard(self.spec, sim, ctx, until)
            for sim, ctx in zip(sims, ctxs)
        ]
        return bundles, windows

    @staticmethod
    def _next_start(
        next_times: List[Optional[float]],
        pending: List[List[tuple]],
        until: Optional[float],
    ) -> Optional[float]:
        """The next window's start time, or None when the run is over
        (no pending work, or all of it beyond ``until``). Pending
        buckets answer with the earliest arrival they travel with; no
        entry is looked at."""
        times = [t for t in next_times if t is not None]
        times.extend(
            earliest for queue in pending for earliest, _payload in queue
        )
        if not times:
            return None
        start = min(times)
        if until is not None and start > until:
            return None
        return start

    def _run_mp(self, partition, until, max_events):
        mp = multiprocessing.get_context("fork")
        opts = _worker_opts(self, max_events)
        conns = []
        procs = []
        try:
            for shard_id in range(partition.shard_count):
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_shard_worker,
                    args=(child_conn, self.spec, partition, shard_id, opts),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            next_times = []
            clocks = []
            for conn in conns:
                _, next_time, now = self._recv(conn, "ready")
                next_times.append(next_time)
                clocks.append(now)
            pending: List[List[tuple]] = [[] for _ in conns]
            windows = 0
            drain_rounds = 0
            while True:
                while True:
                    start = self._next_start(next_times, pending, until)
                    if start is None:
                        break
                    t_end = start + partition.lookahead_s
                    for shard_id, conn in enumerate(conns):
                        blobs = [blob for _earliest, blob in pending[shard_id]]
                        conn.send(("step", t_end, until, blobs))
                        pending[shard_id] = []
                    outboxes = []
                    for shard_id, conn in enumerate(conns):
                        _, outbox, _processed, next_time, now = self._recv(
                            conn, "stepped"
                        )
                        next_times[shard_id] = next_time
                        clocks[shard_id] = now
                        outboxes.append(outbox)
                    windows += 1
                    self._exchange(outboxes, pending)
                if self.spec.drain is None:
                    break
                drain_rounds += 1
                if drain_rounds > MAX_DRAIN_ROUNDS:
                    raise NetworkError(
                        "scenario drain hook kept scheduling work after "
                        f"{MAX_DRAIN_ROUNDS} rounds"
                    )
                t_sync = max(clocks)
                for conn in conns:
                    conn.send(("drain", t_sync))
                outboxes = []
                for shard_id, conn in enumerate(conns):
                    _, outbox, next_time, now = self._recv(conn, "drained")
                    next_times[shard_id] = next_time
                    clocks[shard_id] = now
                    outboxes.append(outbox)
                self._exchange(outboxes, pending)
                if self._next_start(next_times, pending, until) is None:
                    break
            for conn in conns:
                conn.send(("finish", until))
            bundles = [self._recv(conn, "finished")[1] for conn in conns]
            return bundles, windows
        finally:
            for conn in conns:
                try:
                    conn.close()
                except Exception:
                    pass
            for proc in procs:
                proc.join(timeout=30)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()

    @staticmethod
    def _recv(conn, expected: str):
        try:
            message = conn.recv()
        except EOFError:
            raise NetworkError(
                "shard worker died without reporting an error"
            ) from None
        if message[0] == "error":
            raise NetworkError(f"shard worker failed:\n{message[1]}")
        if message[0] != expected:
            raise NetworkError(
                f"shard worker protocol error: got {message[0]!r}, "
                f"expected {expected!r}"
            )
        return message

    # --- merge ----------------------------------------------------------------

    def _merge(
        self,
        partition: Partition,
        bundles: List[Dict[str, Any]],
        windows: int,
    ) -> ShardedResult:
        stats = SimStats()
        for bundle in bundles:
            stats = stats.merge(SimStats(**bundle["stats"]))
        audit = merge_audit_events(
            [bundle["audit"] for bundle in bundles]
        )
        metrics = merge_snapshots(
            [bundle["metrics"] for bundle in bundles]
        )
        telemetry: Optional[Telemetry] = None
        if self.telemetry_active:
            telemetry = Telemetry(active=True)
            telemetry.audit.load(audit)
            telemetry.metrics.absorb_snapshot(metrics)
        frames: List[Dict[str, object]] = []
        frames_dropped = 0
        frames_runtime: List[Dict[str, float]] = []
        interval_s: Optional[float] = None
        if self.spec.sampling is not None:
            interval_s = self.spec.sampling.interval_s
            frames = merge_frame_streams(
                [bundle.get("frames", []) for bundle in bundles]
            )
            renumber_frame_times(frames, interval_s)
            frames_dropped = sum(
                int(bundle.get("frames_dropped", 0)) for bundle in bundles
            )
            frames_runtime = [
                dict(bundle.get("frames_runtime", {})) for bundle in bundles
            ]
        return ShardedResult(
            shards=partition.shard_count,
            backend=self.backend,
            stats=stats,
            audit_events=audit,
            metrics=metrics,
            outputs=[bundle["output"] for bundle in bundles],
            lookahead_s=partition.lookahead_s,
            windows=windows,
            partition=partition,
            telemetry=telemetry,
            shard_busy_s=[
                float(bundle.get("busy_s", 0.0)) for bundle in bundles
            ],
            frames=frames,
            frames_dropped=frames_dropped,
            sample_interval_s=interval_s,
            frames_runtime=frames_runtime,
        )


def run_sharded(
    spec: ScenarioSpec,
    shards: int = 1,
    backend: str = "inline",
    seed: int = 0,
    until: Optional[float] = None,
    max_events: int = 1_000_000,
    control_latency_s: float = 50e-6,
    telemetry_active: bool = True,
) -> ShardedResult:
    """One-call convenience wrapper around :class:`ShardedRunner`."""
    return ShardedRunner(
        spec,
        shards=shards,
        backend=backend,
        seed=seed,
        control_latency_s=control_latency_s,
        telemetry_active=telemetry_active,
    ).run(until=until, max_events=max_events)


__all__ = [
    "BACKENDS",
    "ScenarioSpec",
    "ShardedResult",
    "ShardedRunner",
    "run_sharded",
]
