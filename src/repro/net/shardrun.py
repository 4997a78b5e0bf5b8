"""The sharded runner: drive N :class:`ShardSimulator` loops to one
merged, canonical result.

The barrier protocol is written once: a :class:`_Shard` answers
``step`` / ``drain`` / ``finish``, and one loop
(:meth:`ShardedRunner._coordinate`) ``post``s each command to every
shard's *port*, then ``take``s every reply. A backend is its port:

* ``inline`` — the shard lives in this process and ``post`` is the
  call itself, so shards step in shard order. The default: ``shards=1``
  inline is how every campaign runs unless told otherwise.
* ``mp`` — one forked ``multiprocessing`` worker per shard pumping its
  :class:`_Shard` over a pipe, one round-trip per window.

The barrier is one *exchange*: each shard hands over its outbox
already bucketed by destination shard, each bucket tagged with its
earliest arrival time; the runner forwards buckets unopened (under
``mp`` as the bytes the source worker pickled, so an entry is pickled
once and unpickled once and the parent does no per-entry work) and the
destination shard queues what it receives under the deliveries' heap
keys, which order it canonically.

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


#: Runaway guard on the drain/resume cycle (a drain hook that keeps
#: scheduling fresh work forever is a scenario bug, not a slow run).
MAX_DRAIN_ROUNDS = 64


@dataclass(frozen=True)
class ScenarioSpec:
    """A sharding-ready scenario: topology + full-world build + harvest.

    ``topology`` may be a :class:`Topology` instance or a zero-argument
    factory, resolved once per run and shared read-only by the shards.
    ``build(sim)`` binds every node and schedules
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
    seed: int
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


def _same(bucket: List[tuple]) -> List[tuple]:
    return bucket


class _Shard:
    """One shard's side of the barrier protocol, and the ``inline``
    port to it (``take`` hands back what the ``post``-ed call returned).

    ``ready``, then any number of ``step`` and ``drain``, answer
    ``(outbox, next event time, clock)``; the closing ``finish`` answers
    the shard's picklable contribution to the merge. ``outbox`` is
    ``{destination shard: (earliest arrival, bucket)}``, a bucket being
    the entry list for that destination run through ``pack``; ``step``
    opens the buckets addressed here with ``unpack``.
    """

    def __init__(
        self,
        runner: "ShardedRunner",
        topology: Topology,
        partition: Partition,
        shard_id: int,
        max_events: int,
        pack: Callable[[List[tuple]], Any] = _same,
        unpack: Callable[[Any], List[tuple]] = _same,
    ) -> None:
        self.spec = spec = runner.spec
        self.max_events = max_events
        self._pack = pack
        self._unpack = unpack
        self.sim = ShardSimulator(
            topology,
            partition,
            shard_id,
            seed=runner.seed,
            control_latency_s=runner.control_latency_s,
            telemetry=Telemetry(active=runner.telemetry_active),
        )
        self.ctx = spec.build(self.sim)
        if spec.sampling is not None:
            install_recorder(self.sim, spec.sampling)
        self._reply: Any = self.ready()

    def post(self, op: str, *args: Any) -> None:
        self._reply = getattr(self, op)(*args)

    def take(self) -> Any:
        return self._reply

    def close(self) -> None:
        pass

    def ready(self) -> tuple:
        sim = self.sim
        outbox = {
            dest: (earliest, self._pack(entries))
            for dest, (earliest, entries) in sim.take_outbox().items()
        }
        return outbox, sim.next_event_time(), sim.clock.now

    def step(
        self, t_end: float, hard_limit: Optional[float], buckets: List[Any]
    ) -> tuple:
        sim = self.sim
        sim.inject(
            [entry for bucket in buckets for entry in self._unpack(bucket)]
        )
        sim.run_window(t_end, hard_limit, self.max_events)
        sim.run_barrier_hooks()
        return self.ready()

    def drain(self, t_sync: float) -> tuple:
        """Advance to the global sync time, run the drain hook."""
        sim = self.sim
        sim.clock.advance_to(t_sync)
        # Ticks due at the sync time close before drain work (epoch
        # flushes) mutates counters, keeping the flush deltas in the
        # same window the monolith assigns them.
        sim.pump_recorder()
        if self.spec.drain is not None:
            self.spec.drain(sim, self.ctx)
        return self.ready()

    def finish(self, until: Optional[float]) -> Dict[str, Any]:
        """Advance to ``until``, run the final barrier, and bundle the
        shard's picklable contribution to the merge."""
        sim = self.sim
        if until is not None:
            sim.clock.advance_to(until)
        # Ticks due at the final clock fire *before* the barrier sweep, so
        # deltas from barrier-sealed epochs land in the residual window —
        # exactly where the monolith's end-of-run flush puts them.
        sim.pump_recorder()
        sim.run_barrier_hooks()
        sim.finalize()
        harvest = self.spec.harvest
        # Harvest first: what a harvest-time appraiser journals is part
        # of the run's audit story and metrics.
        output = harvest(sim, self.ctx) if harvest is not None else None
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


def _dumps(entries: List[tuple]) -> bytes:
    return pickle.dumps(entries, pickle.HIGHEST_PROTOCOL)


def _shard_worker(conn, parent_end, *shard_args) -> None:
    """The ``mp`` port's far end: pump one :class:`_Shard` over a pipe.

    Each ``(op, *args)`` the parent posts is answered ``(op, reply)``,
    from an unprompted ``ready`` to the ``finish`` that ends the
    process. Buckets cross as pickles — the one serialization an entry
    gets — so what the parent relays between workers stays unopened
    bytes. Any exception is shipped back as ``("error", traceback)``
    so the parent can fail loudly instead of hanging on a dead pipe.
    """
    # The fork's own copy of the parent's end: while it is open this
    # worker never sees the parent hang up.
    parent_end.close()
    try:
        shard = _Shard(*shard_args, pack=_dumps, unpack=pickle.loads)
        op = "ready"
        while True:
            conn.send((op, shard.take()))
            if op == "finish":
                return
            op, *args = conn.recv()
            if op not in ("step", "drain", "finish"):
                raise NetworkError(f"unknown runner command {op!r}")
            shard.post(op, *args)
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _PipePort:
    """The ``mp`` port: a forked :func:`_shard_worker` behind a pipe."""

    def __init__(self, *shard_args: Any) -> None:
        mp = multiprocessing.get_context("fork")
        self._conn, child_conn = mp.Pipe()
        self._proc = mp.Process(
            target=_shard_worker,
            args=(child_conn, self._conn, *shard_args),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._posted = "ready"

    def post(self, op: str, *args: Any) -> None:
        self._conn.send((op, *args))
        self._posted = op

    def take(self) -> Any:
        try:
            answered, reply = self._conn.recv()
        except EOFError:
            raise NetworkError(
                "shard worker died without reporting an error"
            ) from None
        if answered == "error":
            raise NetworkError(f"shard worker failed:\n{reply}")
        if answered != self._posted:
            raise NetworkError(
                f"shard worker protocol error: got {answered!r}, "
                f"expected {self._posted!r}"
            )
        return reply

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:
            pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.terminate()


_PORTS = {"inline": _Shard, "mp": _PipePort}
BACKENDS = tuple(_PORTS)


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

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> ShardedResult:
        topology = self.spec.make_topology()
        partition = partition_topology(
            topology, self.shards, self.control_latency_s
        )
        # Shards build in this process or in forks of it: either way
        # from fresh trace-id sequences.
        reset_trace_ids()
        open_port = _PORTS[self.backend]
        ports: List[Any] = []
        try:
            for shard_id in range(partition.shard_count):
                ports.append(
                    open_port(self, topology, partition, shard_id, max_events)
                )
            bundles, windows = self._coordinate(
                ports, partition.lookahead_s, until
            )
        finally:
            # Last opened first: a forked worker also holds the parent's
            # ends of the pipes opened before it, so an earlier worker
            # sees the hang-up only once the later ones are gone.
            for port in reversed(ports):
                port.close()
        return self._merge(partition, bundles, windows)

    def _coordinate(
        self, ports: List[Any], lookahead_s: float, until: Optional[float]
    ) -> tuple:
        """The runner's side of the barrier protocol: windows, drain
        rounds, finish — each command posted to every port before any
        reply is taken, so shards behind pipes compute concurrently.

        Outbox buckets queue up unopened for their destinations, whose
        ``inject`` heap keys order what they get canonically: neither
        reply order nor shard count shows in the result.
        """
        pending: List[List[tuple]] = [[] for _ in ports]
        next_times: List[Optional[float]] = [None] * len(ports)
        clocks = [0.0] * len(ports)

        def barrier() -> Optional[float]:
            """Take every reply, exchange the outboxes; the next
            window's start, or None once no work is left before
            ``until`` (a bucket answers with its earliest arrival)."""
            for shard_id, port in enumerate(ports):
                outbox, next_times[shard_id], clocks[shard_id] = port.take()
                for dest, bucket in outbox.items():
                    pending[dest].append(bucket)
            times = [t for t in next_times if t is not None]
            times.extend(
                earliest for queue in pending for earliest, _bucket in queue
            )
            start = min(times, default=None)
            if start is not None and until is not None and start > until:
                return None
            return start

        start = barrier()
        windows = 0
        drain_rounds = 0
        while True:
            while start is not None:
                t_end = start + lookahead_s
                for shard_id, port in enumerate(ports):
                    port.post(
                        "step", t_end, until,
                        [bucket for _earliest, bucket in pending[shard_id]],
                    )
                    pending[shard_id] = []
                windows += 1
                start = barrier()
            if self.spec.drain is None:
                break
            drain_rounds += 1
            if drain_rounds > MAX_DRAIN_ROUNDS:
                raise NetworkError(
                    "scenario drain hook kept scheduling work after "
                    f"{MAX_DRAIN_ROUNDS} rounds"
                )
            t_sync = max(clocks)
            for port in ports:
                port.post("drain", t_sync)
            start = barrier()
            if start is None:
                break
        for port in ports:
            port.post("finish", until)
        return [port.take() for port in ports], windows

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
        # Without a sampling spec no shard had a recorder: no frames,
        # none dropped, no runtime to report.
        sampling = self.spec.sampling
        frames: List[Dict[str, object]] = []
        frames_runtime: List[Dict[str, float]] = []
        if sampling is not None:
            frames = merge_frame_streams(
                [bundle["frames"] for bundle in bundles]
            )
            renumber_frame_times(frames, sampling.interval_s)
            frames_runtime = [bundle["frames_runtime"] for bundle in bundles]
        return ShardedResult(
            shards=partition.shard_count,
            backend=self.backend,
            seed=self.seed,
            stats=stats,
            audit_events=audit,
            metrics=metrics,
            outputs=[bundle["output"] for bundle in bundles],
            lookahead_s=partition.lookahead_s,
            windows=windows,
            partition=partition,
            telemetry=telemetry,
            shard_busy_s=[bundle["busy_s"] for bundle in bundles],
            frames=frames,
            frames_dropped=sum(
                bundle["frames_dropped"] for bundle in bundles
            ),
            sample_interval_s=sampling.interval_s if sampling else None,
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
