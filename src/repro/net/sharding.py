"""Partitioned event loops: the sharded simulation core.

A :class:`~repro.net.topology.Topology` is split into per-switch-group
shards by :func:`partition_topology`; each shard runs its own
:class:`ShardSimulator` event loop inside a bounded *lookahead window*
and exchanges cross-boundary packets and control messages through
typed outbox entries at window barriers (the classic conservative /
YAWNS synchronisation scheme).

Why this is safe — the lookahead theorem this module relies on: let
``L`` be the minimum latency over all *cut* links (links whose
endpoints live in different shards) and the control-plane latency,
whichever is smaller. Every cross-shard effect generated at local time
``t`` arrives no earlier than ``t + L`` (serialization delay only adds
to that). So while a shard processes events in the window
``[t0, t0 + L)``, nothing another shard does *in the same window* can
influence it: any message born in the window lands at or after
``t0 + L``, i.e. in a later window. Shards therefore run the window
independently, swap outboxes at the barrier, and repeat.

Determinism is the hard requirement, not a nice-to-have: the same seed
must produce byte-identical merged stats, verdicts and audit journals
for 1, 2 or 4 shards. Three design rules make that hold:

* **Full-world build, single-writer execution.** Every shard builds
  the complete scenario (same nodes, same keys, same RNG streams), but
  ownership gates — :meth:`Simulator.owns` consulted by ``bind``,
  ``transmit``, ``send_control``, ``Host.send`` and ``schedule_on`` —
  ensure each logical action executes in exactly one shard.
* **Keyed randomness.** Loss and fault draws come from per-directed-
  link streams (:func:`repro.util.ids.spawn_seed`), and trace ids from
  per-origin serials, so no draw sequence depends on the global event
  interleaving that sharding changes.
* **Canonical exchange order.** Outbox entries are
  ``(arrival_time, kind, endpoint, endpoint, *payload)``, bucketed by
  destination shard. The destination queues each delivery under the
  same ``(0, kind, endpoint, endpoint)`` key a local one gets
  (:mod:`repro.net.simulator`), so same-time deliveries with different
  keys run in key order whichever shard sent them, and every key has
  one sending node, so same-key entries arrive in the order it posted
  them (see :meth:`ShardSimulator.inject`).

Cost model of the engine: a shard's pending events live in a binary
heap, a window pops only its due prefix, and the earliest pending time
is the heap's head — so a window costs O(due · log backlog) however
much far-future work is parked
(``tests/net/test_shard_engine_model.py`` guards the complexity).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.net.packet import Packet
from repro.net.simulator import (
    KIND_CONTROL,
    KIND_PACKET,
    KIND_PAUSE,
    Node,
    Simulator,
)
from repro.net.topology import Link, Topology, fabric_pod_map
from repro.telemetry.tracing import TraceContext
from repro.util.errors import NetworkError

@dataclass(frozen=True)
class Partition:
    """An assignment of topology nodes to shards, plus the window size.

    ``shard_count`` is the *effective* count (never more than the
    number of anchor nodes); ``owner`` maps every node name to its
    shard; ``lookahead_s`` is the conservative window width derived
    from the minimum cut-link latency and the control-plane latency;
    ``cut_links`` are the links crossing shard boundaries.
    """

    shard_count: int
    owner: Mapping[str, int]
    lookahead_s: float
    cut_links: Tuple[Link, ...] = field(default_factory=tuple)


def _assign_pod_groups(
    anchors: List[str],
    pods: Mapping[str, str],
    shards: int,
    owner: Dict[str, int],
) -> int:
    """Chunk pod groups onto shards, balancing anchor counts.

    Groups (pods, plus singletons for unmapped anchors) are ordered by
    their smallest member name and assigned contiguously: a shard
    keeps taking whole groups while that moves its size strictly
    closer to the running balance target, always leaving at least one
    group per remaining shard. Returns the effective shard count.
    """
    by_tag: Dict[str, List[str]] = {}
    for name in anchors:
        by_tag.setdefault(pods.get(name, name), []).append(name)
    groups = [
        by_tag[tag] for tag in sorted(by_tag, key=lambda t: min(by_tag[t]))
    ]
    effective = min(shards, len(groups))
    remaining = len(anchors)
    gi = 0
    for shard in range(effective):
        remaining_shards = effective - shard
        target = remaining / remaining_shards
        took = 0
        while gi < len(groups):
            size = len(groups[gi])
            if took > 0 and shard < effective - 1:
                groups_left_if_skipped = len(groups) - gi
                if groups_left_if_skipped <= remaining_shards - 1:
                    break
                if abs(took + size - target) >= abs(took - target):
                    break
            for name in groups[gi]:
                owner[name] = shard
            took += size
            gi += 1
            if (
                shard < effective - 1
                and len(groups) - gi == remaining_shards - 1
            ):
                break
        remaining -= took
    return effective


def partition_topology(
    topology: Topology,
    shards: int,
    control_latency_s: float = 50e-6,
    pods: Optional[Mapping[str, str]] = None,
) -> Partition:
    """Split ``topology`` into ``shards`` balanced switch groups.

    Anchors (non-host nodes) are sorted by name and cut into
    contiguous, balanced chunks — deterministic, and for the canned
    topologies (chains, zero-padded switch names) contiguity
    follows the physical layout, keeping the cut small. Hosts join the
    shard of their lowest-named assigned neighbor, so an edge host
    never sits across a one-hop boundary from its switch.

    ``pods`` optionally groups anchors into atomic units a shard
    boundary never splits: a fat-tree pod's edge and aggregation
    switches stay together, so the only cut links are pod–core
    uplinks (whose latency then sets the lookahead window). When
    ``pods`` is ``None`` the grouping is inferred from
    :func:`repro.net.topology.fabric_pod_map`, which returns an empty
    map for anything but :func:`~repro.net.topology.fat_tree`-style
    names — legacy topologies keep the exact per-anchor chunking.
    Unmapped anchors form singleton groups.

    The effective shard count is capped at the anchor count (group
    count when pods apply); asking for 4 shards of a 2-switch chain
    yields 2. A cut link with zero latency (or a non-positive control
    latency) would make the lookahead window empty — that is a
    configuration error, reported as :class:`NetworkError` rather
    than a silent livelock.
    """
    if shards < 1:
        raise NetworkError(f"shard count must be >= 1, got {shards}")
    names = topology.node_names
    anchors = [n for n in names if topology.kind_of(n) != "host"]
    if not anchors:
        anchors = list(names)
    if pods is None:
        pods = fabric_pod_map(topology)
    owner: Dict[str, int] = {}
    if pods:
        effective = _assign_pod_groups(anchors, pods, shards, owner)
    else:
        effective = min(shards, len(anchors))
        base, extra = divmod(len(anchors), effective)
        start = 0
        for shard in range(effective):
            size = base + (1 if shard < extra else 0)
            for name in anchors[start : start + size]:
                owner[name] = shard
            start += size
    for name in names:
        if name in owner:
            continue
        assigned = [p for p in topology.neighbors_of(name) if p in owner]
        owner[name] = owner[min(assigned)] if assigned else 0
    cut = tuple(
        link
        for link in topology.links
        if owner[link.node_a] != owner[link.node_b]
    )
    if effective == 1:
        lookahead = float("inf")
    else:
        lookahead = min(
            [link.latency_s for link in cut] + [control_latency_s]
        )
        if lookahead <= 0:
            raise NetworkError(
                "cannot shard: a zero-latency cross-shard path leaves no "
                "lookahead window (cut links and the control latency must "
                "all be > 0)"
            )
    return Partition(
        shard_count=effective,
        owner=dict(owner),
        lookahead_s=lookahead,
        cut_links=cut,
    )


class ShardSimulator(Simulator):
    """One shard's event loop: a :class:`Simulator` with ownership
    gates and a windowed engine.

    The scenario build binds the *full* node set; foreign nodes are
    accepted (so their names resolve and their behaviours can be
    driven by the owner shard's messages via injection) but get no
    ``on_bind``, no registration, and every output path they could
    take — transmit, control send, host send, scheduled driving — is
    gated on :meth:`owns`.

    The engine runs on the monolith's one heap: ``run_window`` pops
    the window's due prefix, then merges it with whatever is scheduled
    mid-window in ``(time, key, seq)`` order, so a window costs
    O(due · log queue) and an event that lands inside the open window
    runs in the same pass. Deliveries aimed at foreign-owned nodes
    leave through :meth:`take_outbox`, bucketed by destination shard,
    instead of the local queue.
    """

    def __init__(
        self,
        topology: Topology,
        partition: Partition,
        shard_id: int,
        **kwargs: Any,
    ) -> None:
        if not 0 <= shard_id < partition.shard_count:
            raise NetworkError(
                f"shard id {shard_id} out of range for "
                f"{partition.shard_count} shards"
            )
        super().__init__(topology, **kwargs)
        self.partition = partition
        self.shard_id = shard_id
        self._foreign_nodes: Dict[str, Node] = {}
        # The open window's end, for _post's lookahead check.
        self._window_end: Optional[float] = None
        # Destination shard -> this window's entries for it.
        self._outbox: Dict[int, List[tuple]] = {}
        # Entry kind -> deliver(a, b, *payload), what inject schedules.
        self._deliverers: Dict[str, Callable[..., None]] = {
            KIND_CONTROL: self._deliver_control,
            KIND_PACKET: self._deliver_packet,
            KIND_PAUSE: self._deliver_pause,
        }
        self._processed_accum = 0
        self._uncounted_accum = 0
        self._finalized = False
        self.busy_seconds = 0.0

    # --- ownership ----------------------------------------------------------

    def owns(self, name: str) -> bool:
        return self.partition.owner.get(name, 0) == self.shard_id

    def bind(self, node: Node) -> None:
        if self.owns(node.name):
            super().bind(node)
            return
        # Foreign replica: keep the behaviour resolvable (controllers
        # and appraisers consult the full world), give the node a
        # back-reference so its own ownership gates work, but skip
        # on_bind (no caches, no barrier hooks, no timers) — the owner
        # shard runs the real instance, and telemetry collection skips
        # replicas so per-node gauges merge exactly once.
        if not self.topology.has_node(node.name):
            raise NetworkError(f"topology has no node named {node.name!r}")
        if node.name in self._foreign_nodes or node.name in self._nodes:
            raise NetworkError(f"node {node.name!r} already bound")
        node.sim = self
        self._foreign_nodes[node.name] = node

    def node(self, name: str) -> Node:
        behaviour = self._foreign_nodes.get(name)
        if behaviour is not None:
            return behaviour
        return super().node(name)

    @property
    def bound_nodes(self) -> List[str]:
        return sorted(set(self._nodes) | set(self._foreign_nodes))

    def _is_bound_anywhere(self, name: str) -> bool:
        return name in self._nodes or name in self._foreign_nodes

    def send_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        size_hint: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> bool:
        if not self.owns(sender):
            return True
        return super().send_control(sender, recipient, message, size_hint, trace)

    # --- scheduling ----------------------------------------------------------

    def schedule_on(
        self, node_name: str, delay: float, action: Callable[[], None]
    ) -> None:
        if self.owns(node_name):
            self.schedule(delay, action)

    def schedule_replicated(
        self, owner_hint: str, delay: float, action: Callable[[], None]
    ) -> None:
        if self.owns(owner_hint):
            self.schedule(delay, action)
        else:
            self.schedule(delay, partial(self._run_uncounted, action))

    def _run_uncounted(self, action: Callable[[], None]) -> None:
        """Run a replica of an event another shard counts; the window
        takes it back out of its processed count."""
        action()
        self._uncounted_accum += 1

    # --- cross-shard routing --------------------------------------------------

    def _schedule_packet_delivery(
        self, peer: str, peer_port: int, packet: Packet, delay: float
    ) -> None:
        """Deliver over a cut link: ``_put_on_wire`` pushes a local
        peer's delivery itself and comes here only for a foreign one."""
        self._post(peer, delay, KIND_PACKET, peer, peer_port, packet)

    def _schedule_control_delivery(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        if self.owns(recipient):
            super()._schedule_control_delivery(sender, recipient, message, trace)
        else:
            self._post(
                recipient, self.control_latency_s,
                KIND_CONTROL, sender, recipient, message, trace,
            )

    def _schedule_pause_delivery(
        self, to_node: str, to_port: int, paused: bool, delay: float
    ) -> None:
        if self.owns(to_node):
            super()._schedule_pause_delivery(to_node, to_port, paused, delay)
        else:
            self._post(to_node, delay, KIND_PAUSE, to_node, to_port, paused)

    def _post(
        self, target: str, delay: float, kind: str, a: Any, b: Any, *payload: Any
    ) -> None:
        """File one cross-shard delivery under ``target``'s owner shard
        as the entry ``(arrival, kind, a, b, *payload)``.

        ``(a, b)`` is the directed endpoint the delivery is keyed on
        (link end, or control sender/recipient). Every kind crosses a cut
        link or the control plane, whose latency is at least the
        lookahead window, so an arrival inside the open window is a
        broken partition — refused, never delivered late.
        """
        arrival = self.clock.now + delay
        if self._window_end is not None and arrival < self._window_end:
            raise NetworkError(
                f"lookahead violation: {kind!r} entry for {target!r} "
                f"arrives at {arrival} inside the open window ending "
                f"{self._window_end}"
            )
        self._outbox.setdefault(self.partition.owner[target], []).append(
            (arrival, kind, a, b) + payload
        )

    def take_outbox(self) -> Dict[int, Tuple[float, List[tuple]]]:
        """Drain this window's cross-shard entries, bucketed by
        destination shard: ``{shard: (earliest arrival, entries)}``.

        The earliest arrival rides along so the runner can place the
        next window without looking inside a bucket (under ``mp`` it
        never unpickles one).
        """
        buckets, self._outbox = self._outbox, {}
        return {
            dest: (min(entry[0] for entry in entries), entries)
            for dest, entries in buckets.items()
        }

    def inject(self, entries: List[tuple]) -> None:
        """Accept the cross-shard entries other shards filed for this
        one, and push them in list order.

        Each delivery is queued under the same ``(0, kind, a, b)`` heap
        key a local one gets (:meth:`Simulator._push`), so same-time
        deliveries with different keys run in key order whatever order
        the buckets came in. Same-key entries need no sort either:
        every ``(kind, a, b)`` has exactly one sending node (a link end
        has one peer, a control pair one sender), so they all come from
        one shard's outbox, in the order that node posted them, and the
        tie-breaking sequence number assigned here keeps that order, as
        the one-shard run does. Each delivery is pushed at exactly the
        arrival time the sending shard computed (``now + (t - now)`` is
        not always ``t``). The delivery event is scheduled (counted)
        here and nowhere else, so ``events_processed`` still sums to
        the one-shard count.
        """
        now = self.clock.now
        for entry in entries:
            time, kind, a, b = entry[:4]
            deliver = self._deliverers.get(kind)
            if deliver is None:
                raise NetworkError(f"unknown outbox entry kind {kind!r}")
            if time < now:
                raise NetworkError(
                    f"cannot inject in the past (arrival {time}, now {now})"
                )
            self._seq += 1
            heapq.heappush(
                self._queue,
                (time, (0, kind, a, b), self._seq, partial(deliver, a, b, *entry[4:])),
            )

    # --- the windowed engine ---------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """Earliest pending event time, or None when the shard is idle."""
        return self._queue[0][0] if self._queue else None

    def run_window(
        self,
        t_end: float,
        hard_limit: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> int:
        """Process every event with ``time < t_end`` (and ``time <=
        hard_limit`` when given); returns the number of *counted*
        events.

        Opening the window pops its due prefix off the queue into a
        sorted list; events scheduled mid-window go onto the queue as
        usual, and the loop merges the two in ``(time, key, seq)``
        order while the queue's head is inside the window. At one shard
        the window is unbounded, so the whole build-time queue is due
        at once and the heap holds only what is in flight. The window
        bound is exclusive while the hard limit (the run's ``until``)
        is inclusive — matching the monolith, which processes events
        at exactly ``until``.
        """
        busy_from = perf_counter()
        queue = self._queue
        # ``time <= hard_limit`` is ``time < nextafter(hard_limit)``, so
        # one comparison per event tests both bounds.
        bound = (
            t_end if hard_limit is None
            else min(t_end, math.nextafter(hard_limit, math.inf))
        )
        due = []
        while queue and queue[0][0] < bound:
            due.append(heapq.heappop(queue))
        self._window_end = t_end
        popped = 0
        index = 0
        uncounted_from = self._uncounted_accum
        recorder = self._recorder
        tick_due = (
            recorder.next_tick_s if recorder is not None else float("inf")
        )
        try:
            # One event per iteration, at most max_events of them. A
            # `for` on purpose: CPython 3.11 specializes a function's
            # bytecode only after eight calls or unconditional backward
            # jumps, and `while cond:` closes with a conditional one.
            # At one shard this function runs once per campaign, so as
            # a `while` the library's hottest loop stayed unspecialized
            # (~5 % of a fat-tree campaign's wall).
            for _ in range(max_events):
                head = due[index] if index < len(due) else None
                if queue and queue[0][0] < bound and (head is None or queue[0] < head):
                    entry = heapq.heappop(queue)
                elif head is not None:
                    entry = head
                    index += 1
                else:
                    break
                time, _key, _seq, action = entry
                if time >= tick_due:
                    # Same virtual-tick rule as the monolith loop: the
                    # tick at `time` closes its window before the event
                    # at `time` executes.
                    recorder.advance_to(time)
                    tick_due = recorder.next_tick_s
                self.clock.advance_to(time)
                action()
                popped += 1
        finally:
            # On a max_events abort (or a node behaviour raising),
            # queue the unprocessed remainder again so state stays
            # consistent for finalization or a resume.
            for entry in due[index:]:
                heapq.heappush(queue, entry)
            self._window_end = None
            processed = popped - (self._uncounted_accum - uncounted_from)
            self._processed_accum += processed
            # Wall-clock this shard actually computed, summed across
            # windows and covering everything run_window does (opening
            # the window included): on k-core hardware the run's
            # critical path is max over shards of this, the capacity
            # number the scaling benchmark reports next to raw wall
            # time. Never part of SimStats — wall time is not
            # deterministic.
            self.busy_seconds += perf_counter() - busy_from
        return processed

    def finalize(self) -> None:
        """End-of-run accounting (idempotent).

        Mirrors the monolith ``run``'s ``finally`` block: fold the
        processed-event count into stats and write the counts and
        gauges into the registry.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._recorder is not None:
            # Close the residual window before the collector writes the
            # registry, so the frame stream reflects exactly the
            # simulated activity and finalize stays single-pass.
            self._recorder.finish(self.clock.now)
        self.events_processed += self._processed_accum
        if self.telemetry.active:
            from repro.telemetry.instrument import collect_simulator

            collect_simulator(self.telemetry, self)

    def recorder_runtime(self) -> Tuple[float, float]:
        """``(backlog, busy_seconds)`` — this shard's runtime view."""
        return (float(len(self._queue)), self.busy_seconds)

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> int:
        """Refused: a shard only runs under a runner.

        The :class:`~repro.net.shardrun.ShardedRunner` owns the window
        and barrier protocol (use :func:`~repro.net.shardrun.run_sharded`,
        at any shard count including 1); draining one shard directly
        would silently drop cross-shard traffic.
        """
        raise NetworkError(
            "ShardSimulator.run() is not supported; run the scenario "
            "with repro.net.shardrun.run_sharded"
        )


__all__ = [
    "KIND_CONTROL",
    "KIND_PACKET",
    "KIND_PAUSE",
    "Partition",
    "ShardSimulator",
    "partition_topology",
]
