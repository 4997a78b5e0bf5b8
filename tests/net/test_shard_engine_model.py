"""The windowed shard engine against a ten-line reference.

A *schedule program* is a forest of events: each has a delay from its
parent's firing time (roots: from time zero), a counted/replicated
flag, and children it schedules when it fires. The reference runs the
program on a plain :class:`Simulator` (one heap, no windows); the
model runs it on a single :class:`ShardSimulator` driven window by
window at a random width, so children land inside the open window
(overlay), beyond it (backlog) and on same-time ties. Execution order
and counted/uncounted totals must be equal.

A *send program* crosses a shard cut: two senders, one beside the
receiver and one across the cut, send packets and control messages on
a grid where arrivals at the receiver tie. The receiver must hear them
in the same order on a plain :class:`Simulator` and at two shards.

The explicit cases pin the window's edges (``t_end`` exclusive,
``hard_limit`` inclusive), a ``max_events`` abort mid-window followed
by a resume, and the engine's complexity: a window must not cost a
pass over everything pending.
"""

from functools import partial
from time import perf_counter

from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.net.sharding import Partition, ShardSimulator
from repro.net.shardrun import ScenarioSpec, run_sharded
from repro.net.simulator import Node, Simulator
from repro.net.topology import Topology

#: Delays on a coarse grid so that sums are exact in binary floating
#: point and same-time ties are common.
DELAYS = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)

#: An event is ``(delay, counted, children)``.
EVENTS = st.recursive(
    st.tuples(DELAYS, st.booleans(), st.just(())),
    lambda children: st.tuples(
        DELAYS, st.booleans(), st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=12,
)
PROGRAMS = st.lists(EVENTS, min_size=1, max_size=6)
WIDTHS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.5, 100.0])


def one_node_topology():
    topo = Topology()
    topo.add_node("n")
    return topo


def make_shard():
    """Shard 0 of a hand-built two-shard partition whose other shard
    owns only the name ``elsewhere``: nothing ever crosses, so this is
    the one-shard engine, but events replicated on behalf of
    ``elsewhere`` run uncounted."""
    partition = Partition(
        shard_count=2, owner={"n": 0, "elsewhere": 1}, lookahead_s=1.0
    )
    return ShardSimulator(one_node_topology(), partition, 0)


def load(sim, program, log):
    """Schedule ``program``'s roots on ``sim``; firing an event appends
    ``(label, time)`` to ``log`` and schedules its children. Uncounted
    events go through ``schedule_replicated`` hinted at the foreign
    ``elsewhere`` (a plain ``Simulator`` counts them like any other)."""
    labels = iter(range(10**6))

    def plant(event):
        delay, counted, children = event
        label = next(labels)

        def fire():
            log.append((label, sim.clock.now))
            for child in children:
                plant(child)

        if counted:
            sim.schedule(delay, fire)
        else:
            sim.schedule_replicated("elsewhere", delay, fire)

    for event in program:
        plant(event)


def count(program):
    """``(counted, uncounted)`` events in ``program``."""
    counted = uncounted = 0
    stack = list(program)
    while stack:
        _delay, is_counted, children = stack.pop()
        counted += is_counted
        uncounted += not is_counted
        stack.extend(children)
    return counted, uncounted


def run_reference(program):
    sim = Simulator(one_node_topology())
    log = []
    load(sim, program, log)
    sim.run()
    return log


def run_windowed(program, width, max_events=1_000_000):
    """Drive a one-shard engine the way the runner would at lookahead
    ``width``; returns ``(log, counted, uncounted)``."""
    sim = make_shard()
    log = []
    load(sim, program, log)
    counted = 0
    while sim.next_event_time() is not None:
        counted += sim.run_window(
            sim.next_event_time() + width, max_events=max_events
        )
    assert counted == sim._processed_accum
    return log, counted, sim._uncounted_accum


@given(program=PROGRAMS, width=WIDTHS)
def test_windowed_engine_equals_plain_simulator(program, width):
    expected = run_reference(program)
    log, counted, uncounted = run_windowed(program, width)
    assert log == expected
    assert (counted, uncounted) == count(program)


@given(program=PROGRAMS, width=WIDTHS, budget=st.integers(1, 4))
def test_abort_and_resume_loses_and_reorders_nothing(program, width, budget):
    # Every window aborts after `budget` events; the next call resumes.
    log, counted, uncounted = run_windowed(program, width, max_events=budget)
    assert log == run_reference(program)
    assert (counted, uncounted) == count(program)


#: A send is ``(sender, grid slot, as a control message?)``.
SENDS = st.lists(
    st.tuples(
        st.sampled_from(["a", "c"]), st.integers(0, 8), st.booleans()
    ),
    min_size=1,
    max_size=10,
)


def cut_topology():
    """``a`` — ``b`` — ``c``. At two shards ``a`` and ``b`` share shard
    0 and ``c`` is alone on shard 1, so ``b`` hears ``a`` over a local
    link and ``c`` over the cut. An empty UDP frame serializes in 0.25
    s, so a packet ``c`` sends at ``t``, one ``a`` sends at ``t + 0.5``
    and a control message (1 s latency) sent at ``t + 0.25`` all reach
    ``b`` at the same instant."""
    slot = Packet.udp_packet(1, 2, 3, 4, 0, 0).wire_length * 8 / 0.25
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_node(name)
    topo.add_link("a", 1, "b", 1, latency_s=0.5, bandwidth_bps=slot)
    topo.add_link("c", 1, "b", 2, latency_s=1.0, bandwidth_bps=slot)
    return topo


class Receiver(Node):
    def __init__(self, name, log):
        super().__init__(name)
        self.log = log

    def handle_packet(self, packet, in_port):
        self.log.append(
            ("pkt", in_port, packet.udp.src_port, self.sim.clock.now)
        )

    def handle_control(self, sender, message):
        self.log.append(("ctl", sender, message, self.sim.clock.now))


def build_sends(sends, sim):
    """Bind the three nodes and schedule every send on its sender's
    shard; returns the receiver's arrival log."""
    log = []
    sim.bind(Node("a"))
    sim.bind(Receiver("b", log))
    sim.bind(Node("c"))
    for label, (sender, slot, control) in enumerate(sends):
        def send(sender=sender, label=label, control=control):
            if control:
                sim.send_control(sender, "b", label)
            else:
                sim.transmit(
                    sender, 1, Packet.udp_packet(1, 2, 3, 4, label, 0)
                )

        sim.schedule_on(sender, slot * 0.25, send)
    return log


@given(sends=SENDS)
# The far sender's packet is older, the near one's is scheduled in the
# same window before the barrier hands the far one over.
@example(sends=[("c", 0, False), ("a", 2, False)])
def test_same_time_arrivals_across_a_cut_keep_one_order(sends):
    reference = Simulator(cut_topology(), control_latency_s=1.0)
    expected = build_sends(sends, reference)
    reference.run()
    spec = ScenarioSpec(
        topology=cut_topology,
        build=partial(build_sends, sends),
        harvest=lambda sim, log: log if sim.owns("b") else None,
    )
    result = run_sharded(spec, shards=2, control_latency_s=1.0)
    assert result.partition.owner == {"a": 0, "b": 0, "c": 1}
    assert result.outputs[0] == expected
    assert len(expected) == len(sends)


class TestWindowEdges:
    def fired_after(self, times, **window):
        sim = make_shard()
        fired = []
        for t in times:
            sim.schedule(t, lambda t=t: fired.append(t))
        processed = sim.run_window(**window)
        assert processed == len(fired)
        return fired, sim

    def test_t_end_is_exclusive(self):
        fired, sim = self.fired_after([1.0, 2.0, 3.0], t_end=2.0)
        assert fired == [1.0]
        assert sim.next_event_time() == 2.0

    def test_hard_limit_is_inclusive(self):
        fired, sim = self.fired_after(
            [1.0, 2.0, 3.0], t_end=10.0, hard_limit=2.0
        )
        assert fired == [1.0, 2.0]
        assert sim.next_event_time() == 3.0

    def test_hard_limit_is_inclusive_in_the_unbounded_window(self):
        fired, sim = self.fired_after(
            [3.0, 1.0, 2.0], t_end=float("inf"), hard_limit=2.0
        )
        assert fired == [1.0, 2.0]
        assert sim.next_event_time() == 3.0

    def test_event_scheduled_past_the_hard_limit_waits(self):
        sim = make_shard()
        fired = []
        sim.schedule(
            1.0, lambda: sim.schedule(1.5, lambda: fired.append(sim.clock.now))
        )
        sim.run_window(10.0, hard_limit=2.0)
        assert fired == []
        sim.run_window(10.0)
        assert fired == [2.5]

    def test_abort_mid_window_then_resume(self):
        # 1.0 fires and plants 1.0 (a tie, runs after the older 1.0s)
        # and 1.5; the abort lands between same-time events.
        sim = make_shard()
        fired = []

        def first():
            fired.append("a")
            sim.schedule(0.0, lambda: fired.append("a-tie"))
            sim.schedule(0.5, lambda: fired.append("a-later"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.schedule(1.75, lambda: fired.append("c"))
        sim.schedule(5.0, lambda: fired.append("beyond"))
        assert sim.run_window(2.0, max_events=2) == 2
        assert fired == ["a", "b"]
        assert sim.next_event_time() == 1.0
        assert sim.run_window(2.0) == 3
        assert fired == ["a", "b", "a-tie", "a-later", "c"]
        assert sim.next_event_time() == 5.0


def _empty_windows_wall(backlog_size, windows=2000):
    """Wall seconds for ``windows`` windows that find nothing due in
    front of ``backlog_size`` far-future events."""
    sim = make_shard()
    for i in range(backlog_size):
        sim.schedule(1e6 + i, lambda: None)
    started = perf_counter()
    for w in range(windows):
        sim.run_window(float(w + 1))
        sim.next_event_time()
    elapsed = perf_counter() - started
    assert len(sim._queue) == backlog_size
    return elapsed


def test_a_window_does_not_scan_the_backlog():
    # Same windows, 1000x the parked work: a per-window pass over the
    # backlog reads ~1000x here; a heap reads ~1x. Ratio, not wall; the
    # two sizes alternate and each keeps its best of seven, so a
    # preempted repeat or a CPU speed change cannot fake a scan.
    small = large = float("inf")
    for _ in range(7):
        small = min(small, _empty_windows_wall(20))
        large = min(large, _empty_windows_wall(20_000))
    assert large <= 5 * small, (small, large)
