"""A stateful model of flowlet switching (``FlowletTable``).

Hypothesis builds one table (seed, idle gap, packet budget) and then
sends packets: each step picks one of two flows, advances simulated
time by a drawn gap, sets or clears the congestion signal, and draws
the size of the member set.

After every packet the table must agree with a ten-line reference over
``(last_seen, count, serial, last_nudge)`` per flow: a flowlet ends
after an idle gap longer than ``idle_gap_s``, after
``flowlet_n_packets`` packets, or on a congestion signal at most once
per ``idle_gap_s``; the member chosen is the seeded hash of the flow
key and the current serial. The reference keeps time in integer ticks
and the table sees exact binary fractions of a second, so every ``>``
against the idle gap is decided exactly, including at equality.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.net.routing import FlowletTable, stable_flow_hash

#: One tick of simulated time: exact in binary floating point.
TICK_S = 2.0 ** -20
FLOWS = [(0x0A000001, 0x0A000002, 1000 + i, 80, 17) for i in range(2)]


class Reference:
    """Per flow: ``[last_seen, count, serial, last_nudge]`` in ticks."""

    def __init__(self, gap, budget):
        self.gap, self.budget = gap, budget
        self.flows = {}
        self.repicks = self.congestion_repicks = 0

    def pick(self, key, now, congested):
        if key not in self.flows:
            self.flows[key] = [now, 1, 0, None]
            return 0
        last, count, serial, nudge = self.flows[key]
        expired = now - last > self.gap
        exhausted = 0 < self.budget <= count
        nudged = congested and (nudge is None or now - nudge > self.gap)
        if expired or exhausted or nudged:
            count, serial = 0, serial + 1
            self.repicks += 1
            self.congestion_repicks += nudged and not (expired or exhausted)
        self.flows[key] = [now, count + 1, serial, now if nudged else nudge]
        return serial


class FlowletMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**32),
        gap=st.integers(1, 3),
        budget=st.integers(0, 4),
    )
    def build(self, seed, gap, budget):
        self.seed = seed
        self.table = FlowletTable(
            seed, idle_gap_s=gap * TICK_S, flowlet_n_packets=budget
        )
        self.ref = Reference(gap, budget)
        self.now = 0

    @rule(
        flow=st.sampled_from(FLOWS),
        gap=st.integers(0, 4),
        congested=st.booleans(),
        width=st.integers(1, 4),
    )
    def packet(self, flow, gap, congested, width):
        """Advance time by ``gap`` ticks, then send one packet of ``flow``
        with the congestion signal set or clear."""
        self.now += gap
        members = tuple(range(10, 10 + width))
        chosen = self.table.pick(
            members, flow, self.now * TICK_S, congested=congested
        )
        serial = self.ref.pick(flow, self.now, congested)
        expected = stable_flow_hash(self.seed, *flow, serial) % width
        assert chosen == members[expected]

    @precondition(lambda self: hasattr(self, "ref"))
    @invariant()
    def agrees_with_reference(self):
        for flow in FLOWS:
            state = self.ref.flows.get(flow)
            assert self.table.serial_of(flow) == (0 if state is None else state[2])
        assert self.table.repicks == self.ref.repicks
        assert self.table.congestion_repicks == self.ref.congestion_repicks


TestFlowletModel = FlowletMachine.TestCase
TestFlowletModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
