"""Seeded flow-level workload engine for fabric-scale campaigns.

The traffic engine that drives thousands of concurrent flows through
attested fabrics: :mod:`repro.workload.flows` schedules every packet
of every :class:`FlowSpec` through the ownership-gated ``schedule_on``
hook (so the same build is correct at any shard count), and
:mod:`repro.workload.mixes` generates datacenter-shaped flow
populations — elephant/mice size mixes, web-like request/response
pairs, Poisson and on-off arrival processes — from a single seed.
"""

from repro.workload.flows import (
    FLOW_PAYLOAD_MIN_BYTES,
    FlowEngine,
    FlowSink,
    FlowSpec,
    decode_flow_payload,
    encode_flow_payload,
    flow_completion_times,
)
from repro.workload.mixes import (
    elephant_mice_mix,
    on_off_starts,
    poisson_starts,
    web_session_mix,
)

__all__ = [
    "FLOW_PAYLOAD_MIN_BYTES",
    "FlowEngine",
    "FlowSink",
    "FlowSpec",
    "decode_flow_payload",
    "encode_flow_payload",
    "flow_completion_times",
    "elephant_mice_mix",
    "on_off_starts",
    "poisson_starts",
    "web_session_mix",
]
