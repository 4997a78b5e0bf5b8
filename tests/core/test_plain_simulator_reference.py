"""The heap loop as the independent reference for the windowed engine.

Every campaign is a :class:`~repro.net.shardrun.ScenarioSpec` run by
:func:`~repro.net.shardrun.run_sharded`; nothing in ``src/`` drives a
campaign any other way. This file keeps one second opinion:
:func:`run_on_plain_simulator` executes any spec on the plain
:class:`~repro.net.simulator.Simulator` — one heap, no windows, no
barriers, no merge — and the test below checks that ``shards=1`` under
the runner reproduces it on stats, harvest output, audit journal and
frames, for every campaign spec below.
"""

import json

import pytest

from repro.core.chaos import chaos_sampling_spec, chaos_spec
from repro.core.fabric import (
    FatTreeShape,
    fabric_sampling_spec,
    fabric_traffic_spec,
)
from repro.core.usecases import config_assurance_spec
from repro.net.shardrun import run_sharded
from repro.net.simulator import Simulator
from repro.pera.config import BatchingSpec
from repro.telemetry.audit import merge_audit_events
from repro.telemetry.instrument import Telemetry
from repro.telemetry.timeseries import (
    install_recorder,
    merge_frame_streams,
    renumber_frame_times,
)
from repro.telemetry.tracing import reset_trace_ids

from tests.core.test_run_signatures import (
    CHAOS_SEED,
    CONGESTED,
    TRAFFIC_CHAOS,
)

MAX_EVENTS = 8_000_000


def run_on_plain_simulator(spec, seed=0):
    """Run ``spec`` on one plain :class:`Simulator`.

    ``schedule_on`` / ``owns`` are identities there, so build, drain
    and harvest are the very callables the runner uses. The recorder
    is finished before harvest (as the runner's ``finalize`` does), and
    journal and frames pass through the runner's canonical merges so
    ordering conventions are not what is being compared. Returns
    ``(stats, output, journal, frames)`` in the runner's export forms.
    """
    reset_trace_ids()
    telemetry = Telemetry(active=True)
    sim = Simulator(spec.make_topology(), seed=seed, telemetry=telemetry)
    ctx = spec.build(sim)
    if spec.sampling is not None:
        install_recorder(sim, spec.sampling)
    sim.run(max_events=MAX_EVENTS)
    if spec.drain is not None:
        spec.drain(sim, ctx)
        sim.run(max_events=MAX_EVENTS)
    frames = []
    if spec.sampling is not None:
        sim.recorder.finish(sim.clock.now)
        frames = renumber_frame_times(
            merge_frame_streams([sim.recorder.frames]),
            spec.sampling.interval_s,
        )
    output = spec.harvest(sim, ctx)
    journal = merge_audit_events(
        [[event.as_dict() for event in telemetry.audit.events]]
    )
    return sim.stats.as_dict(), output, journal, frames


#: id -> (spec, seed): each campaign spec, in its most hostile form.
SPECS = {
    "traffic-congested": (
        fabric_traffic_spec(CONGESTED, sampling=fabric_sampling_spec()),
        3,
    ),
    "traffic-chaos": (TRAFFIC_CHAOS, CHAOS_SEED),
    "traffic-batched": (
        fabric_traffic_spec(
            FatTreeShape(
                bulk_flows=10,
                web_sessions=0,
                batching=BatchingSpec(max_records=4, max_delay_s=50e-6),
            ),
            sampling=fabric_sampling_spec(),
        ),
        5,
    ),
    "chaos-athens": (chaos_spec(sampling=chaos_sampling_spec()), 7),
    "uc1": (config_assurance_spec(), 0),
    "uc1-batched": (
        config_assurance_spec(
            batching=BatchingSpec(max_records=4, max_delay_s=0.0)
        ),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_shard_matches_plain_simulator(name):
    spec, seed = SPECS[name]
    stats, output, journal, frames = run_on_plain_simulator(spec, seed=seed)
    sharded = run_sharded(spec, shards=1, seed=seed, max_events=MAX_EVENTS)
    assert sharded.stats.as_dict() == stats
    # repr-compare: harvest outputs carry verdict objects and floats.
    assert repr(sharded.outputs) == repr([output])
    assert sharded.audit_export() == json.dumps(journal, sort_keys=True)
    assert sharded.frames == frames
