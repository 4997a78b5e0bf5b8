"""Overhead of the fault-injection hook on the dataplane hot path.

Three design points: no injector (the PR 3 baseline), an attached
injector with an *empty* plan (the disabled fast path every production
scenario pays), and an actively faulting plan. The contract is that
the empty-plan run is observably identical to the baseline — the
injector draws from its own RNG, so attaching it must not perturb the
baseline loss sequence — and its per-packet cost is a couple of dict
lookups.
"""

import time

import pytest

from repro.core.fleet import bring_up, forward_prefix
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.faults import FaultInjector, FaultPlan
from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.pisa.programs import ipv4_forwarding_program

from conftest import report, table

PACKETS = 200


def build():
    topo = Topology()
    topo.add_node("h1", kind="host")
    topo.add_node("h2", kind="host")
    topo.add_node("s1")
    topo.add_link("h1", 1, "s1", 1)
    topo.add_link("s1", 2, "h2", 1)
    sim = Simulator(topo, seed=0)
    h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
    h2 = Host("h2", mac=2, ip=ip_to_int("10.0.1.1"))
    switch = NetworkAwarePeraSwitch("s1")
    for node in (h1, h2, switch):
        sim.bind(node)
    bring_up(switch, ipv4_forwarding_program())
    forward_prefix(switch)
    return sim, h1, h2


def active_plan():
    return (
        FaultPlan(seed=0)
        .link_loss(0.0, "s1", "h2", rate=0.2)
        .corrupt_packets(0.05, "h1", "s1", rate=0.3, duration_s=0.05)
        .link_flap(0.08, "s1", "h2", down_s=0.01, up_s=0.01, cycles=2)
    )


def run_once(plan=None, packets=PACKETS):
    sim, h1, h2 = build()
    if plan is not None:
        FaultInjector(plan).attach(sim)
    for index in range(packets):
        sim.schedule(index * 1e-3, lambda: h1.send_udp(
            dst_mac=h2.mac, dst_ip=h2.ip, src_port=1, dst_port=2,
            payload=bytes(64),
        ))
    sim.run()
    return sim, h2


PLANS = {
    "no injector": lambda: None,
    "empty plan (disabled fast path)": lambda: FaultPlan(),
    "active plan (loss+corrupt+flap)": active_plan,
}


@pytest.mark.parametrize("label", list(PLANS))
def test_faults_overhead(benchmark, label):
    factory = PLANS[label]
    benchmark(lambda: run_once(factory()))


def test_faults_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    timings = {}
    for label, factory in PLANS.items():
        start = time.perf_counter()
        sim, h2 = run_once(factory())
        timings[label] = time.perf_counter() - start
        rows.append({
            "mode": label,
            "delivered": len(h2.received_packets),
            "dropped": sim.stats.packets_dropped,
            "resends": sim.stats.local_resends,
            "wall ms": round(timings[label] * 1e3, 1),
        })
    report("Fault-injection hook overhead (simulated dataplane run)",
           table(rows))
    by_mode = {r["mode"]: r for r in rows}
    # Attaching an empty plan must not perturb the run at all: the
    # injector's RNG is separate, so delivery and drop counts match
    # the baseline exactly.
    baseline = by_mode["no injector"]
    disabled = by_mode["empty plan (disabled fast path)"]
    assert disabled["delivered"] == baseline["delivered"] == PACKETS
    assert disabled["dropped"] == baseline["dropped"] == 0
    # The active plan really does damage.
    active = by_mode["active plan (loss+corrupt+flap)"]
    assert active["dropped"] > 0
    assert active["delivered"] < PACKETS
