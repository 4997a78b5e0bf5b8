"""E3 / Table 1 — compile and execute AP1, AP2 and AP3 end to end.

For each attestation policy: compile for a concrete path, run traffic
through attesting switches, appraise. Sweeps path length to show the
linear growth of evidence size and verification work.
"""


from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain, policy_shim
from repro.core.policies import ap3_path_check
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pisa.programs import acl_program, firewall_program, ipv4_forwarding_program

from conftest import report, table


def build_chain(programs):
    sim = Simulator(linear_topology(len(programs)))
    return sim, attested_chain(
        sim, programs,
        config=EvidenceConfig(composition=CompositionMode.CHAINED),
    )


def run_ap1(path_switches: int):
    sim, chain = build_chain(
        [ipv4_forwarding_program() for _ in range(path_switches)]
    )
    compiled, shim = chain.ap1()
    packet = chain.probe(sim, shim, b"x", 1, 2)
    verdict = chain.appraiser().appraise_packet(packet, compiled)
    return verdict, packet.ra_shim.wire_length


def run_ap3(path_switches: int = 2):
    programs = [firewall_program(), acl_program()] + [
        ipv4_forwarding_program() for _ in range(path_switches - 2)
    ]
    sim, chain = build_chain(programs)
    compiled = compile_policy_for_path(
        ap3_path_check(), path=chain.path,
        bindings={
            "F1": programs[0].full_name, "F2": programs[1].full_name,
            "peer1": "h-src", "peer2": "h-dst",
        },
    )
    packet = chain.probe(sim, policy_shim(compiled), b"x", 1, 2)
    return chain.appraiser().appraise_packet(packet, compiled)


def run_ap2():
    from repro.core.usecases import run_audit_trail

    return run_audit_trail(c2_flows=3, benign_flows=3)


def test_table1_ap1(benchmark):
    verdict, _ = benchmark(lambda: run_ap1(3))
    assert verdict.accepted


def test_table1_ap2(benchmark):
    result = benchmark(run_ap2)
    assert result.matches == 3 and result.verdict_accepted


def test_table1_ap3(benchmark):
    verdict = benchmark(lambda: run_ap3(2))
    assert verdict.accepted


def test_table1_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for hops in (1, 2, 4, 8):
        verdict, shim_bytes = run_ap1(hops)
        rows.append({
            "policy": "AP1",
            "attesting hops": hops,
            "verdict": "accept" if verdict.accepted else "reject",
            "records": verdict.records_checked,
            "shim bytes": shim_bytes,
        })
    ap2 = run_ap2()
    rows.append({
        "policy": "AP2", "attesting hops": 1,
        "verdict": "accept" if ap2.verdict_accepted else "reject",
        "records": ap2.matches, "shim bytes": 0,
    })
    ap3 = run_ap3()
    rows.append({
        "policy": "AP3", "attesting hops": 2,
        "verdict": "accept" if ap3.accepted else "reject",
        "records": ap3.records_checked, "shim bytes": 0,
    })
    report("Table 1: attestation policies executed end to end", table(rows))
    ap1_rows = [r for r in rows if r["policy"] == "AP1"]
    # Shape: evidence grows linearly with attesting hops.
    bytes_per_hop = [
        (r["shim bytes"], r["attesting hops"]) for r in ap1_rows
    ]
    increments = [
        (b2 - b1) / (h2 - h1)
        for (b1, h1), (b2, h2) in zip(bytes_per_hop, bytes_per_hop[1:])
    ]
    assert max(increments) - min(increments) < 1e-6  # constant per-hop cost
    assert all(r["verdict"] == "accept" for r in rows)
