"""Ablation — what each composition mode actually buys (DESIGN.md).

The Fig. 4 Composition axis is a security/cost trade. This ablation
mounts three concrete in-path attacks against evidence gathered under
each composition mode and reports which mode catches which attack:

- *strip*: remove one hop's record (a middle adversary hides a hop).
- *reorder*: swap two hops' records (forge a different path shape).
- *splice*: replace the packet under the evidence (bind evidence from
  a sanctioned packet onto attack traffic).

Expected shape: pointwise catches only stripping (via the hop count);
chained adds reorder detection; traffic-path adds splice detection —
each step up the axis costs more signatures (see bench_fig3).
"""

from dataclasses import replace as dc_replace


from repro.core.fleet import attested_chain
from repro.core.wire import encode_compiled_policy
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.pisa.programs import ipv4_forwarding_program

from conftest import report, table


def run_and_capture(composition: CompositionMode):
    """Send one policy packet over 3 attesting hops; return everything
    an appraiser (and an attacker) would have."""
    sim = Simulator(linear_topology(3))
    chain = attested_chain(
        sim,
        [ipv4_forwarding_program() for _ in range(3)],
        config=EvidenceConfig(composition=composition),
    )
    compiled, shim = chain.ap1(composition)
    packet = chain.probe(sim, shim, b"sanctioned-payload", 1000, 2000)
    appraiser = chain.appraiser()
    return packet, compiled, appraiser


def mutate(packet, compiled, attack: str):
    """Apply one in-path attack to the delivered packet."""
    records = decode_record_stack(packet.ra_shim.body)
    if attack == "none":
        return packet
    if attack == "strip":
        kept = records[:-1]
        body = encode_compiled_policy(compiled) + encode_record_stack(kept)
        return packet.with_shim(dc_replace(packet.ra_shim, body=body))
    if attack == "reorder":
        swapped = [records[1], records[0]] + records[2:]
        body = encode_compiled_policy(compiled) + encode_record_stack(swapped)
        return packet.with_shim(dc_replace(packet.ra_shim, body=body))
    if attack == "splice":
        # Bind the sanctioned evidence onto different traffic: the
        # adversary changes the payload but keeps every record intact.
        return dc_replace(packet, payload=b"ATTACK-TRAFFIC-18B")
    raise AssertionError(attack)


ATTACKS = ["none", "strip", "reorder", "splice"]
MODES = [
    CompositionMode.POINTWISE,
    CompositionMode.CHAINED,
    CompositionMode.TRAFFIC_PATH,
]


def detect(mode: CompositionMode, attack: str) -> bool:
    packet, compiled, appraiser = run_and_capture(mode)
    mutated = mutate(packet, compiled, attack)
    verdict = appraiser.appraise_packet(mutated, compiled)
    return not verdict.accepted


def test_ablation_baseline_accepts(benchmark):
    caught = benchmark(lambda: detect(CompositionMode.CHAINED, "none"))
    assert not caught  # honest evidence accepted


def test_ablation_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    matrix = {}
    for mode in MODES:
        row = {"composition": mode.value}
        for attack in ATTACKS:
            caught = detect(mode, attack)
            matrix[(mode, attack)] = caught
            row[attack] = "caught" if caught else ("ok" if attack == "none" else "MISSED")
        rows.append(row)
    report("Ablation: attacks caught per composition mode", table(rows))
    # Honest evidence is never rejected.
    assert not any(matrix[(m, "none")] for m in MODES)
    # Stripping is caught everywhere (authenticated hop counting).
    assert all(matrix[(m, "strip")] for m in MODES)
    # Reordering requires at least chaining.
    assert not matrix[(CompositionMode.POINTWISE, "reorder")]
    assert matrix[(CompositionMode.CHAINED, "reorder")]
    assert matrix[(CompositionMode.TRAFFIC_PATH, "reorder")]
    # Splicing evidence onto other traffic requires packet binding.
    assert not matrix[(CompositionMode.POINTWISE, "splice")]
    assert not matrix[(CompositionMode.CHAINED, "splice")]
    assert matrix[(CompositionMode.TRAFFIC_PATH, "splice")]
