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


from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack, encode_record_stack
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind

from conftest import report, table


def run_and_capture(composition: CompositionMode):
    """Send one policy packet over 3 attesting hops; return everything
    an appraiser (and an attacker) would have."""
    programs = [ipv4_forwarding_program() for _ in range(3)]
    topo = linear_topology(3)
    sim = Simulator(topo)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches = []
    for i, program in enumerate(programs, start=1):
        switch = NetworkAwarePeraSwitch(
            f"s{i}", config=EvidenceConfig(composition=composition)
        )
        sim.bind(switch)
        switch.runtime.arbitrate("ctl", 1)
        switch.runtime.set_forwarding_pipeline_config("ctl", program)
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        switches.append(switch)
    compiled = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=["h-src", "s1", "s2", "s3", "h-dst"],
        bindings={"client": "h-dst"},
        composition=composition,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
        payload=b"sanctioned-payload",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(compiled),
        ),
    )
    sim.run()
    packet = dst.received_packets[0]

    appraiser = PathAppraiser(
        "Appraiser", PathAppraisalPolicy.for_fleet(switches, programs)
    )
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
