#!/usr/bin/env python3
"""Quickstart: attest a programmable switch end to end.

Builds the smallest interesting deployment — two hosts, one attesting
PERA switch — compiles the paper's AP1 policy for the path, sends one
packet carrying the compiled policy in its RA options header, and
appraises the evidence the packet accumulated.

Run:  python examples/quickstart.py

With ``--run-out RUN.json`` the run is observed end to end:
per-pipeline-stage spans, evidence counters, the verify-cache hit rate
and the attestation audit journal land in one ``repro.run/v1`` bundle,
written in a ``finally`` so even a crashed run leaves it on disk.
Render it with ``python -m repro.telemetry.report RUN.json`` (or the
``timeline``, ``health`` and ``chrome`` views).
"""

import argparse

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
from repro.pisa.programs import firewall_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry import Telemetry, run_bundle, write_run


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--run-out", metavar="PATH", default=None,
        help="write the run's repro.run/v1 bundle (journal, metrics, spans)",
    )
    args = parser.parse_args(argv)
    telemetry = Telemetry() if args.run_out else None
    try:
        attest(telemetry)
    finally:
        if telemetry is not None:
            write_run(run_bundle(telemetry), args.run_out)
            print(f"run bundle written to {args.run_out}")


def attest(telemetry) -> None:
    """The quickstart itself; ``telemetry`` is None when unobserved."""
    # 1. A tiny network: h-src — s1 — h-dst.
    topology = linear_topology(1)
    sim = Simulator(topology, telemetry=telemetry)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    switch = NetworkAwarePeraSwitch(
        "s1", config=EvidenceConfig(composition=CompositionMode.CHAINED)
    )
    for node in (src, dst, switch):
        sim.bind(node)

    # 2. Install the vetted dataplane program via the P4Runtime API.
    #    The tutorial spells the verbs out on purpose; everything else in
    #    the tree calls repro.core.fleet (bring_up, attested_chain).
    program = firewall_program()  # the paper's firewall_v5
    switch.runtime.arbitrate("controller", election_id=1)
    switch.runtime.set_forwarding_pipeline_config("controller", program)
    switch.runtime.write("controller", TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))

    # 3. The relying party compiles AP1 for the path it will use.
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=["h-src", "s1", "h-dst"],
        bindings={"client": "h-dst"},
        composition=CompositionMode.CHAINED,
    )
    print(f"compiled policy {policy.policy_id}: attest {policy.hop.attest} "
          f"at every hop, appraise at {policy.appraiser}")

    # 4. Send traffic carrying the compiled policy in-band.
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
        payload=b"hello, attested world",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(policy),
        ),
    )
    sim.run()

    # 5. Appraise the delivered packet's path evidence.
    appraiser = PathAppraiser(
        "Appraiser",
        telemetry=telemetry,
        policy=PathAppraisalPolicy.for_fleet([switch], program),
    )
    packet = dst.received_packets[0]
    verdict = appraiser.appraise_packet(packet, compiled=policy)
    print(verdict.describe())
    assert verdict.accepted

    # 6. Explain the verdict from the audit journal.
    if telemetry is not None and verdict.trace_id is not None:
        print("\n--- audit narrative ---")
        print(verdict.explain(telemetry))


if __name__ == "__main__":
    main()
