#!/usr/bin/env python3
"""NetKAT → PISA → attestation: proving a switch runs the policy you wrote.

The paper's UC1 worries about "unvetted or unwanted dataplane programs
that might have been mistakenly or deliberately swapped for the
intended version". When the dataplane program is *compiled from a
NetKAT policy*, attestation closes the loop end to end:

1. the operator writes a NetKAT policy;
2. the compiler (FDD → flow rules) generates a dataplane program and
   its table entries;
3. the program's measurement — knowable *before deployment* — becomes
   the golden reference;
4. the switch attests; the appraiser confirms the switch runs exactly
   the compiled policy, and flags any swap, even to a policy with one
   different rewrite.

Run:  python examples/netkat_attested_policy.py
"""

from repro.core.appraisal import program_reference
from repro.net.headers import ip_to_int
from repro.net.packet import Packet
from repro.netkat.ast import Filter, ite, mod, pand, seq, test as tst
from repro.netkat.install import compile_to_program, install_policy
from repro.netkat.printer import policy_to_text
from repro.pera.inertia import InertiaClass
from repro.pera.measurement import MeasurementEngine
from repro.pisa.pipeline import DROP_PORT, PacketContext
from repro.pisa.runtime import P4Runtime

WEB = ip_to_int("10.0.1.1")
DB = ip_to_int("10.0.2.1")


def main() -> None:
    # 1. The intended policy: web traffic out port 2 with DSCP marking,
    #    database traffic out port 3, everything else dropped.
    intended = ite(
        pand(tst("ipv4.dst", WEB), tst("udp.dst_port", 80)),
        seq(mod("ipv4.dscp", 46), mod("port", 2)),
        ite(tst("ipv4.dst", DB), mod("port", 3), Filter(tst("ipv4.ttl", 0))),
    )
    print("intended policy:")
    print(f"  {policy_to_text(intended)}")

    # 2. Compile and install.
    runtime = P4Runtime("s1")
    runtime.arbitrate("operator", 1)
    entries = install_policy(runtime, "operator", intended)
    program = runtime.get_forwarding_pipeline_config()
    print(f"compiled to program {program.full_name!r} with {entries} entries")

    # 3. The golden reference is computable offline from the policy.
    golden_program, _ = compile_to_program(intended)
    golden = program_reference(golden_program)
    print(f"golden PROGRAM measurement: {golden.hex()[:32]}…")

    # 4. The switch behaves as the policy says...
    def forwardings():
        results = {}
        for label, dst, port in (("web", WEB, 80), ("db", DB, 5432),
                                 ("other", ip_to_int("10.9.9.9"), 80)):
            packet = Packet.udp_packet(
                src_mac=1, dst_mac=2, src_ip=ip_to_int("10.0.0.1"),
                dst_ip=dst, src_port=1000, dst_port=port,
            )
            ctx = PacketContext.from_packet(packet, ingress_port=1)
            runtime.pipeline.process(ctx)
            results[label] = ctx.egress_spec
        return results

    out = forwardings()
    print(f"forwarding check: web->{out['web']}, db->{out['db']}, "
          f"other->{'drop' if out['other'] == DROP_PORT else out['other']}")
    assert out == {"web": 2, "db": 3, "other": DROP_PORT}

    # 5. ...and attestation proves it.
    engine = MeasurementEngine(b"asic-serial-s1")
    measured = engine.measure(InertiaClass.PROGRAM, runtime.pipeline)
    print(f"attested measurement matches golden: {measured == golden}")
    assert measured == golden

    # 6. A "small" unauthorized change — one rewrite value — is caught.
    tampered = ite(
        pand(tst("ipv4.dst", WEB), tst("udp.dst_port", 80)),
        seq(mod("ipv4.dscp", 46), mod("port", 4)),  # port 4, not 2!
        ite(tst("ipv4.dst", DB), mod("port", 3), Filter(tst("ipv4.ttl", 0))),
    )
    install_policy(runtime, "operator", tampered)
    measured_after = engine.measure(InertiaClass.PROGRAM, runtime.pipeline)
    print(f"after a one-value swap, measurement still matches: "
          f"{measured_after == golden}")
    assert measured_after != golden
    print("-> the appraiser would reject: UC1, closed end to end.")


if __name__ == "__main__":
    main()
