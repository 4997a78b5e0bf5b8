#!/usr/bin/env python3
"""UC2 + AP3 — path evidence as an authentication factor.

A user who forgot their password asks for limited access. The bank
grants it only if the connection demonstrably traversed an acceptable,
fully-attested path (UC2 / policy AP1) — and, separately, a network
enforces that traffic crossed the right middlebox functions in the
right order (policy AP3).

Run:  python examples/path_authentication.py
"""

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.policies import ap3_path_check
from repro.core.usecases import run_path_authentication
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pisa.programs import acl_program, firewall_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind


def uc2_second_factor() -> None:
    print("=== UC2: path evidence as a second factor ===")
    home = run_path_authentication(from_home_path=True)
    print(f"from home path   : access granted = {home.access_granted} "
          f"({home.hops_attested} hops attested)")
    unknown = run_path_authentication(from_home_path=False)
    print(f"from unknown path: access granted = {unknown.access_granted}")
    for failure in unknown.verdict.failures:
        print(f"  appraiser: {failure}")


def ap3_function_path() -> None:
    print("\n=== AP3: the path must cross firewall_v5 then ACL_v3 ===")
    firewall = firewall_program()
    acl = acl_program()
    topo = linear_topology(2)
    sim = Simulator(topo)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches = []
    for name, program in (("s1", firewall), ("s2", acl)):
        switch = NetworkAwarePeraSwitch(name)
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
        ap3_path_check(),
        path=["h-src", "s1", "s2", "h-dst"],
        bindings={
            "F1": firewall.full_name, "F2": acl.full_name,
            "peer1": "h-src", "peer2": "h-dst",
        },
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=443,
        payload=b"sensitive",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(compiled),
        ),
    )
    sim.run()

    appraiser = PathAppraiser(
        "Appraiser", PathAppraisalPolicy.for_fleet(switches, (firewall, acl))
    )
    verdict = appraiser.appraise_packet(dst.received_packets[0], compiled)
    print(verdict.describe())
    assert verdict.accepted


def main() -> None:
    uc2_second_factor()
    ap3_function_path()


if __name__ == "__main__":
    main()
