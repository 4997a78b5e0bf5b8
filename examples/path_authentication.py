#!/usr/bin/env python3
"""UC2 + AP3 — path evidence as an authentication factor.

A user who forgot their password asks for limited access. The bank
grants it only if the connection demonstrably traversed an acceptable,
fully-attested path (UC2 / policy AP1) — and, separately, a network
enforces that traffic crossed the right middlebox functions in the
right order (policy AP3).

Run:  python examples/path_authentication.py
"""

from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import attested_chain, policy_shim
from repro.core.policies import ap3_path_check
from repro.core.usecases import run_path_authentication
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pisa.programs import acl_program, firewall_program


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
    sim = Simulator(linear_topology(2))
    chain = attested_chain(sim, [firewall, acl])
    compiled = compile_policy_for_path(
        ap3_path_check(),
        path=chain.path,
        bindings={
            "F1": firewall.full_name, "F2": acl.full_name,
            "peer1": "h-src", "peer2": "h-dst",
        },
    )
    packet = chain.probe(sim, policy_shim(compiled), b"sensitive", 1000, 443)
    verdict = chain.appraiser().appraise_packet(packet, compiled)
    print(verdict.describe())
    assert verdict.accepted


def main() -> None:
    uc2_second_factor()
    ap3_function_path()


if __name__ == "__main__":
    main()
