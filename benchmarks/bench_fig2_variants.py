"""E2 / Fig. 2 + expressions (3),(4) — out-of-band vs in-band evidence.

Two levels of reproduction:

1. *Protocol level*: the Copland expressions (3) and (4) executed on
   the attestation VM. Expected shape: in-band reaches both relying
   parties with fewer control messages; out-of-band needs the
   nonce-linked store/retrieve round.
2. *Dataplane level*: PERA chains running both evidence channels.
   Expected shape: in-band grows the packets themselves (shim bytes on
   the wire); out-of-band keeps packets small but loads the control
   channel — the same total evidence, carried on different planes.
"""

from repro.core.fleet import attested_chain
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.switch import PeraSwitch
from repro.pisa.programs import ipv4_forwarding_program
from repro.ra.protocol import AttestationScenario, run_in_band, run_out_of_band

from conftest import report, table

GOLDEN = {"Hardware": b"tofino-model-x", "Program": b"firewall_v5-binary"}


def honest_scenario():
    return AttestationScenario(
        switch_targets=dict(GOLDEN), golden_targets=dict(GOLDEN)
    )


def compromised_scenario():
    targets = dict(GOLDEN)
    targets["Program"] = b"firewall_v5-binary-with-implant"
    return AttestationScenario(
        switch_targets=targets, golden_targets=dict(GOLDEN)
    )


def test_fig2_out_of_band(benchmark):
    run = benchmark(lambda: run_out_of_band(honest_scenario()))
    assert run.accepted


def test_fig2_in_band(benchmark):
    run = benchmark(lambda: run_in_band(honest_scenario()))
    assert run.accepted


def test_fig2_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for label, scenario_fn in (
        ("honest", honest_scenario), ("compromised", compromised_scenario),
    ):
        for runner in (run_out_of_band, run_in_band):
            run = runner(scenario_fn())
            rows.append({
                "switch": label,
                "variant": run.variant,
                "result": "accept" if run.accepted else "reject",
                "ctl msgs": run.messages,
                "evidence B": run.evidence_bytes,
                "RP1 informed": run.rp1_informed,
                "RP2 informed": run.rp2_informed,
            })
    report("Fig. 2: evidence delivery variants (exprs (3) and (4))",
           table(rows))
    out_of_band = [r for r in rows if r["variant"] == "out-of-band"]
    in_band = [r for r in rows if r["variant"] == "in-band"]
    # Shape check: in-band needs strictly fewer control messages.
    assert all(
        ib["ctl msgs"] < oob["ctl msgs"]
        for ib, oob in zip(in_band, out_of_band)
    )
    # Both variants detect the compromised switch.
    assert all(r["result"] == "reject" for r in rows if r["switch"] == "compromised")


def run_dataplane_variant(out_of_band: bool, packets: int = 20):
    """Drive a 3-switch PERA chain in one evidence-channel mode."""
    topo = linear_topology(3)
    if out_of_band:
        topo.add_node("appraiser", kind="host")
        topo.add_link("appraiser", 1, "s1", 9)
    sim = Simulator(topo)
    chain = attested_chain(
        sim,
        [ipv4_forwarding_program() for _ in range(3)],
        switch_cls=PeraSwitch,
        appraiser_node="appraiser" if out_of_band else None,
        out_of_band=out_of_band,
    )
    if out_of_band:
        sim.bind(Host("appraiser", mac=0x3, ip=ip_to_int("10.0.9.9")))
    shim = RaShimHeader(flags=RaShimHeader.FLAG_POLICY)
    for index in range(packets):
        sim.schedule(index * 1e-3, lambda: chain.send(shim, bytes(64), 1, 2))
    sim.run()
    delivered = chain.dst.received_packets
    return {
        "channel": "out-of-band" if out_of_band else "in-band",
        "delivered": len(delivered),
        "pkt bytes at dst": (
            sum(p.wire_length for p in delivered) // max(1, len(delivered))
        ),
        "control msgs": sim.stats.control_messages,
        "control bytes": sim.stats.control_bytes,
    }


def test_fig2_dataplane_report(benchmark):
    # Register as a benchmark so the reproduced table still prints
    # under --benchmark-only; the real work follows un-timed.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [run_dataplane_variant(False), run_dataplane_variant(True)]
    report("Fig. 2 on the dataplane: where the evidence bytes travel",
           table(rows))
    in_band, oob = rows
    # In-band: fat packets, silent control channel. Out-of-band: the
    # reverse. The same security, a different plane.
    assert in_band["pkt bytes at dst"] > oob["pkt bytes at dst"]
    assert in_band["control msgs"] == 0
    assert oob["control msgs"] > 0
    assert oob["control bytes"] > 0
