"""Assemble a linear attested deployment — once.

Every use case, Table 1 policy and Fig. 4 design point runs on the same
deployment: ``h-src — s1..sN — h-dst``, each switch brought up over
P4Runtime with one route to the destination net, an appraiser holding
the fleet's golden values, AP1 compiled for the path. This module is
the only place in :mod:`repro.core`, ``benchmarks/`` and ``examples/``
(the ``quickstart.py`` tutorial aside) that spells those steps out;
``tests/test_layering.py`` keeps it that way.

The route stays the one ``10.0.1.0/24 → forward(2)`` entry, written by
the installing controller right after the install: table contents are
measured state (TABLES digests, ``ra_cost``'s per-byte hashing), so a
different entry or order would move every golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import CompiledPolicy, compile_policy_for_path
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.pera.config import CompositionMode
from repro.pera.switch import PeraSwitch
from repro.pisa.program import DataplaneProgram
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry.instrument import Telemetry


def bring_up(switch, program, controller="ctl", election_id=1) -> None:
    """Win mastership on ``switch`` and install ``program``."""
    switch.runtime.arbitrate(controller, election_id)
    switch.runtime.set_forwarding_pipeline_config(controller, program)


def forward_prefix(switch, net="10.0.1.0", controller="ctl") -> None:
    """Write ``net``/24 → ``forward(2)``: port 2 faces ``h-dst``."""
    switch.runtime.write(controller, TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int(net), prefix_len=24),),
        action="forward", params=(2,),
    ))


def athens_tap(switch, actor: str) -> None:
    """What the Athens attacker writes after its program swap: restore
    forwarding (so the tap stays invisible) and clone h-src's traffic
    to the spy port."""
    forward_prefix(switch, controller=actor)
    switch.runtime.write(actor, TableEntry(
        table="intercept",
        keys=(MatchKey(
            MatchKind.TERNARY, ip_to_int("10.0.0.1"), mask=0xFFFFFFFF,
        ),),
        action="clone_to", params=(3,), priority=1,
    ))


def policy_shim(compiled: CompiledPolicy) -> RaShimHeader:
    """The RA options header carrying ``compiled`` (frozen: share it)."""
    return RaShimHeader(
        flags=RaShimHeader.FLAG_POLICY, body=encode_compiled_policy(compiled)
    )


@dataclass
class Chain:
    """``h-src — s1..sN — h-dst``, bound and brought up."""

    src: Host
    dst: Host
    switches: List[PeraSwitch]
    programs: List[DataplaneProgram]

    @property
    def path(self) -> List[str]:
        return [self.src.name, *(s.name for s in self.switches), self.dst.name]

    def appraiser(
        self,
        known: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        **policy_fields,
    ) -> PathAppraiser:
        """An appraiser holding golden values for the first ``known``
        switches (default: all of them)."""
        return PathAppraiser(
            "Appraiser",
            PathAppraisalPolicy.for_fleet(
                self.switches[:known], self.programs[:known], **policy_fields
            ),
            telemetry=telemetry,
        )

    def ap1(
        self, composition=CompositionMode.CHAINED
    ) -> Tuple[CompiledPolicy, RaShimHeader]:
        """AP1 compiled for this path, and the shim that carries it."""
        compiled = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=self.path,
            bindings={"client": self.dst.name},
            composition=composition,
        )
        return compiled, policy_shim(compiled)

    def send(self, shim, payload, src_port, dst_port) -> Packet:
        """One UDP packet from ``src`` to ``dst`` under ``shim``."""
        return self.src.send_udp(
            dst_mac=self.dst.mac, dst_ip=self.dst.ip,
            src_port=src_port, dst_port=dst_port,
            payload=payload, ra_shim=shim,
        )

    def probe(self, sim, shim, payload, src_port, dst_port) -> Packet:
        """Send one packet, run the simulation, return what arrived."""
        self.send(shim, payload, src_port, dst_port)
        sim.run()
        return self.dst.received_packets[0]


def attested_chain(
    sim,
    programs: Sequence[DataplaneProgram],
    switch_cls=NetworkAwarePeraSwitch,
    **switch_kwargs,
) -> Chain:
    """Bind ``h-src``, ``h-dst`` and one ``switch_cls`` per program into
    ``sim`` (whose topology is ``linear_topology(len(programs))``,
    possibly extended), bring each switch up and route it to ``h-dst``."""
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches = []
    for i, program in enumerate(programs, start=1):
        switch = switch_cls(f"s{i}", **switch_kwargs)
        sim.bind(switch)
        bring_up(switch, program)
        forward_prefix(switch)
        switches.append(switch)
    return Chain(src, dst, switches, list(programs))
