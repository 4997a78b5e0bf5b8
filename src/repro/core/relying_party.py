"""The relying party, as one object.

The attestation pipeline (compile policy → build shim → send → collect
→ appraise) as the paper's RP role, with a fresh nonce per packet.
One-shot probes over a fixed chain use
:meth:`repro.core.fleet.Chain.ap1` / ``probe`` instead; this class is
the long-lived version:

    rp = RelyingParty(
        policy=ap1_bank_path_attestation(),
        appraisal=PathAppraisalPolicy(anchors=..., ...),
    )
    rp.attach(sim, src_host, dst_host)
    rp.send(b"payload")
    sim.run()
    verdicts = rp.verdicts        # one per delivered packet

Every packet gets a fresh nonce compiled into its policy header, and
appraisal happens automatically on arrival at the destination host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser, PathVerdict
from repro.core.compiler import CompiledPolicy, compile_policy_for_path
from repro.core.hybrid_ast import HybridPolicy
from repro.core.wire import decode_compiled_policy, encode_compiled_policy
from repro.net.headers import RaShimHeader
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.routing import shortest_path
from repro.net.simulator import Simulator
from repro.pera.config import CompositionMode, DetailLevel
from repro.ra.nonce import NonceManager
from repro.telemetry.instrument import Telemetry
from repro.util.errors import CodecError, ConfigError


@dataclass
class RelyingParty:
    """Compiles, sends, and appraises — the paper's RP role."""

    policy: HybridPolicy
    appraisal: PathAppraisalPolicy
    detail: DetailLevel = DetailLevel.MINIMAL
    composition: CompositionMode = CompositionMode.CHAINED
    bindings: Dict[str, str] = field(default_factory=dict)
    out_of_band: bool = False
    #: Optional shared telemetry so verdicts and check failures land in
    #: the same journal as the simulator's events.
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        self._nonces = NonceManager(seed=f"rp-{self.policy.name}")
        self._appraiser = PathAppraiser(
            name=f"appraiser-of-{self.policy.name}",
            policy=self.appraisal,
            nonces=self._nonces,
            telemetry=self.telemetry,
        )
        self._sim: Optional[Simulator] = None
        self._src: Optional[Host] = None
        self._dst: Optional[Host] = None
        self._path: List[str] = []
        self._policies_by_nonce: Dict[bytes, CompiledPolicy] = {}
        self.verdicts: List[PathVerdict] = []
        self.sent = 0

    # --- wiring ------------------------------------------------------------

    def attach(self, sim: Simulator, src: Host, dst: Host) -> None:
        """Bind this RP to a source and destination on a simulator.

        The destination's packet callback is chained: RA-carrying
        packets are appraised on arrival, everything else passes
        through untouched.
        """
        self._sim = sim
        self._src = src
        self._dst = dst
        self._path = shortest_path(sim.topology, src.name, dst.name)
        bindings = dict(self.bindings)
        bindings.setdefault("client", dst.name)
        self.bindings = bindings
        previous = dst.on_packet

        def on_packet(packet: Packet) -> None:
            if previous is not None:
                previous(packet)
            self._on_arrival(packet)

        dst.on_packet = on_packet

    @property
    def path(self) -> List[str]:
        return list(self._path)

    # --- sending ----------------------------------------------------------------

    def send(
        self,
        payload: bytes = b"",
        src_port: int = 40000,
        dst_port: int = 40001,
    ) -> CompiledPolicy:
        """Compile the policy under a fresh nonce and send one packet."""
        if self._sim is None or self._src is None or self._dst is None:
            raise ConfigError("relying party is not attached; call attach()")
        nonce = self._nonces.issue()
        compiled = compile_policy_for_path(
            self.policy,
            path=self._path,
            bindings=self.bindings,
            nonce=nonce,
            detail=self.detail,
            composition=self.composition,
            out_of_band=self.out_of_band,
        )
        self._policies_by_nonce[nonce] = compiled
        self._src.send_udp(
            dst_mac=self._dst.mac,
            dst_ip=self._dst.ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            ra_shim=RaShimHeader(
                flags=RaShimHeader.FLAG_POLICY,
                body=encode_compiled_policy(compiled),
            ),
        )
        self.sent += 1
        return compiled

    # --- receiving ------------------------------------------------------------------

    def _on_arrival(self, packet: Packet) -> None:
        if packet.ra_shim is None:
            return
        try:
            carried = decode_compiled_policy(packet.ra_shim.body)
        except CodecError as exc:
            # Corrupted-in-flight shims reject rather than crash the RP.
            self.verdicts.append(PathVerdict(
                accepted=False,
                failures=(f"shim body undecodable: {exc}",),
                trace_id=(
                    packet.trace.trace_id if packet.trace is not None else None
                ),
            ))
            return
        if carried is None:
            return
        compiled = self._policies_by_nonce.get(carried.nonce)
        if compiled is None:
            self.verdicts.append(PathVerdict(
                accepted=False,
                failures=("policy nonce was never issued by this RP",),
            ))
            return
        self.verdicts.append(self._appraiser.appraise_packet(packet, compiled))

    # --- pre-flight --------------------------------------------------------------------

    def lint(self) -> List[str]:
        """Pre-flight check: compile a probe policy and lint it against
        this RP's appraisal policy over the attached path."""
        if self._sim is None:
            raise ConfigError("relying party is not attached; call attach()")
        from repro.analysis.lint import lint_deployment

        probe = compile_policy_for_path(
            self.policy,
            path=self._path,
            bindings=self.bindings,
            nonce=b"\x00" * 16,
            detail=self.detail,
            composition=self.composition,
            out_of_band=self.out_of_band,
        )
        expected = [
            name for name in self._path[1:-1]
            if self._sim.topology.kind_of(name) == "switch"
        ]
        return [
            str(finding)
            for finding in lint_deployment(
                probe, self.appraisal, expected_places=expected
            )
        ]

    # --- results -----------------------------------------------------------------------

    def summary(self) -> str:
        accepted = sum(1 for v in self.verdicts if v.accepted)
        return (
            f"relying party {self.policy.relying_party!r}: "
            f"{self.sent} sent, {len(self.verdicts)} appraised, "
            f"{accepted} accepted over path {' -> '.join(self._path)}"
        )
