"""Executable builds of the paper's motivating use cases (§2).

Each function assembles its deployment through
:mod:`repro.core.fleet` (chain, bring-up, appraiser, AP1 shim), drives
it, and returns a structured result. Examples print these; benchmarks
sweep their parameters.

- UC1 :func:`run_config_assurance` — the Athens affair: a rogue
  program swap is detected through program attestation.
- UC2 :func:`run_path_authentication` — path evidence as an
  authentication factor (AP1).
- UC3 :func:`run_ddos_mitigation` — path evidence as an authorization
  tag: under attack, traffic without evidence is dropped.
- UC4 :func:`run_audit_trail` — evidence as documentation: a scanner's
  findings become a Merkle-committed audit log.
- UC5 :func:`run_cross_referenced` — host-based and network-based
  evidence composed: only traffic from an attested TLS stack leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from repro.copland.parser import parse_phrase
from repro.copland.vm import CoplandVM, Place
from repro.core.appraisal import PathVerdict
from repro.core.fleet import (
    athens_tap,
    attested_chain,
    bring_up,
    forward_prefix,
)
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.redaction import redact
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.merkle import MerkleTree
from repro.evidence.codec import decode_record_stack, encode_hop_body
from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.shardrun import ScenarioSpec, ShardedResult, run_sharded
from repro.net.simulator import Simulator
from repro.net.topology import Topology, linear_topology
from repro.pera.config import (
    BatchingSpec,
    CompositionMode,
    DetailLevel,
    EvidenceConfig,
)
from repro.pera.records import verify_record_batch
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pisa.programs import (
    athens_rogue_program,
    firewall_program,
    ipv4_forwarding_program,
    scanner_program,
)
from repro.pisa.registers import Counter
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind


def _ipv4_chain(switch_count: int, composition: CompositionMode):
    """A fresh simulator carrying a chain of vetted IPv4 routers."""
    sim = Simulator(linear_topology(switch_count))
    chain = attested_chain(
        sim,
        [ipv4_forwarding_program() for _ in range(switch_count)],
        config=EvidenceConfig(composition=composition),
    )
    return sim, chain


# --- UC1: configuration assurance / Athens affair ---------------------------------


@dataclass
class ConfigAssuranceResult:
    packets_sent: int
    verdicts: List[PathVerdict]
    first_rejection: Optional[int]
    swap_at: Optional[int]
    exfiltrated: int
    #: The merged runner output, carrying the canonical
    #: audit/metrics/stats (and the run's private ``telemetry``) the
    #: determinism tests compare across shard counts; always set by
    #: :func:`run_config_assurance`.
    sharded: Optional[ShardedResult] = field(default=None, repr=False)

    @property
    def detection_delay(self) -> Optional[int]:
        """Packets between the swap and its detection."""
        if self.swap_at is None or self.first_rejection is None:
            return None
        return max(0, self.first_rejection - self.swap_at)


def _uc1_athens_swap(switch) -> None:
    """The Athens-affair compromise: an attacker with master arbitration
    installs the rogue firewall variant and an intercept rule cloning
    h-src's traffic to the spy port."""
    bring_up(switch, athens_rogue_program(), "attacker", 99)
    athens_tap(switch, "attacker")


# UC1 is a ScenarioSpec for the sharded runner. Every shard builds the
# complete world — hosts, switches, programs, routing — so control-plane
# state and appraisal anchors are replicated deterministically; the
# simulator's ownership gates make each scheduled action (the swap on
# s1's shard, each send on h-src's) fire exactly once across the fleet.


def _uc1_topology(switch_count: int) -> Topology:
    topo = linear_topology(switch_count)
    topo.add_node("h-spy", kind="host")
    topo.add_link("s1", 3, "h-spy", 1)
    return topo


def _uc1_build(
    sim,
    packets: int,
    swap_at: Optional[int],
    sampling: Optional[SamplingSpec],
    batching: Optional[BatchingSpec],
    switch_count: int,
):
    config = EvidenceConfig(
        detail=DetailLevel.MINIMAL,
        composition=CompositionMode.CHAINED,
        sampling=sampling or SamplingSpec(),
        batching=batching,
    )
    chain = attested_chain(
        sim, [firewall_program()] * switch_count, config=config
    )
    spy = Host("h-spy", mac=0x3, ip=ip_to_int("10.9.9.9"))
    sim.bind(spy)

    appraiser = chain.appraiser(
        telemetry=sim.telemetry,
        allow_sampling=sampling is not None
        and sampling.mode is not SamplingMode.EVERY_PACKET,
    )
    policy, shim = chain.ap1()

    for index in range(packets):
        # The swap is its own event on s1's shard, scheduled ahead of
        # the same-time send so it lands first everywhere.
        if swap_at is not None and index == swap_at:
            sim.schedule_on(
                "s1", index * 1e-3,
                lambda: _uc1_athens_swap(chain.switches[0]),
            )
        sim.schedule_on(
            "h-src", index * 1e-3,
            lambda seq=index: chain.send(
                shim, seq.to_bytes(4, "big"), 1000, 2000
            ),
        )
    return {
        "dst": chain.dst,
        "spy": spy,
        "switches": chain.switches,
        "appraiser": appraiser,
        "policy": policy,
    }


def _uc1_harvest(sim, ctx):
    """Per-shard output: the dst-owning shard appraises delivered
    packets locally (its appraisal anchors are replicas of the same
    deterministic keys), the spy-owning shard counts exfiltration."""
    verdicts = None
    if sim.owns("h-dst"):
        verdicts = ctx["appraiser"].appraise_packets(
            [(packet, ctx["policy"]) for packet in ctx["dst"].received_packets]
        )
    return {
        "verdicts": verdicts,
        "exfiltrated": (
            len(ctx["spy"].received_packets) if sim.owns("h-spy") else 0
        ),
    }


def _uc1_drain(sim, ctx) -> None:
    """Barrier-synced flush-then-run: seal epochs still open on this
    shard's switches so their releases (and parked packets) enter the
    next window cycle."""
    for switch in ctx["switches"]:
        if sim.owns(switch.name):
            switch.flush_epochs()


def config_assurance_spec(
    packets: int = 20,
    swap_at: Optional[int] = 10,
    sampling: Optional[SamplingSpec] = None,
    switch_count: int = 2,
    batching: Optional[BatchingSpec] = None,
) -> ScenarioSpec:
    """The UC1 deployment as a runner-ready :class:`ScenarioSpec`."""
    return ScenarioSpec(
        topology=partial(_uc1_topology, switch_count),
        build=partial(
            _uc1_build,
            packets=packets,
            swap_at=swap_at,
            sampling=sampling,
            batching=batching,
            switch_count=switch_count,
        ),
        harvest=_uc1_harvest,
        drain=_uc1_drain if batching is not None else None,
    )


def run_config_assurance(
    packets: int = 20,
    swap_at: Optional[int] = 10,
    sampling: Optional[SamplingSpec] = None,
    switch_count: int = 2,
    batching: Optional[BatchingSpec] = None,
    shards: int = 1,
    backend: str = "inline",
    seed: int = 0,
) -> ConfigAssuranceResult:
    """UC1 / the Athens affair, end to end.

    A chain of ``switch_count`` attesting switches runs vetted
    ``firewall_v5``; at packet ``swap_at`` an attacker (who *is* the
    P4Runtime master) installs the rogue variant that clones traffic to
    a spy port. The relying party appraises each delivered packet's
    path evidence: the program measurement changes, so appraisal
    rejects from the swap on — with per-packet attestation, at the very
    first rogue packet.

    The deployment is a :func:`config_assurance_spec` run under the
    sharded runner (:mod:`repro.net.shardrun`) on ``shards`` event
    loops of the chosen ``backend`` (``shards=1`` inline is the
    baseline); the merged :class:`~repro.net.shardrun.ShardedResult`,
    with the run's audit journal and metrics, is in ``.sharded``. The
    harvest-time appraiser is built on the run's telemetry, so its
    ``verdict.issued`` / ``check.failed`` events are in that journal too.
    """
    result = run_sharded(
        config_assurance_spec(
            packets, swap_at, sampling, switch_count, batching
        ),
        shards=shards,
        backend=backend,
        seed=seed,
    )
    verdicts = next(
        (out["verdicts"] for out in result.outputs
         if out["verdicts"] is not None),
        [],
    )
    first_rejection = next(
        (i for i, verdict in enumerate(verdicts) if not verdict.accepted),
        None,
    )
    return ConfigAssuranceResult(
        packets_sent=packets,
        verdicts=verdicts,
        first_rejection=first_rejection,
        swap_at=swap_at,
        exfiltrated=sum(out["exfiltrated"] for out in result.outputs),
        sharded=result,
    )


# --- UC2: path evidence as an authentication factor ------------------------------


@dataclass
class PathAuthResult:
    verdict: PathVerdict
    access_granted: bool
    hops_attested: int


def run_path_authentication(
    switch_count: int = 3, from_home_path: bool = True
) -> PathAuthResult:
    """UC2 / AP1: grant limited access if the client connects over an
    acceptable, fully-attested path.

    ``from_home_path=False`` models the user connecting through an
    unknown network: the path's switches are not in the bank's
    reference set, so appraisal fails and access is denied.
    """
    sim, chain = _ipv4_chain(switch_count, CompositionMode.CHAINED)
    appraiser = chain.appraiser(
        known=None if from_home_path else switch_count - 1
    )
    policy, shim = chain.ap1()
    packet = chain.probe(sim, shim, b"login-attempt", 4000, 443)
    verdict = appraiser.appraise_packet(packet, compiled=policy)
    return PathAuthResult(
        verdict=verdict,
        access_granted=verdict.accepted,
        hops_attested=verdict.records_checked,
    )


# --- AP1, complete: path attestation AND the client's host protocol --------------


@dataclass
class Ap1CompleteResult:
    """Both halves of AP1: the *⇒ path side and the @client side."""

    path_verdict: PathVerdict
    client_bmon_clean: bool
    client_exts_clean: bool
    accepted: bool


def run_ap1_complete(
    switch_count: int = 2,
    client_compromised: bool = False,
) -> Ap1CompleteResult:
    """Execute ALL of AP1 (Table 1): per-hop network attestation up to
    the client, then the client's §4.2 host-measurement protocol
    (the blue original in the paper), with the bank accepting only if
    both halves hold.

    ``client_compromised`` installs malware in the client's browser
    extensions AND corrupts the monitor — the sequenced protocol (the
    ``-<-`` in AP1's terminal clause) catches it because the slow
    adversary cannot repair ``bmon`` between the ordered measurements.
    """
    # Network half.
    sim, chain = _ipv4_chain(switch_count, CompositionMode.CHAINED)
    policy, shim = chain.ap1()
    path_verdict = chain.appraiser().appraise_packet(
        chain.probe(sim, shim, b"banking-session", 4000, 443), policy
    )

    # Host half: AP1's terminal clause, executed on the Copland VM at
    # the client: @ks [av us bmon -> !] -<- @us [bmon us exts -> !].
    vm = CoplandVM()
    vm.register(Place("bank"))
    ks = vm.register(Place("ks"))
    us = vm.register(Place("us"))
    ks.install_component("av", b"antivirus")
    us.install_component("bmon", b"bmon-good")
    us.install_component("exts", b"extensions-good")
    if client_compromised:
        us.corrupt_component("exts", b"MALWARE")
        us.corrupt_component("bmon", b"bmon-evil")
    evidence = vm.execute(parse_phrase(
        "@ks [av us bmon -> !] -<- @us [bmon us exts -> !]"
    ), "bank")
    golden_bmon = digest(b"bmon-good", domain="component-measurement")
    golden_exts = digest(b"extensions-good", domain="component-measurement")
    measurements = {
        (m.asp, m.target): m.value for m in evidence.find_measurements()
    }
    bmon_clean = measurements[("av", "bmon")] == golden_bmon
    exts_clean = measurements[("bmon", "exts")] == golden_exts
    return Ap1CompleteResult(
        path_verdict=path_verdict,
        client_bmon_clean=bmon_clean,
        client_exts_clean=exts_clean,
        accepted=path_verdict.accepted and bmon_clean and exts_clean,
    )


# --- UC3: path evidence as an authorization tag (DDoS) ----------------------------


@dataclass
class DdosResult:
    legit_sent: int
    legit_delivered: int
    attack_sent: int
    attack_delivered: int
    gated_drops: int

    @property
    def goodput_kept(self) -> float:
        return self.legit_delivered / max(1, self.legit_sent)

    @property
    def attack_passed(self) -> float:
        return self.attack_delivered / max(1, self.attack_sent)


def run_ddos_mitigation(
    legit_packets: int = 20,
    attack_packets: int = 60,
    under_attack: bool = True,
) -> DdosResult:
    """UC3: "while under attack, a network could drop traffic for which
    it lacks path-based evidence."

    Legitimate traffic carries a compiled policy and accumulates hop
    records; attack traffic (spoofed, from an off-path bot) carries
    none. The egress switch gates on evidence exactly when
    ``under_attack`` is set.
    """
    sim, chain = _ipv4_chain(2, CompositionMode.CHAINED)
    dst, switches = chain.dst, chain.switches
    # The attacker injects directly into s2 through an extra port.
    sim.topology.add_node("h-bot", kind="host")
    sim.topology.add_link("s2", 4, "h-bot", 1)
    bot = Host("h-bot", mac=0x66, ip=ip_to_int("10.6.6.6"))
    sim.bind(bot)

    anchors = KeyRegistry()
    for switch in switches:
        anchors.register_pair(switch.keys)

    if under_attack:
        egress = switches[-1]

        def gate(ctx, records) -> bool:
            # Authorization tag: at least one verifiable upstream record
            # (one record per call: the scan stops at the first good one).
            return any(
                verify_record_batch(anchors, [record])[0] for record in records
            )

        egress.evidence_gate = gate

    _, shim = chain.ap1()
    for index in range(legit_packets):
        sim.schedule(index * 1e-3, lambda seq=index: chain.send(
            shim, b"L" + seq.to_bytes(4, "big"), 2000, 80
        ))
    for index in range(attack_packets):
        # Attack traffic spoofs the shim (stolen policy bytes) but has
        # no attesting upstream hops, so it carries no valid records.
        sim.schedule(index * 0.3e-3, lambda seq=index: bot.send_udp(
            dst_mac=dst.mac, dst_ip=dst.ip, src_port=6666, dst_port=80,
            payload=b"A" + seq.to_bytes(4, "big"), ra_shim=shim,
        ))
    sim.run()
    legit = [p for p in dst.received_packets if p.payload.startswith(b"L")]
    attack = [p for p in dst.received_packets if p.payload.startswith(b"A")]
    return DdosResult(
        legit_sent=legit_packets,
        legit_delivered=len(legit),
        attack_sent=attack_packets,
        attack_delivered=len(attack),
        gated_drops=sum(s.ra_stats.gated_drops for s in switches),
    )


# --- UC4: evidence as documentation (audit trail) --------------------------------


@dataclass
class AuditTrailResult:
    matches: int
    log_root: bytes
    proofs_verify: bool
    verdict_accepted: bool
    #: Attested findings that never reached the collector (lost control
    #: messages) — a court-order log must know its own gaps.
    findings_lost: int = 0


def run_audit_trail(c2_flows: int = 3, benign_flows: int = 5) -> AuditTrailResult:
    """UC4: a scanner switch fingerprints C2 traffic; each finding is
    attested out-of-band and committed into a Merkle audit log whose
    inclusion proofs can later back a court-order application.
    """
    topo = Topology()
    topo.add_node("h-in", kind="host")
    topo.add_node("h-out", kind="host")
    topo.add_node("scanner")
    topo.add_node("collector", kind="host")
    topo.add_link("h-in", 1, "scanner", 1)
    topo.add_link("scanner", 2, "h-out", 1)
    topo.add_link("scanner", 3, "collector", 1)
    sim = Simulator(topo)
    h_in = Host("h-in", mac=1, ip=ip_to_int("10.0.0.1"))
    h_out = Host("h-out", mac=2, ip=ip_to_int("10.0.1.1"))
    collector = Host("collector", mac=3, ip=ip_to_int("10.0.2.1"))
    switch = NetworkAwarePeraSwitch(
        "scanner",
        config=EvidenceConfig(detail=DetailLevel.MINIMAL),
        appraiser_node="collector",
        out_of_band=True,
    )
    for node in (h_in, h_out, collector):
        sim.bind(node)
    sim.bind(switch)
    bring_up(switch, scanner_program())
    switch.pipeline.add_counter(Counter("c2_hits", size=16))
    forward_prefix(switch)
    # C2 fingerprint: destination 10.66.0.0/16, UDP port 4444.
    switch.runtime.write("ctl", TableEntry(
        table="c2_patterns",
        keys=(
            MatchKey(MatchKind.TERNARY, ip_to_int("10.66.0.0"), mask=0xFFFF0000),
            MatchKey(MatchKind.TERNARY, 4444, mask=0xFFFF),
        ),
        action="count_and_punt", params=(0,), priority=5,
    ))
    forward_prefix(switch, "10.66.0.0")

    # The scanner attests each punted match out of band (UC4-A).
    matches: List[bytes] = []

    def on_cpu(ctx):
        matches.append(bytes(ctx.payload))
        switch.attest(ctx)

    switch.handle_cpu_packet = on_cpu

    for index in range(c2_flows):
        sim.schedule(index * 1e-3, lambda seq=index: h_in.send_udp(
            dst_mac=9, dst_ip=ip_to_int("10.66.0.5"), src_port=3000,
            dst_port=4444, payload=b"beacon" + bytes([seq]),
        ))
    for index in range(benign_flows):
        sim.schedule(index * 1e-3, lambda seq=index: h_in.send_udp(
            dst_mac=h_out.mac, dst_ip=h_out.ip, src_port=3000,
            dst_port=80, payload=b"web" + bytes([seq]),
        ))
    sim.run()

    # The collector commits the attested findings into a Merkle log.
    records = [message for _, _, message in collector.control_received]
    leaves = [encode_hop_body(record) for record in records] or [b"empty"]
    tree = MerkleTree(leaves)
    proofs_verify = all(
        tree.prove(i).verify(leaf, tree.root) for i, leaf in enumerate(leaves)
    )
    anchors = KeyRegistry()
    anchors.register_pair(switch.keys)
    verdicts = verify_record_batch(anchors, records)
    return AuditTrailResult(
        matches=len(matches),
        log_root=tree.root,
        proofs_verify=proofs_verify,
        verdict_accepted=bool(verdicts) and all(verdicts),
        # No retry policy: every refused send is one give-up.
        findings_lost=switch.ra_stats.oob_gave_up,
    )


# --- UC5 (continued): compliance via trusted redaction ----------------------------


@dataclass
class ComplianceResult:
    total_hops: int
    disclosed_hops: int
    officer_failures: List[str]
    hidden_places_leaked: bool

    @property
    def compliant(self) -> bool:
        return not self.officer_failures


def run_compliance_redaction(
    switch_count: int = 5, disclose: Tuple[int, ...] = (0, 4)
) -> ComplianceResult:
    """UC5's redaction story: "path evidence could be processed to
    redact details sensitive to the enterprise customer before giving
    the redacted evidence to a compliance officer."

    Traffic crosses ``switch_count`` attesting hops inside the cloud;
    the enterprise discloses only the ingress and egress hops to the
    officer, with a signed Merkle commitment to the full set. The
    officer verifies everything disclosed — and learns nothing about
    the hidden hops beyond their count.
    """
    sim, chain = _ipv4_chain(switch_count, CompositionMode.POINTWISE)
    switches = chain.switches
    _, shim = chain.ap1(CompositionMode.POINTWISE)
    packet = chain.probe(sim, shim, b"regulated-workload", 9000, 443)
    records = decode_record_stack(packet.ra_shim.body)

    enterprise = KeyRegistry()
    holder = KeyPair.generate("enterprise")
    enterprise.register_pair(holder)
    switch_anchors = KeyRegistry()
    for switch in switches:
        switch_anchors.register_pair(switch.keys)

    bundle = redact(records, list(disclose), holder)
    failures = bundle.verify(enterprise, switch_anchors)
    disclosed_places = {d.record.place for d in bundle.disclosed}
    hidden = {s.name for s in switches} - {
        records[i].place for i in disclose
    }
    leaked = bool(disclosed_places & hidden)
    return ComplianceResult(
        total_hops=bundle.total_records,
        disclosed_hops=len(bundle.disclosed),
        officer_failures=failures,
        hidden_places_leaked=leaked,
    )


# --- UC5: cross-referenced host + network attestation -----------------------------


@dataclass
class CrossReferencedResult:
    host_evidence_ok: bool
    path_verdict: PathVerdict
    flow_allowed: bool


def run_cross_referenced(
    verified_tls: bool = True, switch_count: int = 2
) -> CrossReferencedResult:
    """UC5: "TLS packets that were produced by a verified implementation
    could be allowed to leave the network, while packets produced by
    un-verified implementations are blocked."

    Host-based Copland evidence attests the sender's TLS stack; the
    network's path evidence attests the forwarding path. The egress
    decision requires both.
    """
    # Host side: a Copland VM measuring the TLS stack component.
    vm = CoplandVM()
    vm.register(Place("gateway"))
    host_place = vm.register(Place("sender"))
    host_place.install_component("tls", b"verified-tls-1.3-build")
    if not verified_tls:
        host_place.corrupt_component("tls", b"openssl-custom-fork")
    evidence = vm.execute(parse_phrase("@sender [rot sender tls -> !]"),
                          at_place="gateway")
    golden = digest(b"verified-tls-1.3-build", domain="component-measurement")
    host_anchors = KeyRegistry()
    host_anchors.register_pair(host_place.keypair)
    measurement = evidence.find_measurements()[0]
    signature_ok = host_anchors.verify(
        "sender", evidence.signed_payload(), evidence.signature
    )
    host_ok = signature_ok and measurement.value == golden

    # Network side: AP1-style path attestation.
    sim, chain = _ipv4_chain(switch_count, CompositionMode.CHAINED)
    policy, shim = chain.ap1()
    path_verdict = chain.appraiser().appraise_packet(
        chain.probe(sim, shim, b"tls-client-hello", 5000, 443),
        compiled=policy,
    )
    return CrossReferencedResult(
        host_evidence_ok=host_ok,
        path_verdict=path_verdict,
        flow_allowed=host_ok and path_verdict.accepted,
    )
