"""The fat-tree attested-traffic campaign.

A k-ary fat-tree of *attesting* switches (``MultipathFabricSwitch``)
carries a seeded flow-level workload: elephant/mice and web mixes in
the fast forwarding path, plus a handful of attested flows whose
packets ride compiled AP1 path policies through the full PISA+PERA
pipeline. ECMP (or flowlet) selection spreads bulk traffic over the
equal-cost uplink sets; attested traffic always selects statelessly,
so the control plane can predict, and compile a policy for, the exact
path. Optional knobs add congestion (queues, ECN, PFC, incast), a
corrupting hop masked by link-local recovery, epoch-batched evidence
and a rogue-program swap.

The campaign is one :class:`~repro.net.shardrun.ScenarioSpec`
(:func:`fabric_traffic_spec`) run by :func:`run_fabric_traffic`; any
shard count and backend reproduces the 1-shard run byte for byte, and
the run-signature goldens in ``tests/core/test_run_signatures.py`` pin
it clean, congested and under link chaos. The performance ledger's
``fabric_*`` workloads and ``benchmarks/bench_shard_scaling.py`` run
it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.appraisal import PathAppraisalPolicy, PathAppraiser
from repro.core.compiler import compile_policy_for_path
from repro.core.fleet import bring_up, policy_shim
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.evidence.nodes import HopEvidence
from repro.faults import FaultInjector, FaultPlan
from repro.net.controller import RoutingController
from repro.net.headers import IPPROTO_UDP, RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.routing import (
    EcmpSelector,
    FlowletTable,
    RoutingMode,
    all_pairs_next_hops,
    predict_multipath_path,
)
from repro.net.shardrun import ScenarioSpec, ShardedResult, run_sharded
from repro.telemetry.health import (
    AbsenceRule,
    HealthReport,
    ImbalanceRule,
    LevelRule,
    ThresholdRule,
    run_health_pass,
)
from repro.telemetry.timeseries import SamplingSpec
from repro.net.qdisc import QueueConfig
from repro.net.topology import Topology, fat_tree
from repro.pera.config import (
    BatchingSpec,
    CompositionMode,
    DetailLevel,
    EvidenceConfig,
)
from repro.pera.inertia import InertiaClass
from repro.pera.records import verify_record_batch
from repro.pisa.programs import fabric_multipath_program, fabric_rogue_program
from repro.util.ids import spawn_seed
from repro.workload.flows import (
    FlowEngine,
    FlowSink,
    FlowSpec,
    decode_flow_payload,
    flow_completion_times,
)
from repro.workload.mixes import (
    elephant_mice_mix,
    incast_mix,
    web_session_mix,
)

_ATTESTED_FLOW_BASE = 1_000_000
_WEB_FLOW_BASE = 500_000
#: The appraiser place named by the AP1 policy — the out-of-band
#: collector host must carry exactly this node name.
_COLLECTOR = "Appraiser"


@dataclass(frozen=True)
class FatTreeShape:
    """Dimensions of one fat-tree attested-traffic campaign.

    ``bulk_flows``/``web_sessions`` size the untraced fast-path load;
    ``attested_flows`` ride compiled AP1 path policies, the last
    ``ceil(oob_fraction * attested_flows)`` of them diverting evidence
    out-of-band to the collector (all of them when ``batching`` is
    set, so no packet ever parks awaiting an epoch seal).
    ``compromise_at_s`` arms an Athens-style rogue-program swap on the
    first attested flow's ingress edge switch.

    Congestion knobs (docs/CONGESTION.md): ``queue`` installs the
    given :class:`~repro.net.qdisc.QueueConfig` on every fat-tree link
    (finite buffers, ECN/PFC, optional link-local recovery);
    ``incast_fan_in`` adds a synchronized fan-in of that many senders
    from other pods onto the first pod-0 host; ``corrupt_link_rate``
    arms a corruption fault on the first attested flow's edge→agg hop,
    which ``queue.recovery`` then masks with local retransmits.
    """

    k: int = 4
    hosts_per_edge: Optional[int] = None
    bulk_flows: int = 60
    web_sessions: int = 8
    attested_flows: int = 4
    attested_packets: int = 6
    attested_gap_s: float = 4e-6
    oob_fraction: float = 0.5
    mice_fraction: float = 0.9
    mice_packets: Tuple[int, int] = (1, 8)
    elephant_packets: Tuple[int, int] = (32, 128)
    payload_bytes: int = 64
    gap_s: float = 2e-6
    arrival_rate_per_s: float = 400_000.0
    routing: RoutingMode = RoutingMode.ECMP
    flowlet_idle_gap_s: float = 20e-6
    flowlet_n_packets: int = 0
    batching: Optional[BatchingSpec] = None
    compromise_at_s: Optional[float] = None
    queue: Optional[QueueConfig] = None
    incast_fan_in: int = 0
    incast_packets: int = 32
    incast_payload_bytes: int = 256
    incast_gap_s: float = 1e-6
    incast_start_s: float = 2e-6
    corrupt_link_rate: float = 0.0

    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def hosts_per_edge_effective(self) -> int:
        return self.half if self.hosts_per_edge is None else self.hosts_per_edge

    @property
    def switch_count(self) -> int:
        return self.k * self.k + self.half * self.half

    @property
    def host_count(self) -> int:
        return self.k * self.half * self.hosts_per_edge_effective


def _fat_tree_hosts(shape: FatTreeShape) -> List[Tuple[str, str]]:
    """``(edge switch, host name)`` pairs, in :func:`fat_tree` order."""
    half = shape.half
    pw = max(2, len(str(shape.k - 1)))
    sw = max(2, len(str(half - 1)))
    pairs: List[Tuple[str, str]] = []
    for pod in range(shape.k):
        for ei in range(half):
            edge = f"p{pod:0{pw}d}e{ei:0{sw}d}"
            for j in range(shape.hosts_per_edge_effective):
                pairs.append((edge, f"h-{edge}-{j}"))
    return pairs


class MultipathFabricSwitch(NetworkAwarePeraSwitch):
    """An attesting fabric switch with an O(1) multipath fast path.

    Packets without an RA shim skip the PISA pipeline entirely: the
    precomputed ``dst ip -> equal-cost port set`` map plus a seeded
    :class:`~repro.net.routing.EcmpSelector` (or
    :class:`~repro.net.routing.FlowletTable`) forward them in constant
    time, which is what lets a million-packet campaign finish. Packets
    carrying a compiled policy take the full
    :class:`NetworkAwarePeraSwitch` path — their pipeline's ECMP
    groups resolve through :meth:`_select_pipeline_member`, always
    stateless, so the control plane can predict the exact path a
    policy-carrying flow takes.
    """

    def __init__(
        self,
        name: str,
        members_by_dst_ip: Dict[int, Tuple[int, ...]],
        mode: RoutingMode = RoutingMode.ECMP,
        select_seed: int = 0,
        flowlet_idle_gap_s: float = 50e-6,
        flowlet_n_packets: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        self.members_by_dst_ip = members_by_dst_ip
        self.mode = mode
        self.select_seed = select_seed
        self.ecmp = EcmpSelector(select_seed)
        self.flowlets = FlowletTable(
            select_seed,
            idle_gap_s=flowlet_idle_gap_s,
            flowlet_n_packets=flowlet_n_packets,
        )
        self.packets_forwarded = 0
        self.packets_dropped_unroutable = 0
        #: Egress counts for multi-member picks only — the ECMP
        #: load-balance metric, fast path and pipeline path combined.
        self.tx_by_port: Dict[int, int] = {}
        self.runtime.change_observers.append(self._install_member_selector)

    def _install_member_selector(self, kind: str) -> None:
        # A program install replaces the pipeline object (and with it
        # any group state); re-arm the selector hook so attested
        # traffic keeps resolving ECMP groups after a swap.
        if kind == "config" and self.runtime.pipeline is not None:
            self.runtime.pipeline.member_selector = self._select_pipeline_member

    def _select_pipeline_member(self, members, ctx) -> int:
        fields = ctx.fields
        key = (
            fields.get("ipv4.src"),
            fields.get("ipv4.dst"),
            fields.get("ipv4.protocol"),
            fields.get("udp.src_port", fields.get("tcp.src_port")),
            fields.get("udp.dst_port", fields.get("tcp.dst_port")),
        )
        port = self.ecmp.pick(members, key)
        self.tx_by_port[port] = self.tx_by_port.get(port, 0) + 1
        return port

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        if packet.ra_shim is not None:
            super().handle_packet(packet, in_port)
            return
        ipv4 = packet.ipv4
        members = (
            None if ipv4 is None else self.members_by_dst_ip.get(ipv4.dst)
        )
        if not members:
            self.packets_dropped_unroutable += 1
            return
        if len(members) == 1:
            port = members[0]
        else:
            if self.mode is RoutingMode.FLOWLET:
                port = self.flowlets.pick(
                    members,
                    packet.five_tuple,
                    self.sim.clock.now,
                    congested=packet.ecn,
                )
            else:
                port = self.ecmp.pick(members, packet.five_tuple)
            self.tx_by_port[port] = self.tx_by_port.get(port, 0) + 1
        self.packets_forwarded += 1
        self.sim.transmit(self.name, port, packet)


def _fabric_traffic_topology(shape: FatTreeShape) -> Topology:
    """The campaign fabric: a fat-tree plus the out-of-band collector.

    The collector hangs off the first core switch on its first free
    port; it only ever receives control-plane messages, so it needs no
    routes — just a bound place for diverted evidence to land.
    """
    topo = fat_tree(shape.k, shape.hosts_per_edge)
    if shape.queue is not None:
        # Queues go on every fabric link but not the collector tap,
        # which only ever carries control-plane messages.
        topo.configure_queues(shape.queue)
    cw = max(2, len(str(shape.half * shape.half - 1)))
    core0 = f"zcore{0:0{cw}d}"
    topo.add_node(_COLLECTOR, kind="host")
    topo.add_link(core0, shape.k + 1, _COLLECTOR, 1, 1e-6)
    return topo


def _select_seed_for(base_seed: int, switch: str) -> int:
    return spawn_seed(base_seed, "fabric.select", switch)


def _attested_flow_specs(shape: FatTreeShape) -> List[FlowSpec]:
    """Deterministic cross-fabric attested flows (no RNG needed).

    Flow ``i`` runs from host ``i`` to the host half the fabric away —
    cross-pod for every small ``i`` — with a prime-ish start stagger
    that cannot collide with the packet gap (no two packets of any two
    attested flows share a timestamp).
    """
    names = [host for _, host in _fat_tree_hosts(shape)]
    specs: List[FlowSpec] = []
    for i in range(shape.attested_flows):
        src = names[i % len(names)]
        dst = names[(i + len(names) // 2) % len(names)]
        specs.append(FlowSpec(
            flow_id=_ATTESTED_FLOW_BASE + i,
            src=src,
            dst=dst,
            src_port=52000 + i,
            dst_port=4433,
            packets=shape.attested_packets,
            payload_bytes=shape.payload_bytes,
            start_s=3e-6 + i * 1.9e-7,
            gap_s=shape.attested_gap_s,
            kind="attested",
            attested=True,
        ))
    return specs


def _incast_endpoints(shape: FatTreeShape) -> Tuple[str, List[str]]:
    """``(target, senders)`` for the incast burst.

    The target is the first pod-0 host; senders come from *other*
    pods, so the fan-in converges through the core tier onto one edge
    downlink — backpressure then climbs edge→agg→core and any PFC
    pause frames cross the pod–core shard cut.
    """
    names = [host for _, host in _fat_tree_hosts(shape)]
    per_pod = shape.half * shape.hosts_per_edge_effective
    remote = names[per_pod:]
    if shape.incast_fan_in > len(remote):
        raise ValueError(
            f"incast_fan_in {shape.incast_fan_in} exceeds the "
            f"{len(remote)} hosts outside pod 0"
        )
    return names[0], remote[: shape.incast_fan_in]


def _campaign_flows(shape: FatTreeShape, seed: int) -> List[FlowSpec]:
    """Every flow of the campaign — a pure function of (shape, seed).

    Both the scenario build and the result assembly call this, so the
    parent process never needs to ship flow specs across the
    multiprocessing boundary to compute completion times.
    """
    names = [host for _, host in _fat_tree_hosts(shape)]
    flows: List[FlowSpec] = []
    if shape.bulk_flows:
        flows.extend(elephant_mice_mix(
            names,
            seed=spawn_seed(seed, "fabric.bulk"),
            flows=shape.bulk_flows,
            mice_fraction=shape.mice_fraction,
            mice_packets=shape.mice_packets,
            elephant_packets=shape.elephant_packets,
            payload_bytes=shape.payload_bytes,
            gap_s=shape.gap_s,
            arrival_rate_per_s=shape.arrival_rate_per_s,
            t0=2e-6,
        ))
    if shape.web_sessions:
        flows.extend(web_session_mix(
            names,
            seed=spawn_seed(seed, "fabric.web"),
            sessions=shape.web_sessions,
            payload_bytes=shape.payload_bytes,
            gap_s=shape.gap_s,
            arrival_rate_per_s=shape.arrival_rate_per_s,
            first_flow_id=_WEB_FLOW_BASE,
            t0=4e-6,
        ))
    if shape.incast_fan_in:
        target, senders = _incast_endpoints(shape)
        flows.extend(incast_mix(
            senders,
            target,
            seed=spawn_seed(seed, "fabric.incast"),
            packets=shape.incast_packets,
            payload_bytes=shape.incast_payload_bytes,
            gap_s=shape.incast_gap_s,
            start_s=shape.incast_start_s,
        ))
    flows.extend(_attested_flow_specs(shape))
    return flows


def _oob_flow_count(shape: FatTreeShape) -> int:
    if shape.batching is not None:
        # In-band + batching would park packets until the epoch seals;
        # the campaign keeps delivery times workload-defined by sending
        # every batched record out-of-band instead.
        return shape.attested_flows
    return int(round(shape.attested_flows * shape.oob_fraction))


def _fabric_traffic_build(sim, shape: FatTreeShape):
    """Bind the attested fat-tree and schedule the full campaign.

    Runs identically on every shard (full-world build); ownership
    gates single out who transmits, and all randomness is keyed off
    ``sim.seed`` — never off call order — so any shard count replays
    the same campaign.
    """
    base_seed = sim.seed
    pairs = _fat_tree_hosts(shape)
    names = [host for _, host in pairs]
    ip_of = {
        name: ip_to_int(f"10.{i // 250}.{i % 250}.1")
        for i, name in enumerate(names)
    }
    # One routing table for both forwarding planes: the fast path's
    # ``dst ip -> equal-cost port set`` maps and, below, the routes
    # installed for the attested destinations.
    next_hops = all_pairs_next_hops(sim.topology, names)
    members: Dict[str, Dict[int, Tuple[int, ...]]] = {
        name: {} for name in sim.topology.nodes_of_kind("switch")
    }
    for (node, host), ports in next_hops.items():
        if node in members:  # the table also has host and collector rows
            members[node][ip_of[host]] = ports

    config = EvidenceConfig(
        detail=DetailLevel.MINIMAL,
        composition=CompositionMode.CHAINED,
        batching=shape.batching,
    )
    switches: Dict[str, MultipathFabricSwitch] = {}
    for switch_name in sorted(members):
        switch = MultipathFabricSwitch(
            switch_name,
            members[switch_name],
            mode=shape.routing,
            select_seed=_select_seed_for(base_seed, switch_name),
            flowlet_idle_gap_s=shape.flowlet_idle_gap_s,
            flowlet_n_packets=shape.flowlet_n_packets,
            config=config,
        )
        sim.bind(switch)
        switches[switch_name] = switch

    sinks: Dict[str, FlowSink] = {}
    for index, name in enumerate(names):
        sink = FlowSink(name, mac=index + 1, ip=ip_of[name])
        sim.bind(sink)
        sinks[name] = sink
    collector = Host(
        _COLLECTOR, mac=len(names) + 1, ip=ip_to_int("10.255.0.1")
    )
    sim.bind(collector)

    # Control plane: one shared vetted program everywhere, then ECMP
    # groups + /32 entries for the attested destinations (bulk traffic
    # never consults the pipeline).
    genuine = fabric_multipath_program()
    for switch_name in sorted(switches):
        bring_up(switches[switch_name], genuine)
    attested_specs = _attested_flow_specs(shape)
    attested_dsts = sorted(
        {(spec.dst, ip_of[spec.dst]) for spec in attested_specs}
    )
    controller = RoutingController(sim, name="ctl")
    controller.install_multipath_routes(
        destinations=attested_dsts, next_hops=next_hops
    )

    # Compile one AP1 path policy per attested flow over the exact
    # path its stateless ECMP picks will take.
    def selector_for(node: str) -> EcmpSelector:
        return EcmpSelector(_select_seed_for(base_seed, node))

    oob_from = shape.attested_flows - _oob_flow_count(shape)
    shims: Dict[int, RaShimHeader] = {}
    attested: Dict[int, Dict[str, object]] = {}
    for i, spec in enumerate(attested_specs):
        flow_key = (
            ip_of[spec.src], ip_of[spec.dst], IPPROTO_UDP,
            spec.src_port, spec.dst_port,
        )
        path = predict_multipath_path(
            sim.topology, next_hops, spec.src, spec.dst, flow_key,
            selector_for,
        )
        oob = i >= oob_from
        policy = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=path,
            bindings={"client": spec.dst},
            composition=CompositionMode.CHAINED,
            out_of_band=oob,
        )
        shims[spec.flow_id] = policy_shim(policy)
        attested[spec.flow_id] = {
            "spec": spec, "policy": policy, "oob": oob, "path": path,
        }

    # The relying party's appraiser: every switch anchored with the
    # genuine program as its reference measurement.
    appraiser = PathAppraiser(
        _COLLECTOR,
        PathAppraisalPolicy.for_fleet(
            [switches[name] for name in sorted(switches)], genuine
        ),
        telemetry=sim.telemetry,
    )

    engine = FlowEngine(sim, sinks, shim_for=lambda f: shims.get(f.flow_id))
    engine.launch(_campaign_flows(shape, base_seed))

    # A lossy hop on the first attested flow's edge→agg link: with
    # ``shape.queue.recovery`` armed the qdisc masks the corruption
    # with local retransmits and the appraiser never sees a gap.
    injector = None
    if shape.corrupt_link_rate > 0.0 and attested:
        first_path = attested[min(attested)]["path"]
        plan = FaultPlan(seed=spawn_seed(base_seed, "fabric.corrupt"))
        plan.corrupt_packets(
            0.0, first_path[1], first_path[2],
            rate=shape.corrupt_link_rate,
        )
        injector = FaultInjector(plan)
        injector.attach(sim)

    victim = None
    if shape.compromise_at_s is not None and attested:
        first = attested[min(attested)]
        victim = first["path"][1]  # the flow's ingress edge switch

        def _swap(
            switch=switches[victim],
            ctl=controller,
            dsts=attested_dsts,
            nh=next_hops,
        ):
            bring_up(switch, fabric_rogue_program(), "attacker", 99)
            # Keep traffic flowing: the attacker restores the victim's
            # groups and routes (ids match — same sorted destination
            # list), so only the measurement betrays the swap.
            ctl._install_multipath_on(
                switch, dsts, nh, "ipv4_lpm", "attacker"
            )
            switch.notify_state_change(InertiaClass.PROGRAM)

        sim.schedule_on(victim, shape.compromise_at_s, _swap)

    return {
        "shape": shape,
        "switches": switches,
        "sinks": sinks,
        "collector": collector,
        "engine": engine,
        "attested": attested,
        "appraiser": appraiser,
        "injector": injector,
        "victim": victim,
    }


def _fabric_traffic_drain(sim, ctx) -> None:
    """Seal any epoch still open when the run stops (batched shapes)."""
    for name in sorted(ctx["switches"]):
        if sim.owns(name):
            ctx["switches"][name].flush_epochs()


def _fabric_traffic_harvest(sim, ctx):
    """Per-shard results: counters from owned nodes only, appraisal at
    each attested flow's destination owner — exactly one shard speaks
    for every number, so the merged sums are shard-count-invariant."""
    forwarded = 0
    unroutable = 0
    attested_hops = 0
    epochs_sealed = 0
    congestion_repicks = 0
    tx_by_port: Dict[str, Dict[int, int]] = {}
    for name in sorted(ctx["switches"]):
        if not sim.owns(name):
            continue
        switch = ctx["switches"][name]
        forwarded += switch.packets_forwarded
        unroutable += switch.packets_dropped_unroutable
        attested_hops += switch.ra_stats.packets_attested
        epochs_sealed += switch.ra_stats.epochs_sealed
        congestion_repicks += switch.flowlets.congestion_repicks
        if switch.tx_by_port:
            tx_by_port[name] = {
                port: switch.tx_by_port[port]
                for port in sorted(switch.tx_by_port)
            }

    arrivals: Dict[int, List[float]] = {}
    ecn_delivered = 0
    for name in sorted(ctx["sinks"]):
        if not sim.owns(name):
            continue
        sink = ctx["sinks"][name]
        for flow_id, record in sink.flow_arrivals.items():
            arrivals[flow_id] = list(record)
        ecn_delivered += sink.ecn_marked

    # Every in-band packet of every flow this shard appraises joins one
    # queue: one verification flush for the whole harvest.
    queue = []
    queued_flows: List[int] = []
    verdicts: Dict[int, List[int]] = {}
    for flow_id in sorted(ctx["attested"]):
        info = ctx["attested"][flow_id]
        spec: FlowSpec = info["spec"]
        if info["oob"] or not sim.owns(spec.dst):
            continue
        verdicts[flow_id] = [0, 0]
        for packet in ctx["sinks"][spec.dst].received_packets:
            decoded = decode_flow_payload(packet.payload)
            if decoded is None or decoded[0] != flow_id:
                continue
            queue.append((packet, info["policy"]))
            queued_flows.append(flow_id)
    appraiser: PathAppraiser = ctx["appraiser"]
    for flow_id, verdict in zip(queued_flows, appraiser.appraise_packets(queue)):
        verdicts[flow_id][0 if verdict.accepted else 1] += 1

    oob_records = 0
    oob_verified = 0
    if sim.owns(_COLLECTOR):
        anchors = ctx["appraiser"].policy.anchors
        # One batched multi-scalar check over the whole out-of-band
        # stream instead of one Ed25519 verification per record.
        collected = [
            message
            for _, _sender, message in ctx["collector"].control_received
            if isinstance(message, HopEvidence)
        ]
        oob_records = len(collected)
        oob_verified = sum(verify_record_batch(anchors, collected))

    return {
        "forwarded": forwarded,
        "unroutable": unroutable,
        "attested_hops": attested_hops,
        "epochs_sealed": epochs_sealed,
        "congestion_repicks": congestion_repicks,
        "ecn_delivered": ecn_delivered,
        "tx_by_port": tx_by_port,
        "arrivals": arrivals,
        "verdicts": verdicts,
        "oob_records": oob_records,
        "oob_verified": oob_verified,
        "victim": (
            ctx["victim"] if getattr(sim, "shard_id", 0) == 0 else None
        ),
    }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 < q <= 1)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: The fabric flight-recorder cadence: 50µs windows, so the ~0.5ms
#: campaign yields a dozen-plus frames and the ECMP spread is visible
#: while flows are still in flight.
FABRIC_SAMPLE_INTERVAL_S = 50e-6


def fabric_sampling_spec() -> SamplingSpec:
    """The default flight-recorder spec for fabric campaigns."""
    return SamplingSpec(interval_s=FABRIC_SAMPLE_INTERVAL_S)


def standard_fabric_rules(
    queue_depth_bytes: float = 16384.0,
    pause_frames_per_window: float = 4.0,
) -> List[object]:
    """Health rules for the fat-tree campaign: load, loss, liveness.

    - ``fabric-drops``: the fabric is lossless by construction, so any
      dataplane drop is an alert.
    - ``ecmp-imbalance``: per-switch max/mean over cumulative egress
      link counts; the bound is loose (edge switches mix multipath
      uplinks with single-host downlinks) but catches a wedged
      selector sending everything one way.
    - ``epoch-stall``: arms on the first sealed epoch and raises if
      sealing goes silent for three windows mid-run (batched shapes
      only — unbatched runs never arm it).
    - ``queue-depth``: worst single egress queue occupancy (the
      probe-sampled ``net.qdisc.depth_bytes`` level) above
      ``queue_depth_bytes`` — sustained buffer buildup, the incast
      signature. Queue-less campaigns emit no such series, so the rule
      stays silent.
    - ``pause-storm``: more than ``pause_frames_per_window`` PFC pause
      frames in one window — backpressure has spread beyond the hot
      queue and is freezing upstream ports.
    """
    return [
        ThresholdRule(name="fabric-drops", metric="net.link.dropped"),
        ImbalanceRule(
            name="ecmp-imbalance",
            metric="net.link.tx_packets",
            bound=8.0,
            min_total=256.0,
        ),
        AbsenceRule(
            name="epoch-stall",
            metric="pera.epoch_sealed_events",
            for_windows=3,
        ),
        LevelRule(
            name="queue-depth",
            metric="net.qdisc.depth_bytes",
            threshold=queue_depth_bytes,
            aggregate="max",
        ),
        ThresholdRule(
            name="pause-storm",
            metric="net.qdisc.pause_frames",
            threshold=pause_frames_per_window,
        ),
    ]


@dataclass
class FabricTrafficResult:
    """Merged outcome of one fat-tree attested-traffic campaign."""

    shape: FatTreeShape
    forwarded: int
    unroutable: int
    attested_hops: int
    epochs_sealed: int
    oob_records: int
    oob_verified: int
    fct_s: Dict[int, float]
    verdicts: Dict[int, Tuple[int, int]]
    tx_by_port: Dict[str, Dict[int, int]]
    #: Congestion evidence (queue-enabled shapes): ECN-marked packets
    #: that reached a sink, and flowlet boundaries the signal forced.
    ecn_delivered: int = 0
    congestion_repicks: int = 0
    victim: Optional[str] = None
    #: The merged runner output, flight-recorder frames included
    #: (always set by :func:`run_fabric_traffic`).
    result: Optional[ShardedResult] = None
    sampling: Optional[SamplingSpec] = None
    #: Health evaluation over the frames (``health=`` runs only).
    health: Optional[HealthReport] = None

    @property
    def frames(self) -> List[Dict[str, object]]:
        """Flight-recorder output (``sampling=`` runs only): canonical
        merged frames, byte-identical across shard counts."""
        return self.result.frames

    def fct_percentiles(
        self, qs: Tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        """Completion-time percentiles (seconds) over completed flows.

        Labels keep fractional percentiles distinct: ``0.999`` renders
        as ``"p99.9"``, not a second ``"p99"``.
        """
        values = sorted(self.fct_s.values())
        return {f"p{100 * q:g}": _percentile(values, q) for q in qs}

    def ecmp_imbalance(self, min_samples: int = 64) -> float:
        """Worst per-switch max/mean ratio over multipath egress counts.

        1.0 is a perfect spread; switches with fewer than
        ``min_samples`` multipath picks are skipped (a handful of
        flowlets on a quiet switch is noise, not imbalance).
        """
        worst = 1.0
        for counts in self.tx_by_port.values():
            total = sum(counts.values())
            if total < min_samples or not counts:
                continue
            mean = total / len(counts)
            worst = max(worst, max(counts.values()) / mean)
        return worst

    @property
    def verdict_counts(self) -> Tuple[int, int]:
        """(accepted, rejected) summed over in-band attested flows."""
        accepted = sum(a for a, _ in self.verdicts.values())
        rejected = sum(r for _, r in self.verdicts.values())
        return accepted, rejected


def fabric_traffic_spec(
    shape: FatTreeShape, sampling: Optional[SamplingSpec] = None
) -> ScenarioSpec:
    """The campaign as a runner-ready :class:`ScenarioSpec`."""
    return ScenarioSpec(
        topology=partial(_fabric_traffic_topology, shape),
        build=partial(_fabric_traffic_build, shape=shape),
        harvest=_fabric_traffic_harvest,
        drain=_fabric_traffic_drain,
        sampling=sampling,
    )


def _assemble_traffic_result(
    shape: FatTreeShape,
    seed: int,
    result: ShardedResult,
    sampling: Optional[SamplingSpec],
    health: Optional[HealthReport],
) -> FabricTrafficResult:
    outputs = result.outputs
    arrivals: Dict[int, List[float]] = {}
    verdicts: Dict[int, Tuple[int, int]] = {}
    tx_by_port: Dict[str, Dict[int, int]] = {}
    victim = None
    for out in outputs:
        arrivals.update(out["arrivals"])
        verdicts.update({
            fid: (counts[0], counts[1])
            for fid, counts in out["verdicts"].items()
        })
        tx_by_port.update(out["tx_by_port"])
        victim = victim or out["victim"]
    fct = flow_completion_times(_campaign_flows(shape, seed), arrivals)
    return FabricTrafficResult(
        shape=shape,
        forwarded=sum(out["forwarded"] for out in outputs),
        unroutable=sum(out["unroutable"] for out in outputs),
        attested_hops=sum(out["attested_hops"] for out in outputs),
        epochs_sealed=sum(out["epochs_sealed"] for out in outputs),
        oob_records=sum(out["oob_records"] for out in outputs),
        oob_verified=sum(out["oob_verified"] for out in outputs),
        ecn_delivered=sum(out["ecn_delivered"] for out in outputs),
        congestion_repicks=sum(
            out["congestion_repicks"] for out in outputs
        ),
        fct_s=fct,
        verdicts=verdicts,
        tx_by_port=tx_by_port,
        victim=victim,
        result=result,
        sampling=sampling,
        health=health,
    )


def run_fabric_traffic(
    shape: Optional[FatTreeShape] = None,
    shards: int = 1,
    backend: str = "inline",
    seed: int = 0,
    telemetry_active: bool = True,
    max_events: int = 8_000_000,
    until: Optional[float] = None,
    sampling: Optional[SamplingSpec] = None,
    health: Optional[Sequence[object]] = None,
) -> FabricTrafficResult:
    """Run the attested fat-tree campaign; merged result.

    ``shards=1`` on the inline backend is the baseline every other
    shard count and backend reproduces byte for byte.

    ``sampling=`` installs a per-shard flight recorder (frames merge
    canonically, see docs/MONITORING.md); ``health=`` evaluates rules
    over the merged frames post-merge and folds the alert timeline
    into the audit journal. Passing ``health=`` alone implies the
    default :func:`fabric_sampling_spec`; it needs live telemetry (the
    recorder samples the metrics registry and the alerts land in the
    journal), so ``health=`` with ``telemetry_active=False`` is
    rejected up front.
    """
    shape = shape or FatTreeShape()
    if health is not None:
        if not telemetry_active:
            raise ValueError(
                "health= rules evaluate recorded frames and fold alerts "
                "into the audit journal; they need telemetry_active=True"
            )
        if sampling is None:
            sampling = fabric_sampling_spec()
    result = run_sharded(
        fabric_traffic_spec(shape, sampling=sampling),
        shards=shards,
        backend=backend,
        seed=seed,
        until=until,
        max_events=max_events,
        telemetry_active=telemetry_active,
    )
    return _assemble_traffic_result(
        shape, seed, result, sampling, run_health_pass(result, health)
    )


__all__ = [
    "FABRIC_SAMPLE_INTERVAL_S",
    "FabricTrafficResult",
    "FatTreeShape",
    "MultipathFabricSwitch",
    "fabric_sampling_spec",
    "fabric_traffic_spec",
    "run_fabric_traffic",
    "standard_fabric_rules",
]
