"""The six ledger workloads: inputs, the timed region, and the checks.

Every workload is closed-loop with one client: the next call into the
library is made only after the previous one returned. Inputs are a pure
function of ``(seed, scale)``; the library sees only the generated
inputs. Each :meth:`run` is one *repeat*: it times the workload's own
region(s), judges every operation it attempted, and folds everything
that repeats exactly (simulated-time statistics, verdicts, counters)
into a ``sim_signature`` — host wall-clock never enters it.

Shapes are fixed by ISSUE 11; ``tiny`` is the smoke-test scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.appraisal import (
    PathAppraisalPolicy,
    PathAppraiser,
    hardware_reference,
    program_reference,
)
from repro.core.compiler import compile_policy_for_path
from repro.core.fabric import (
    FatTreeShape,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.verify import shared_cache
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.qdisc import QueueConfig
from repro.net.routing import RoutingMode
from repro.net.simulator import Simulator
from repro.net.topology import linear_topology
from repro.pera.config import BatchingSpec, CompositionMode, EvidenceConfig
from repro.pera.inertia import InertiaClass
from repro.pera.switch import PeraSwitch
from repro.pisa.pipeline import PacketContext
from repro.pisa.programs import ipv4_forwarding_program
from repro.pisa.runtime import TableEntry
from repro.pisa.switch import PisaSwitch
from repro.pisa.tables import MatchKey, MatchKind

SCALES = ("full", "tiny")


@dataclass
class Repeat:
    """One timed repeat of a workload and everything judged about it."""

    #: Timed region name -> wall seconds.
    walls: Dict[str, float]
    #: Operation name -> how many the matching region completed.
    ops: Dict[str, int]
    attempted: int
    failures: List[str]
    signature: str
    #: Exactly repeating counts off public result fields (per-layer inputs).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Per-operation latencies in seconds, when the region yields them.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Wall seconds of the whole repeat, checks included (set by the worker).
    total_s: float = 0.0


def _sha256(parts: List[str]) -> str:
    blob = hashlib.sha256()
    for part in parts:
        blob.update(part.encode("utf-8"))
        blob.update(b"\x00")
    return blob.hexdigest()


def _metric(values: List[float], unit: str, better: str, bound: float) -> dict:
    """A native end-to-end metric: median over repeats, with its spread."""
    return {
        "value": statistics.median(values),
        "unit": unit,
        "better": better,
        "bound": bound,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def _rates(repeats: List[Repeat], region: str, op: str) -> List[float]:
    return [r.ops[op] / r.walls[region] for r in repeats]


def _nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _cache_failures(hits: int, misses: Optional[int] = None) -> List[str]:
    """Cache hygiene: the shared verify cache's counters after a region
    that started from ``shared_cache.clear()`` (or deliberately warm)."""
    stats = shared_cache.stats
    failures = []
    if stats.hits != hits:
        failures.append(f"verify cache: {stats.hits} hits, expected {hits}")
    if misses is not None and stats.misses != misses:
        failures.append(
            f"verify cache: {stats.misses} misses, expected {misses}"
        )
    return failures


class Workload:
    """What the worker drives: ``setup`` once, ``run`` per repeat,
    ``metrics`` over the repeats; ``headline`` names the native metric
    reported as ``ops_per_s``."""

    headline: str

    def setup(self, seed: int, scale: str) -> None:
        raise NotImplementedError

    def run(self) -> Repeat:
        raise NotImplementedError

    def metrics(self, repeats: List[Repeat]) -> Dict[str, dict]:
        raise NotImplementedError

    def reference(self) -> Optional[Repeat]:
        """A run whose ``sim_signature`` this workload's must equal."""
        return None

    def without_telemetry(self) -> Optional[Repeat]:
        """The same run with telemetry off, where telemetry is on."""
        return None


# --- fabric campaigns ---------------------------------------------------------------

_QUEUE = QueueConfig(
    capacity_bytes=8192,
    capacity_packets=32,
    ecn_threshold_bytes=2048,
    pause_threshold_bytes=4096,
)


class FabricWorkload(Workload):
    """One ``run_fabric_traffic`` campaign per repeat.

    ``op``/``metric`` name the headline operation and the ISSUE's
    end-to-end metric for it.
    """

    def __init__(
        self,
        shapes: Dict[str, FatTreeShape],
        op: str,
        metric: str,
        bound: float,
        **run_kwargs,
    ) -> None:
        self.shapes = shapes
        self.op = op
        self.headline = metric
        self.bound = bound
        self.run_kwargs = run_kwargs

    def setup(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.shape = self.shapes[scale]

    def run(self, **overrides) -> Repeat:
        kwargs = {**self.run_kwargs, **overrides}
        started = perf_counter()
        result = run_fabric_traffic(self.shape, seed=self.seed, **kwargs)
        wall = perf_counter() - started
        return self._judge(result, wall)

    def _judge(self, result, wall: float) -> Repeat:
        shape = self.shape
        sharded = result.result
        stats = sharded.stats
        flows = (
            shape.bulk_flows
            + 2 * shape.web_sessions  # a web session is a request + a response
            + shape.incast_fan_in
            + shape.attested_flows
        )
        failures: List[str] = []
        # A tail drop can strand at most the one flow it belonged to;
        # any other incomplete flow is a failed operation.
        incomplete = flows - len(result.fct_s) - stats.queue_drops
        if incomplete > 0:
            failures.extend(["flow never completed"] * incomplete)
        if stats.packets_dropped != stats.queue_drops:
            failures.append(
                f"{stats.packets_dropped - stats.queue_drops} drops "
                "that are not queue tail drops"
            )
        if result.unroutable:
            failures.append(f"{result.unroutable} unroutable packets")
        if result.oob_verified != result.oob_records:
            failures.extend(
                ["out-of-band record failed verification"]
                * (result.oob_records - result.oob_verified)
            )
        accepted, rejected = result.verdict_counts
        if rejected:
            failures.extend(["in-band packet rejected"] * rejected)
        # Under epoch batching every record of an epoch presents the
        # same root signature, so hits inside one cold repeat are
        # legitimate there; anywhere else a hit is a stale verdict.
        if shape.batching is None:
            failures.extend(_cache_failures(hits=0))

        fct = result.fct_percentiles((0.5, 0.99, 0.999))
        signature = _sha256([
            sharded.stats_export(),
            json.dumps(sorted(result.fct_s.values())),
            json.dumps(sorted(result.verdicts.items())),
            sharded.audit_export(),
            sharded.frames_export(),
            json.dumps([
                result.forwarded, result.attested_hops, result.epochs_sealed,
                result.oob_records, result.oob_verified, result.ecn_delivered,
                result.congestion_repicks,
            ]),
        ])
        busy = sharded.shard_busy_s
        facts = {
            "net.events": stats.events_processed,
            "net.qdisc.drops": stats.queue_drops,
            "net.qdisc.ecn_marks": stats.ecn_marked,
            "net.qdisc.pauses": stats.pause_frames,
            "net.shard.windows": sharded.windows,
            "net.shard.critical_path_s": sharded.critical_path_s,
            "net.shard.busy_sum_s": sum(busy),
            "net.sim.fct_p50_us": fct["p50"] * 1e6,
            "net.sim.fct_p99_us": fct["p99"] * 1e6,
            "net.sim.fct_p999_us": fct["p99.9"] * 1e6,
            "workload.flows": flows,
            "telemetry.audit_events": len(sharded.audit_events),
            "telemetry.frames": len(result.frames),
        }
        return Repeat(
            walls={"run": wall},
            ops={
                "forwarded": result.forwarded,
                "attested_hops": result.attested_hops,
            },
            attempted=flows + accepted + rejected + result.oob_records + 2,
            failures=failures,
            signature=signature,
            facts=facts,
        )

    def metrics(self, repeats: List[Repeat]) -> Dict[str, dict]:
        return {
            self.headline: _metric(
                _rates(repeats, "run", self.op), "1/s", "higher", self.bound
            )
        }

    def reference(self) -> Optional[Repeat]:
        """The 1-shard run a sharded campaign must be byte-identical to."""
        if self.run_kwargs["shards"] == 1:
            return None
        return self.run(shards=1, backend="inline")

    def without_telemetry(self) -> Optional[Repeat]:
        if not self.run_kwargs["telemetry_active"]:
            return None
        return self.run(telemetry_active=False, health=None)


_BULK = {
    "full": FatTreeShape(
        k=4, bulk_flows=2000, web_sessions=50, attested_flows=0,
        routing=RoutingMode.FLOWLET, flowlet_n_packets=32,
    ),
    "tiny": FatTreeShape(
        k=4, bulk_flows=40, web_sessions=4, attested_flows=0,
        routing=RoutingMode.FLOWLET, flowlet_n_packets=32,
    ),
}

_ATTESTED = {
    "full": FatTreeShape(
        k=4, bulk_flows=0, web_sessions=0, attested_flows=16,
        attested_packets=32, oob_fraction=0.5,
    ),
    "tiny": FatTreeShape(
        k=4, bulk_flows=0, web_sessions=0, attested_flows=2,
        attested_packets=2, oob_fraction=0.5,
    ),
}

_CONGESTED_FULL = FatTreeShape(
    k=4, bulk_flows=1500, web_sessions=60, attested_flows=4,
    attested_packets=6, oob_fraction=1.0,
    batching=BatchingSpec(max_records=4, max_delay_s=50e-6),
    queue=_QUEUE, incast_fan_in=8, routing=RoutingMode.FLOWLET,
)

_CONGESTED = {
    "full": _CONGESTED_FULL,
    "tiny": replace(
        _CONGESTED_FULL, bulk_flows=60, web_sessions=6, attested_flows=2,
        attested_packets=3,
    ),
}


# --- appraise_stream ------------------------------------------------------------------

_CHAIN = 5
_TAMPER_EVERY = 16


def _chain_switch(cls, name: str, **kwargs):
    switch = cls(name, **kwargs)
    switch.runtime.arbitrate("ctl", 1)
    switch.runtime.set_forwarding_pipeline_config(
        "ctl", ipv4_forwarding_program()
    )
    switch.runtime.write("ctl", TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))
    return switch


class AppraiseStream(Workload):
    """Verifier only: a kept stream of delivered packets, appraised cold
    then warm. Evidence generation (signing) is set-up, not measurement."""

    headline = "appraisals_per_s"
    packets = {"full": 1500, "tiny": 32}

    def setup(self, seed: int, scale: str) -> None:
        count = self.packets[scale]
        rng = random.Random(seed)
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        sim = Simulator(linear_topology(_CHAIN), seed=seed)
        src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
        dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
        sim.bind(src)
        sim.bind(dst)
        switches = []
        for index in range(1, _CHAIN + 1):
            switch = _chain_switch(
                NetworkAwarePeraSwitch, f"s{index}", config=config
            )
            sim.bind(switch)
            switches.append(switch)
        path = ["h-src", *(s.name for s in switches), "h-dst"]
        self.policy = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=path,
            bindings={"client": "h-dst"},
            composition=CompositionMode.CHAINED,
        )
        shim = RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(self.policy),
        )
        for index in range(count):
            payload = index.to_bytes(4, "big") + rng.randbytes(60)
            sim.schedule(
                index * 4e-6,
                lambda p=payload, i=index: src.send_udp(
                    dst_mac=dst.mac, dst_ip=dst.ip,
                    src_port=1024 + i % 4096, dst_port=4433,
                    payload=p, ra_shim=shim,
                ),
            )
        sim.run(max_events=count * (_CHAIN + 2) * 2)
        delivered = dst.received_packets
        if len(delivered) != count:
            raise RuntimeError(
                f"set-up delivered {len(delivered)} of {count} packets"
            )
        self.stream: List[Packet] = []
        self.tampered: List[bool] = []
        for index, packet in enumerate(delivered):
            tamper = index % _TAMPER_EVERY == _TAMPER_EVERY - 1
            if tamper:
                body = packet.ra_shim.body
                flipped = body[:-1] + bytes([body[-1] ^ 0x01])
                packet = packet.with_shim(replace(packet.ra_shim, body=flipped))
            self.stream.append(packet)
            self.tampered.append(tamper)
        program = ipv4_forwarding_program()
        self.anchors = KeyRegistry()
        self.references = {}
        for switch in switches:
            self.anchors.register_pair(switch.keys)
            self.references[switch.name] = {
                InertiaClass.HARDWARE: hardware_reference(
                    switch.engine.hardware_identity
                ),
                InertiaClass.PROGRAM: program_reference(program),
            }
        self.program_names = {program_reference(program): program.full_name}

    def _pass(self, appraiser: PathAppraiser):
        latencies: List[float] = []
        verdicts = []
        compiled = self.policy
        started = perf_counter()
        for packet in self.stream:
            before = perf_counter()
            verdict = appraiser.appraise_packet(packet, compiled=compiled)
            latencies.append(perf_counter() - before)
            verdicts.append(verdict)
        return perf_counter() - started, latencies, verdicts

    def run(self) -> Repeat:
        appraiser = PathAppraiser("Appraiser", PathAppraisalPolicy(
            anchors=self.anchors,
            reference_measurements=self.references,
            program_names=self.program_names,
        ))
        count = len(self.stream)
        signatures = count * _CHAIN
        failures: List[str] = []
        cold_wall, cold_latencies, cold = self._pass(appraiser)
        failures.extend(_cache_failures(hits=0, misses=signatures))
        warm_wall, _, warm = self._pass(appraiser)
        failures.extend(_cache_failures(hits=signatures, misses=signatures))
        for label, verdicts in (("cold", cold), ("warm", warm)):
            for index, verdict in enumerate(verdicts):
                if verdict.accepted == self.tampered[index]:
                    failures.append(
                        f"{label} packet {index}: "
                        f"{'accepted' if verdict.accepted else 'rejected'}, "
                        f"tampered={self.tampered[index]}"
                    )
        return Repeat(
            walls={"cold": cold_wall, "warm": warm_wall},
            ops={"appraisals": count},
            attempted=2 * count + 2,
            failures=failures,
            signature=_sha256([
                json.dumps([[v.accepted, v.failures, v.records_checked,
                             v.hop_count] for v in verdicts])
                for verdicts in (cold, warm)
            ]),
            samples={"cold_s": cold_latencies},
        )

    def metrics(self, repeats: List[Repeat]) -> Dict[str, dict]:
        pooled = sorted(s for r in repeats for s in r.samples["cold_s"])

        def percentile(q: float, bound: float) -> dict:
            # The value is the pooled percentile (n = pool size); the
            # per-repeat percentiles only show its run-to-run spread.
            return {
                "value": _nearest_rank(pooled, q) * 1e6,
                "unit": "us", "better": "lower", "bound": bound,
                "n": len(pooled),
                "values": [
                    _nearest_rank(sorted(r.samples["cold_s"]), q) * 1e6
                    for r in repeats
                ],
            }

        return {
            "appraisals_per_s": _metric(
                _rates(repeats, "cold", "appraisals"), "1/s", "higher", 0.10
            ),
            "appraise_p50_us": percentile(0.5, 0.10),
            "appraise_p99_us": percentile(0.99, 0.15),
            "warm_appraisals_per_s": _metric(
                _rates(repeats, "warm", "appraisals"), "1/s", "higher", 0.10
            ),
        }


# --- switch_fig3 -----------------------------------------------------------------------

_FIG3_MODES = {
    # mode: (switch class, config, full packets, tiny packets)
    "baseline": (PisaSwitch, None, 200_000, 2_000),
    "pointwise": (
        PeraSwitch,
        EvidenceConfig(composition=CompositionMode.POINTWISE),
        70_000, 700,
    ),
    "chained": (
        PeraSwitch,
        EvidenceConfig(composition=CompositionMode.CHAINED),
        4_000, 40,
    ),
    "batched": (
        PeraSwitch,
        EvidenceConfig(
            composition=CompositionMode.CHAINED,
            batching=BatchingSpec(max_records=32, max_delay_s=0.0),
        ),
        20_000, 200,
    ),
}
#: One repeat drives each mode in this many interleaved slices, so every
#: mode's wall is sampled across the whole repeat and not in one burst:
#: the sandbox CPU changes speed by ~25% every few seconds.
_FIG3_SLICES = 10


class SwitchFig3(Workload):
    """The paper's Fig. 3 on one standalone switch, no network around it.

    One repeat pushes every mode's packets through a fresh switch, the
    four modes interleaved slice by slice so all see the same machine
    conditions. A mode's region is its ``process_context`` loops (plus
    ``flush_epochs`` for the batched mode, whose last partial epoch
    still has to be signed).
    """

    headline = "switch_pps_chained"

    def setup(self, seed: int, scale: str) -> None:
        rng = random.Random(seed)
        self.scale = scale
        self.packet = {
            with_shim: Packet.udp_packet(
                src_mac=1, dst_mac=2,
                src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.1.1"),
                src_port=1024 + rng.randrange(60000), dst_port=2000,
                payload=rng.randbytes(64),
                ra_shim=(
                    RaShimHeader(flags=RaShimHeader.FLAG_POLICY)
                    if with_shim else None
                ),
            )
            for with_shim in (False, True)
        }

    def run(self) -> Repeat:
        switches = {}
        ops: Dict[str, int] = {}
        for mode, (cls, config, full, tiny) in _FIG3_MODES.items():
            kwargs = {} if config is None else {"config": config}
            switches[mode] = _chain_switch(cls, "s1", **kwargs)
            ops[mode] = full if self.scale == "full" else tiny
        walls = dict.fromkeys(_FIG3_MODES, 0.0)
        from_packet = PacketContext.from_packet
        for piece in range(_FIG3_SLICES):
            for mode, switch in switches.items():
                attesting = isinstance(switch, PeraSwitch)
                packet = self.packet[attesting]
                started = perf_counter()
                for _ in range(ops[mode] // _FIG3_SLICES):
                    switch.process_context(from_packet(packet, ingress_port=1))
                if attesting and piece == _FIG3_SLICES - 1:
                    switch.flush_epochs()
                walls[mode] += perf_counter() - started

        counters = []
        failures: List[str] = []
        for mode, switch in switches.items():
            packets = ops[mode]
            stats = getattr(switch, "ra_stats", None)
            attested = stats.packets_attested if stats else 0
            signed = stats.signatures_produced if stats else 0
            expected_signed = {
                "baseline": 0,
                "pointwise": 1,  # the first packet signs, the rest hit the cache
                "chained": packets,
                "batched": math.ceil(packets / 32),
            }[mode]
            if switch.packets_processed != packets:
                failures.append(f"{mode}: processed {switch.packets_processed}")
            if stats is not None and attested != packets:
                failures.append(f"{mode}: attested {attested} of {packets}")
            if signed != expected_signed:
                failures.append(
                    f"{mode}: {signed} signatures, expected {expected_signed}"
                )
            counters.append([
                mode, switch.packets_processed, switch.total_cost,
                getattr(switch, "ra_cost", 0.0), attested, signed,
                stats.records_from_cache if stats else 0,
                stats.epochs_sealed if stats else 0,
            ])
        return Repeat(
            walls=walls,
            ops=ops,
            attempted=3 * len(_FIG3_MODES),
            failures=failures,
            signature=_sha256([json.dumps(counters)]),
        )

    def metrics(self, repeats: List[Repeat]) -> Dict[str, dict]:
        return {
            f"switch_pps_{mode}": _metric(
                _rates(repeats, mode, mode), "1/s", "higher", 0.10
            )
            for mode in _FIG3_MODES
        }


def warm_up() -> None:
    """One sign and one verify: builds the lazy Ed25519 base table, so
    the first timed signature does not pay for it (it is part of
    ``setup_s`` instead)."""
    pair = KeyPair.generate("ledger-warm-up")
    signature = pair.sign(b"ledger")
    if not pair.verify_key.verify(b"ledger", signature):
        raise RuntimeError("Ed25519 warm-up signature did not verify")


def build(name: str) -> Workload:
    """A fresh workload object by its BENCHMARK.json name."""
    if name == "fabric_bulk":
        return FabricWorkload(
            _BULK, "forwarded", "fwd_pkts_per_s", 0.10,
            shards=1, backend="inline", telemetry_active=False,
        )
    if name == "fabric_sharded":
        return FabricWorkload(
            _BULK, "forwarded", "fwd_pkts_per_s", 0.15,
            shards=2, backend="mp", telemetry_active=False,
        )
    if name == "fabric_attested":
        return FabricWorkload(
            _ATTESTED, "attested_hops", "attested_hops_per_s", 0.10,
            shards=1, backend="inline", telemetry_active=False,
        )
    if name == "fabric_congested":
        return FabricWorkload(
            _CONGESTED, "forwarded", "fwd_pkts_per_s", 0.10,
            shards=1, backend="inline", telemetry_active=True,
            health=standard_fabric_rules(),
        )
    if name == "appraise_stream":
        return AppraiseStream()
    if name == "switch_fig3":
        return SwitchFig3()
    raise KeyError(name)
