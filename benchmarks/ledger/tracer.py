"""Per-layer self-time tracing, applied from outside the library.

The ledger's traced pass wraps each layer's entry points (and the few
internal seams needed to attribute time to the right package) with a
span recorder. Nothing under ``src/`` is edited: methods are replaced on
their classes, and module-level functions are replaced in every loaded
``repro.*`` module that imported them by name.

A span's *self* time is its duration minus the time its child spans
cover. Spans are aggregated per key as they close (a campaign closes
millions of them, so they are not kept individually); the key's first
dotted components name the layer, which is the ``repro`` package the
wrapped code lives in. Spans do not cross process boundaries: the ``mp``
shard workers inherit the wrappers through ``fork`` but their
aggregates die with them, which is why ``fabric_sharded`` reports its
layer numbers from public ``ShardedResult`` fields only.

Wrapper cost (two clock reads and a few attribute writes per call)
lands in the *caller's* self time. ``ledger.trace_overhead_frac``
reports the total; cheap, hot callees (``digest``, the flowlet pick)
inflate their parents most.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

Hook = Callable[["Tracer", object, tuple, dict, float], None]


class Tracer:
    """Aggregates span count, inclusive and self seconds per key."""

    def __init__(self) -> None:
        #: key -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: Free-form counters the hooks feed (bytes, hits, verdicts).
        self.counts: Dict[str, float] = {}
        #: Per-call durations the hooks keep (rejected appraisals).
        self.samples: Dict[str, List[float]] = {}
        #: Objects whose public counters are read when the pass ends.
        self.seen: Dict[str, dict] = {}
        # Seconds covered by closed children of the span now open; at
        # the top level this accumulates the time covered by any span.
        self._child = 0.0
        self._undo: List[Callable[[], None]] = []

    @property
    def covered_s(self) -> float:
        """Seconds inside any top-level span (== the sum of self times)."""
        return self._child

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, key: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        record = self.spans.setdefault(key, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._child
            tracer._child = 0.0
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - tracer._child
                tracer._child = outer + elapsed
            if hook is not None:
                hook(tracer, result, args, kwargs, elapsed)
            return result

        return traced

    # --- patching -----------------------------------------------------------

    def patch_method(
        self, key: str, owner: type, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Replace ``owner.name`` (a plain, class or static method)."""
        raw = owner.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(key, raw.__func__, hook))
        else:
            wrapped = self.wrap(key, raw, hook)
        setattr(owner, name, wrapped)
        self._undo.append(lambda: setattr(owner, name, raw))

    def patch_function(
        self, key: str, module_name: str, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Replace a module-level function wherever it was imported."""
        original = getattr(importlib.import_module(module_name), name)
        wrapped = self.wrap(key, original, hook)
        for loaded_name, module in list(sys.modules.items()):
            if module is None or not loaded_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- reading ------------------------------------------------------------

    def calls(self, key: str) -> int:
        return int(self.spans.get(key, (0, 0.0, 0.0))[0])

    def inclusive_s(self, key: str) -> float:
        return self.spans.get(key, (0, 0.0, 0.0))[1]

    def self_s(self, *prefixes: str, exclude: tuple = ()) -> float:
        """Summed self seconds of every key under any of ``prefixes``."""
        total = 0.0
        for key, record in self.spans.items():
            if _under(key, exclude):
                continue
            if _under(key, prefixes):
                total += record[2]
        return total

    def table(self) -> List[dict]:
        """Every key that fired, for the README's per-packet table."""
        rows = [
            {
                "key": key,
                "calls": int(record[0]),
                "inclusive_s": record[1],
                "self_s": record[2],
            }
            for key, record in self.spans.items()
            if record[0]
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def _under(key: str, prefixes: tuple) -> bool:
    return any(key == p or key.startswith(p + ".") for p in prefixes)


# --- hooks: counts read off arguments and results --------------------------------


def _hook_pipeline(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("pisa.cost_units", result.cost)


def _hook_produce(tracer, result, args, kwargs, elapsed) -> None:
    # The switch's public counters (ra_cost, ra_stats) are read once
    # the pass ends; they also cover epoch-seal work done elsewhere.
    tracer.seen.setdefault("switches", {})[id(args[0])] = args[0]


def _hook_cache_get(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("pera.cache_hits" if result is not None else "pera.cache_misses")


def _hook_seal(tracer, result, args, kwargs, elapsed) -> None:
    if result is not None:
        tracer.count("pera.epochs_sealed")
        tracer.count("pera.records_batched", result.leaf_count)


def _hook_verify_batch(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("crypto.verify_batch.sigs", len(args[0]))


def _hook_encoded(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("evidence.encode.calls")
    tracer.count("evidence.encode.bytes", len(result))


def _hook_decoded(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("evidence.decode.calls")
    tracer.count("evidence.decode.bytes", len(args[0]))


def _note_verdict(tracer, verdict, elapsed) -> None:
    if verdict.accepted:
        tracer.count("core.appraise.accepted")
    else:
        tracer.count("core.appraise.rejected")
        tracer.samples.setdefault("core.reject_s", []).append(elapsed)


def _hook_appraise_packet(tracer, result, args, kwargs, elapsed) -> None:
    tracer.count("core.appraise.calls")
    _note_verdict(tracer, result, elapsed)


def _hook_appraise_records(tracer, result, args, kwargs, elapsed) -> None:
    # appraise_packet calls this with _emit_verdict=False and may still
    # overturn the verdict; only direct calls are appraisals of their own.
    if kwargs.get("_emit_verdict", True):
        tracer.count("core.appraise.calls")
        _note_verdict(tracer, result, elapsed)


#: module -> (span key, "Class.method" or "function"[, hook]). The key's
#: leading components are the layer, i.e. the package the code lives in;
#: README.md maps each layer metric to the end-to-end metric it should move.
TARGETS = {
    # net — event core, hosts, routing, the shard runner's own glue
    "repro.net.simulator": [
        ("net.run", "Simulator.run"),
        ("net.transmit", "Simulator.transmit"),
        ("net.control", "Simulator.send_control"),
    ],
    "repro.net.sharding": [
        ("net.run", "ShardSimulator.run_window"),
        ("net.finalize", "ShardSimulator.finalize"),
        ("net.topology", "partition_topology"),
    ],
    "repro.net.shardrun": [
        ("net.topology", "ScenarioSpec.make_topology"),
        ("net.shardrun", "ShardedRunner.run"),
    ],
    "repro.net.host": [
        ("net.host", "Host.send_udp"),
        ("net.host", "Host.handle_packet"),
        ("net.host", "Host.handle_control"),
    ],
    "repro.net.routing": [
        ("net.routing", "FlowletTable.pick"),
        ("net.routing", "EcmpSelector.pick"),
        ("net.routing", "all_pairs_next_hops"),
        ("net.routing", "predict_multipath_path"),
    ],
    "repro.net.controller": [
        ("net.routing", "RoutingController.install_multipath_routes"),
    ],
    # net.qdisc — egress queues
    "repro.net.qdisc": [
        ("net.qdisc.offer", "QdiscEngine.offer"),
        ("net.qdisc.complete", "QdiscEngine._complete"),
        ("net.qdisc.pause", "QdiscEngine.on_pause"),
    ],
    # workload — flow generation, launch, sinks
    "repro.workload.mixes": [
        ("workload.gen", "elephant_mice_mix"),
        ("workload.gen", "web_session_mix"),
        ("workload.gen", "incast_mix"),
    ],
    "repro.workload.flows": [
        ("workload.launch", "FlowEngine.launch"),
        ("workload.sink", "FlowSink.handle_packet"),
    ],
    # pisa — parser/pipeline/deparser and the runtime API
    "repro.pisa.pipeline": [
        ("pisa.pipeline", "Pipeline.process", _hook_pipeline),
        ("pisa.context", "PacketContext.from_packet"),
    ],
    "repro.pisa.switch": [
        ("pisa.switch", "PisaSwitch.handle_packet"),
        ("pisa.switch", "PisaSwitch.process_context"),
        ("pisa.switch", "PisaSwitch.emit"),
    ],
    "repro.pisa.runtime": [
        ("pisa.runtime", "P4Runtime.set_forwarding_pipeline_config"),
        ("pisa.runtime", "P4Runtime.write"),
        ("pisa.runtime", "P4Runtime.write_group"),
    ],
    # pera — the Fig. 3 evidence block
    "repro.pera.switch": [
        ("pera.switch", "PeraSwitch.process_context"),
        ("pera.switch", "PeraSwitch.emit"),
        ("pera.switch", "PeraSwitch.inspect_evidence"),
        ("pera.produce", "PeraSwitch._produce_record", _hook_produce),
        ("pera.push", "PeraSwitch._push_in_band"),
        ("pera.send_oob", "PeraSwitch._send_out_of_band"),
        ("pera.enqueue", "PeraSwitch._enqueue_batched"),
        ("pera.flush", "PeraSwitch.flush_epochs"),
        ("pera.flush", "PeraSwitch.seal_overdue_epochs"),
    ],
    "repro.pera.measurement": [
        ("pera.measure", "MeasurementEngine.measure"),
    ],
    "repro.pera.cache": [
        ("pera.cache", "EvidenceCache.get", _hook_cache_get),
        ("pera.cache", "EvidenceCache.put"),
    ],
    "repro.pera.epoch": [
        ("pera.epoch", "EpochBatcher.seal", _hook_seal),
    ],
    "repro.pera.records": [
        ("pera.records", "decode_record_stack"),
        ("pera.records", "verify_record_batch"),
    ],
    # crypto — Ed25519, SHA-256, Merkle
    "repro.crypto.ed25519": [
        ("crypto.sign", "SigningKey.sign"),
        ("crypto.sign", "sign"),
        ("crypto.verify", "VerifyKey.verify"),
        ("crypto.verify", "verify"),
        ("crypto.verify_batch", "verify_batch", _hook_verify_batch),
        ("crypto.keys", "SigningKey.verify_key"),
    ],
    "repro.crypto.hashing": [
        ("crypto.hash.digest", "digest"),
        ("crypto.hash.digest", "measure_mapping"),
        ("crypto.hash.chain", "HashChain.extend"),
    ],
    "repro.crypto.merkle": [
        ("crypto.merkle.build", "MerkleTree.__init__"),
        ("crypto.merkle.prove", "MerkleTree.prove"),
        ("crypto.merkle.verify", "MerkleProof.verify"),
    ],
    # evidence — the TLV codec and the memoized verifier
    "repro.evidence.codec": [
        ("evidence.encode", "encode_record_stack", _hook_encoded),
        ("evidence.encode", "encode_hop_body", _hook_encoded),
        ("evidence.encode", "encode_node", _hook_encoded),
        ("evidence.decode", "decode_record_stack", _hook_decoded),
        ("evidence.decode", "decode_node", _hook_decoded),
    ],
    "repro.evidence.nodes": [
        ("evidence.encode", "HopEvidence.signed_payload"),
    ],
    "repro.evidence.verify": [
        ("evidence.verify_cache", "SignatureCache.verify"),
        ("evidence.verify_cache", "SignatureCache.verify_batch"),
    ],
    # core — policy compile, the policy-interpreting switch, appraisal
    "repro.core.compiler": [
        ("core.compile", "compile_policy_for_path"),
    ],
    "repro.core.wire": [
        ("core.wire", "encode_compiled_policy"),
        ("core.wire", "decode_compiled_policy"),
    ],
    "repro.core.raswitch": [
        ("core.switch", "NetworkAwarePeraSwitch.process_context"),
    ],
    "repro.core.fabric": [
        ("core.switch", "MultipathFabricSwitch.handle_packet"),
    ],
    "repro.core.appraisal": [
        ("core.appraise", "PathAppraiser.appraise_packet", _hook_appraise_packet),
        ("core.appraise", "PathAppraiser.appraise_records", _hook_appraise_records),
    ],
    # telemetry — recorder, audit, health, merges
    "repro.telemetry.health": [
        ("telemetry.health", "evaluate_health"),
        ("telemetry.health", "fold_alerts"),
    ],
    "repro.telemetry.instrument": [
        ("telemetry.audit", "Telemetry.audit_event"),
        ("telemetry.metrics", "Telemetry.counter"),
        ("telemetry.metrics", "Telemetry.histogram"),
        ("telemetry.metrics", "collect_simulator"),
    ],
    "repro.telemetry.metrics": [
        ("telemetry.metrics", "MetricsRegistry.snapshot"),
        ("telemetry.merge", "merge_snapshots"),
    ],
    "repro.telemetry.timeseries": [
        ("telemetry.recorder", "install_recorder"),
        ("telemetry.recorder", "FlightRecorder.advance_to"),
        ("telemetry.recorder", "FlightRecorder.finish"),
        ("telemetry.merge", "merge_frame_streams"),
    ],
    "repro.telemetry.audit": [
        ("telemetry.merge", "merge_audit_events"),
    ],
}


def _wrap_spec(tracer: Tracer) -> None:
    """Span the campaign's ``ScenarioSpec`` callables.

    ``fabric_traffic_spec`` is resolved by name each time
    ``run_fabric_traffic`` runs, so replacing it is enough to hand the
    runner a spec whose build/drain/harvest are wrapped.
    """
    import dataclasses

    fabric = importlib.import_module("repro.core.fabric")
    original = fabric.fabric_traffic_spec

    def traced_spec(*args, **kwargs):
        spec = original(*args, **kwargs)
        return dataclasses.replace(
            spec,
            build=tracer.wrap("core.build", spec.build),
            harvest=tracer.wrap("core.harvest", spec.harvest),
            drain=tracer.wrap("core.drain", spec.drain),
        )

    fabric.fabric_traffic_spec = traced_spec
    tracer._undo.append(lambda: setattr(fabric, "fabric_traffic_spec", original))


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` plus the spec callables."""
    for module_name, targets in TARGETS.items():
        for key, path, *hook in targets:
            class_name, _, method = path.rpartition(".")
            if class_name:
                owner = getattr(importlib.import_module(module_name), class_name)
                tracer.patch_method(key, owner, method, *hook)
            else:
                tracer.patch_function(key, module_name, path, *hook)
    _wrap_spec(tracer)
