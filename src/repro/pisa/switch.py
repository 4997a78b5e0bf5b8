"""A PISA switch bound to a simulator node.

Receives packets, runs them through the pipeline, forwards per the
resulting egress spec. This is the *unattested* baseline switch the
benchmarks compare PERA against. The Athens-affair premise holds here:
nothing in this class can prove which program is installed.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.net.simulator import Node
from repro.pisa.pipeline import CPU_PORT, DROP_PORT, PacketContext, Pipeline
from repro.pisa.program import DataplaneProgram
from repro.pisa.runtime import P4Runtime
from repro.telemetry.instrument import NULL_TELEMETRY
from repro.util.errors import PipelineError


class PisaSwitch(Node):
    """A plain (non-attesting) PISA switch."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.runtime = P4Runtime(device_id=name)
        self.telemetry = NULL_TELEMETRY
        self.packets_processed = 0
        self.packets_dropped = 0
        self.packets_to_cpu = 0
        self.total_cost = 0.0
        # LinkGuardian-style local recovery: lost egress transmissions
        # are re-offered up to this many times (0 = no recovery).
        self.resend_budget = 0
        # Pipelines are created on program install; re-stamp telemetry
        # onto each new one so per-stage spans track this switch.
        self.runtime.change_observers.append(self._stamp_pipeline_telemetry)

    def on_bind(self, sim) -> None:
        self.telemetry = sim.telemetry
        self._stamp_pipeline_telemetry("config")

    def _stamp_pipeline_telemetry(self, kind: str) -> None:
        if kind == "config" and self.runtime.pipeline is not None:
            self.runtime.pipeline.telemetry = self.telemetry
            self.runtime.pipeline.telemetry_track = self.name

    @property
    def pipeline(self) -> Pipeline:
        if self.runtime.pipeline is None:
            raise PipelineError(f"switch {self.name!r} has no pipeline installed")
        return self.runtime.pipeline

    @property
    def program(self) -> Optional[DataplaneProgram]:
        return self.runtime.get_forwarding_pipeline_config()

    # --- packet path ----------------------------------------------------

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        if self.runtime.pipeline is None:
            self.packets_dropped += 1
            if self.sim is not None:
                self.sim.drop(self.name, packet)
            return
        ctx = PacketContext.from_packet(packet, ingress_port=in_port)
        ctx = self.process_context(ctx)
        self.emit(ctx)

    def process_context(self, ctx: PacketContext) -> PacketContext:
        """Run the pipeline; subclasses (PERA) extend around this."""
        ctx = self.pipeline.process(ctx)
        self.packets_processed += 1
        self.total_cost += ctx.cost
        return ctx

    def emit(self, ctx: PacketContext) -> None:
        """Act on the context's egress decision."""
        if ctx.egress_spec == DROP_PORT:
            self.packets_dropped += 1
            if self.sim is not None:
                self.sim.drop(self.name, ctx.packet)
            return
        if ctx.egress_spec == CPU_PORT:
            self.packets_to_cpu += 1
            self.handle_cpu_packet(ctx)
            return
        out_packet = ctx.rebuild_packet()
        if self.sim is not None:
            self.sim.transmit(
                self.name,
                ctx.egress_spec,
                out_packet,
                resend_budget=self.resend_budget,
            )
            if ctx.clone_spec is not None and ctx.clone_spec != ctx.egress_spec:
                self.sim.transmit(
                    self.name,
                    ctx.clone_spec,
                    out_packet,
                    resend_budget=self.resend_budget,
                )

    def handle_cpu_packet(self, ctx: PacketContext) -> None:
        """Punted packet hook; default emits a digest to the runtime."""
        self.runtime.emit_digest(
            "packet_in",
            {
                "ingress_port": ctx.ingress_port,
                "fields": dict(ctx.fields),
            },
        )
