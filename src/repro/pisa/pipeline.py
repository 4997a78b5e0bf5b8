"""The match-action pipeline: executes a program over packet contexts.

The pipeline models the PISA stages the paper's Fig. 3 draws: Parse,
Match+Action, Deparse (the Sign/Verify and Evidence blocks are added by
:mod:`repro.pera`). It also carries a :class:`CostModel` so benchmarks
can report per-stage processing cost — the quantity Fig. 3's caption
calls "tuned to balance performance and security".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.packet import Packet
from repro.pisa.actions import ActionCall, Primitive
from repro.pisa.program import DataplaneProgram
from repro.pisa.registers import Counter, Meter, Register
from repro.pisa.tables import MatchTable
from repro.telemetry.instrument import NULL_TELEMETRY
from repro.util.errors import PipelineError

DROP_PORT = 511
CPU_PORT = 510


@dataclass
class CostModel:
    """Abstract per-operation costs (arbitrary 'cycle' units).

    The absolute values are not calibrated to any ASIC; the benchmarks
    only rely on their *ratios* (signing ≫ hashing ≫ table lookup).
    """

    parse_per_byte: float = 0.5
    table_lookup: float = 10.0
    action_primitive: float = 2.0
    register_op: float = 4.0
    hash_per_byte: float = 1.0
    sign: float = 4000.0
    verify: float = 8000.0
    deparse_per_byte: float = 0.5


@dataclass
class PacketContext:
    """Mutable per-packet state flowing through the pipeline."""

    fields: Dict[str, int]
    headers: List[str]
    payload: bytes
    packet: Optional[Packet] = None
    ingress_port: int = 0
    egress_spec: int = DROP_PORT
    clone_spec: Optional[int] = None
    mark_ra: bool = False
    cost: float = 0.0
    # Tables whose lookup hit (a policy test's ``hit_<table>`` facts).
    hits: Set[str] = field(default_factory=set)
    # Held back until its evidence epoch seals; emission skips it.
    parked: bool = False

    @classmethod
    def from_packet(cls, packet: Packet, ingress_port: int) -> "PacketContext":
        """Build a context from an already-parsed packet (fast path).

        The field map mirrors what the reference parser would extract
        from the packet's wire form.
        """
        fields: Dict[str, int] = {
            "eth.dst": packet.eth.dst,
            "eth.src": packet.eth.src,
            "eth.ethertype": packet.eth.ethertype,
        }
        headers = ["eth"]
        if packet.ipv4 is not None:
            fields.update(
                {
                    "ipv4.src": packet.ipv4.src,
                    "ipv4.dst": packet.ipv4.dst,
                    "ipv4.protocol": packet.ipv4.protocol,
                    "ipv4.ttl": packet.ipv4.ttl,
                    "ipv4.total_length": packet.ipv4.total_length,
                    "ipv4.dscp": packet.ipv4.dscp,
                }
            )
            headers.append("ipv4")
        if packet.udp is not None:
            fields.update(
                {
                    "udp.src_port": packet.udp.src_port,
                    "udp.dst_port": packet.udp.dst_port,
                    "udp.length": packet.udp.length,
                }
            )
            headers.append("udp")
        if packet.tcp is not None:
            fields.update(
                {
                    "tcp.src_port": packet.tcp.src_port,
                    "tcp.dst_port": packet.tcp.dst_port,
                    "tcp.flags": packet.tcp.flags,
                }
            )
            headers.append("tcp")
        if packet.ra_shim is not None:
            fields.update(
                {
                    "ra.flags": packet.ra_shim.flags,
                    "ra.hop_count": packet.ra_shim.hop_count,
                }
            )
            headers.append("ra")
        return cls(
            fields=fields,
            headers=headers,
            payload=packet.payload,
            packet=packet,
            ingress_port=ingress_port,
        )

    def field_value(self, name: str) -> int:
        if name == "standard_metadata.ingress_port":
            return self.ingress_port
        if name == "standard_metadata.egress_spec":
            return self.egress_spec
        value = self.fields.get(name)
        if value is None:
            raise PipelineError(f"packet has no field {name!r}")
        return value

    def rebuild_packet(self) -> Packet:
        """Apply context field changes back onto the packet.

        Only fields a forwarding pipeline legitimately rewrites are
        applied: Ethernet addresses, TTL, DSCP. Everything else is
        attested state, not forwarding state.
        """
        if self.packet is None:
            raise PipelineError("context has no originating packet")
        packet = self.packet
        eth = replace(
            packet.eth,
            dst=self.fields.get("eth.dst", packet.eth.dst),
            src=self.fields.get("eth.src", packet.eth.src),
        )
        packet = replace(packet, eth=eth)
        if packet.ipv4 is not None:
            ipv4 = replace(
                packet.ipv4,
                ttl=self.fields.get("ipv4.ttl", packet.ipv4.ttl),
                dscp=self.fields.get("ipv4.dscp", packet.ipv4.dscp),
            )
            packet = replace(packet, ipv4=ipv4)
        return packet


class Pipeline:
    """Executes one dataplane program, holding all its runtime state."""

    def __init__(
        self, program: DataplaneProgram, cost_model: Optional[CostModel] = None
    ) -> None:
        self.program = program
        self.cost_model = cost_model or CostModel()
        # Stamped by the owning switch on bind/install; inert otherwise.
        self.telemetry = NULL_TELEMETRY
        self.telemetry_track = program.name
        self.tables: Dict[str, MatchTable] = {}
        self.registers: Dict[str, Register] = {}
        self.counters: Dict[str, Counter] = {}
        self.meters: Dict[str, Meter] = {}
        # Action-selector groups (ECMP next-hop sets), installed via
        # P4Runtime.write_group. Like table entries, they are runtime
        # state: they do not survive a program swap.
        self.groups: Dict[int, Tuple[int, ...]] = {}
        # Hook the owning switch installs to pick a member for
        # SELECT_FORWARD — models the hash extern behind a P4 action
        # selector. Without one, the first (lowest) member wins.
        self.member_selector: Optional[
            Callable[[Tuple[int, ...], "PacketContext"], int]
        ] = None
        for spec in program.tables:
            self.tables[spec.name] = MatchTable(
                name=spec.name,
                key_fields=spec.key_fields,
                default_action=program.default_call(spec),
                max_entries=spec.max_entries,
            )

    # --- state management -------------------------------------------------

    def add_register(self, register: Register) -> None:
        if register.name in self.registers:
            raise PipelineError(f"duplicate register {register.name!r}")
        self.registers[register.name] = register

    def add_counter(self, counter: Counter) -> None:
        if counter.name in self.counters:
            raise PipelineError(f"duplicate counter {counter.name!r}")
        self.counters[counter.name] = counter

    def table(self, name: str) -> MatchTable:
        table = self.tables.get(name)
        if table is None:
            raise PipelineError(f"no table named {name!r}")
        return table

    def set_group(self, group_id: int, ports: Tuple[int, ...]) -> None:
        """Install (or replace) a multipath group's member ports."""
        if group_id <= 0:
            raise PipelineError(f"group id must be positive, got {group_id}")
        if not ports:
            raise PipelineError(f"group {group_id} needs at least one member")
        self.groups[group_id] = tuple(sorted(int(p) for p in ports))

    # --- execution -----------------------------------------------------------

    def process(self, ctx: PacketContext) -> PacketContext:
        """Run the context through parse-cost accounting and all tables.

        With telemetry active, each PISA stage (parse, every table,
        deparse) is bracketed in a span and table hits/misses feed
        labeled counters; otherwise the loop below runs untouched.
        """
        if self.telemetry.active:
            return self._process_instrumented(ctx)
        ctx.cost += self.cost_model.parse_per_byte * (
            len(ctx.payload) + 64  # header bytes approximation for costing
        )
        for spec in self.program.tables:
            _, terminal = self._run_stage(spec, ctx)
            if terminal:
                break  # dropped or punted: later stages are skipped
        ctx.cost += self.cost_model.deparse_per_byte * (len(ctx.payload) + 64)
        return ctx

    def _process_instrumented(self, ctx: PacketContext) -> PacketContext:
        """The same stage walk, bracketed in spans and counters."""
        tel = self.telemetry
        track = self.telemetry_track
        trace = getattr(ctx.packet, "trace", None)
        tags = trace.span_args() if trace is not None else {}
        with tel.span("pisa.parse", track=track, **tags):
            ctx.cost += self.cost_model.parse_per_byte * (len(ctx.payload) + 64)
        for spec in self.program.tables:
            with tel.span(
                "pisa.stage", track=track, table=spec.name, **tags
            ) as span:
                hit, terminal = self._run_stage(spec, ctx)
                span.note(hit=hit)
            tel.counter(
                "pisa.table_lookups",
                table=spec.name,
                outcome="hit" if hit else "miss",
            ).inc()
            if terminal:
                break
        with tel.span("pisa.deparse", track=track, **tags):
            ctx.cost += self.cost_model.deparse_per_byte * (
                len(ctx.payload) + 64
            )
        return ctx

    def _run_stage(
        self, spec, ctx: PacketContext
    ) -> Tuple[bool, bool]:
        """One match-action stage; returns (table hit, pipeline done)."""
        table = self.tables[spec.name]
        values = [ctx.field_value(name) for name in spec.key_fields]
        action_call, hit = table.lookup(values)
        ctx.cost += self.cost_model.table_lookup
        if hit:
            ctx.hits.add(spec.name)
        self._execute(action_call, ctx)
        terminal = {Primitive.DROP, Primitive.TO_CPU}
        done = ctx.egress_spec in (DROP_PORT, CPU_PORT) and any(
            step.primitive in terminal
            for step in action_call.action.steps
        )
        return hit, done

    def _execute(self, call: ActionCall, ctx: PacketContext) -> None:
        action = call.action
        for step in action.steps:
            args = action.resolve_args(step, call.params)
            ctx.cost += self.cost_model.action_primitive
            if step.primitive is Primitive.SET_FIELD:
                field_name, value = args
                ctx.fields[str(field_name)] = int(value)
            elif step.primitive is Primitive.COPY_FIELD:
                dst, src = args
                ctx.fields[str(dst)] = ctx.field_value(str(src))
            elif step.primitive is Primitive.ADD_TO_FIELD:
                field_name, delta = args
                ctx.fields[str(field_name)] = ctx.field_value(str(field_name)) + int(
                    delta
                )
            elif step.primitive is Primitive.FORWARD:
                (port,) = args
                ctx.egress_spec = int(port)
            elif step.primitive is Primitive.DROP:
                ctx.egress_spec = DROP_PORT
            elif step.primitive is Primitive.TO_CPU:
                ctx.egress_spec = CPU_PORT
            elif step.primitive is Primitive.REGISTER_WRITE:
                reg_name, index, value = args
                self._register(str(reg_name)).write(int(index), int(value))
                ctx.cost += self.cost_model.register_op
            elif step.primitive is Primitive.REGISTER_READ:
                reg_name, index, dst_field = args
                ctx.fields[str(dst_field)] = self._register(str(reg_name)).read(
                    int(index)
                )
                ctx.cost += self.cost_model.register_op
            elif step.primitive is Primitive.COUNT:
                counter_name, index = args
                counter = self.counters.get(str(counter_name))
                if counter is None:
                    raise PipelineError(f"no counter named {counter_name!r}")
                counter.count(int(index), len(ctx.payload))
            elif step.primitive is Primitive.MARK_RA:
                ctx.mark_ra = True
            elif step.primitive is Primitive.CLONE:
                (port,) = args
                ctx.clone_spec = int(port)
            elif step.primitive is Primitive.SELECT_FORWARD:
                (group_ref,) = args
                members = self.groups.get(int(group_ref))
                if not members:
                    raise PipelineError(
                        f"no members installed for group {group_ref}"
                    )
                if self.member_selector is not None:
                    ctx.egress_spec = int(self.member_selector(members, ctx))
                else:
                    ctx.egress_spec = members[0]
            elif step.primitive is Primitive.NO_OP:
                pass
            else:  # pragma: no cover - enum is closed
                raise PipelineError(f"unknown primitive {step.primitive}")

    def _register(self, name: str) -> Register:
        register = self.registers.get(name)
        if register is None:
            raise PipelineError(f"no register named {name!r}")
        return register

    # --- measurement hooks (consumed by PERA) ---------------------------------

    def measure_tables(self) -> Dict[str, bytes]:
        """Canonical content of every table, for the Tables inertia class.

        Multipath groups are measured alongside entries: a tampered
        next-hop set is a forwarding-state compromise just like a
        tampered entry.
        """
        content: Dict[str, bytes] = {}
        for table in self.tables.values():
            content.update(table.measure_content())
        for group_id in sorted(self.groups):
            ports = ",".join(str(p) for p in self.groups[group_id])
            content[f"__group__{group_id}"] = ports.encode("utf-8")
        return content

    def measure_state(self) -> Dict[str, bytes]:
        """Canonical register state, for the Prog. State inertia class."""
        return {name: reg.snapshot() for name, reg in sorted(self.registers.items())}
