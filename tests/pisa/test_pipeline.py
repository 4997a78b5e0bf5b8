"""Tests for the pipeline, registers, program objects and actions."""

import pytest

from repro.net.headers import ip_to_int
from repro.net.packet import Packet
from repro.pisa.actions import Action, ActionCall, Primitive, Step
from repro.pisa.pipeline import CPU_PORT, DROP_PORT, PacketContext, Pipeline
from repro.pisa.programs import (
    athens_rogue_program,
    firewall_program,
    ipv4_forwarding_program,
    scanner_program,
)
from repro.pisa.registers import Counter, Meter, Register
from repro.pisa.tables import MatchKey, MatchKind
from repro.pisa.runtime import P4Runtime, TableEntry
from repro.util.errors import PipelineError


def make_packet(dst="10.0.1.5"):
    return Packet.udp_packet(
        src_mac=1, dst_mac=2,
        src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int(dst),
        src_port=1000, dst_port=2000, payload=b"data",
    )


def routed_pipeline():
    """An ipv4 router with 10.0.1.0/24 -> port 2."""
    pipeline = Pipeline(ipv4_forwarding_program())
    runtime = P4Runtime("s1")
    runtime.arbitrate("ctl", 1)
    runtime.pipeline = pipeline
    runtime.write("ctl", TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))
    return pipeline


class TestPipelineExecution:
    def test_lpm_forwarding(self):
        pipeline = routed_pipeline()
        ctx = PacketContext.from_packet(make_packet(), ingress_port=1)
        pipeline.process(ctx)
        assert ctx.egress_spec == 2

    def test_default_drop_on_miss(self):
        pipeline = routed_pipeline()
        ctx = PacketContext.from_packet(make_packet(dst="192.168.0.1"), 1)
        pipeline.process(ctx)
        assert ctx.egress_spec == DROP_PORT
        assert ctx.hits == set()

    def test_cost_accumulates(self):
        pipeline = routed_pipeline()
        ctx = PacketContext.from_packet(make_packet(), 1)
        pipeline.process(ctx)
        assert ctx.cost > 0

    def test_trace_records_tables(self):
        pipeline = routed_pipeline()
        ctx = PacketContext.from_packet(make_packet(), 1)
        pipeline.process(ctx)
        assert ctx.hits == {"ipv4_lpm"}
        assert ctx.egress_spec == 2

    def test_firewall_drop_beats_forwarding(self):
        pipeline = Pipeline(firewall_program())
        runtime = P4Runtime("fw")
        runtime.arbitrate("ctl", 1)
        runtime.pipeline = pipeline
        runtime.write("ctl", TableEntry(
            table="acl",
            keys=(
                MatchKey(MatchKind.TERNARY, ip_to_int("10.0.0.1"), mask=0xFFFFFFFF),
                MatchKey(MatchKind.TERNARY, 0, mask=0),
                MatchKey(MatchKind.TERNARY, 0, mask=0),
            ),
            action="drop", priority=10,
        ))
        runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
            action="forward", params=(2,),
        ))
        ctx = PacketContext.from_packet(make_packet(), 1)
        pipeline.process(ctx)
        assert ctx.egress_spec == DROP_PORT  # ACL dropped before LPM could forward

    def test_missing_field_raises(self):
        pipeline = routed_pipeline()
        non_ip = Packet.decode(
            b"\x00" * 6 + b"\x00" * 6 + b"\x86\xdd" + b"payload"
        )
        ctx = PacketContext.from_packet(non_ip, 1)
        with pytest.raises(PipelineError, match="no field"):
            pipeline.process(ctx)


class TestDeparse:
    def test_rebuild_without_changes_is_identity(self):
        ctx = PacketContext.from_packet(make_packet(), 1)
        assert ctx.rebuild_packet() == ctx.packet

    def test_rebuild_applies_forwarding_rewrites(self):

        ctx = PacketContext.from_packet(make_packet(), 1)
        ctx.fields["eth.dst"] = 0x99
        ctx.fields["ipv4.ttl"] = 17
        ctx.fields["ipv4.dscp"] = 46
        rebuilt = ctx.rebuild_packet()
        assert rebuilt.eth.dst == 0x99
        assert rebuilt.ipv4.ttl == 17
        assert rebuilt.ipv4.dscp == 46
        # Non-forwarding fields are untouched even if the context holds
        # scratch values for them.
        ctx.fields["udp.dst_port"] = 9999
        assert ctx.rebuild_packet().udp.dst_port == 2000

    def test_rebuild_round_trips_on_wire(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=50, deadline=None)
        @given(
            ttl=st.integers(min_value=1, max_value=255),
            dscp=st.integers(min_value=0, max_value=63),
            dst_mac=st.integers(min_value=0, max_value=2**48 - 1),
        )
        def check(ttl, dscp, dst_mac):
            ctx = PacketContext.from_packet(make_packet(), 1)
            ctx.fields["ipv4.ttl"] = ttl
            ctx.fields["ipv4.dscp"] = dscp
            ctx.fields["eth.dst"] = dst_mac
            rebuilt = ctx.rebuild_packet()
            assert Packet.decode(rebuilt.encode()) == rebuilt

        check()

    def test_rebuild_requires_packet(self):
        ctx = PacketContext(fields={}, headers=[], payload=b"")
        with pytest.raises(PipelineError):
            ctx.rebuild_packet()


class TestActionPrimitives:
    def run_action(self, action, params=()):
        pipeline = Pipeline(ipv4_forwarding_program())
        pipeline.add_register(Register("r", size=4))
        pipeline.add_counter(Counter("c", size=4))
        ctx = PacketContext.from_packet(make_packet(), 1)
        pipeline._execute(ActionCall(action=action, params=params), ctx)
        return pipeline, ctx

    def test_set_field(self):
        action = Action("a", (Step(Primitive.SET_FIELD, ("ipv4.dscp", 46)),))
        _, ctx = self.run_action(action)
        assert ctx.fields["ipv4.dscp"] == 46

    def test_copy_field(self):
        action = Action("a", (Step(Primitive.COPY_FIELD, ("scratch", "ipv4.ttl")),))
        _, ctx = self.run_action(action)
        assert ctx.fields["scratch"] == 64

    def test_add_to_field(self):
        action = Action("a", (Step(Primitive.ADD_TO_FIELD, ("ipv4.ttl", -1)),))
        _, ctx = self.run_action(action)
        assert ctx.fields["ipv4.ttl"] == 63

    def test_register_write_read(self):
        action = Action("a", (
            Step(Primitive.REGISTER_WRITE, ("r", 2, 77)),
            Step(Primitive.REGISTER_READ, ("r", 2, "scratch")),
        ))
        pipeline, ctx = self.run_action(action)
        assert ctx.fields["scratch"] == 77
        assert pipeline.registers["r"].read(2) == 77

    def test_count(self):
        action = Action("a", (Step(Primitive.COUNT, ("c", 1)),))
        pipeline, ctx = self.run_action(action)
        assert pipeline.counters["c"].read(1)["packets"] == 1

    def test_clone(self):
        action = Action("a", (Step(Primitive.CLONE, (7,)),))
        _, ctx = self.run_action(action)
        assert ctx.clone_spec == 7

    def test_mark_ra(self):
        action = Action("a", (Step(Primitive.MARK_RA),))
        _, ctx = self.run_action(action)
        assert ctx.mark_ra

    def test_to_cpu(self):
        action = Action("a", (Step(Primitive.TO_CPU),))
        _, ctx = self.run_action(action)
        assert ctx.egress_spec == CPU_PORT

    def test_param_substitution(self):
        action = Action("a", (Step(Primitive.FORWARD, ("$0",)),), param_count=1)
        _, ctx = self.run_action(action, params=(5,))
        assert ctx.egress_spec == 5

    def test_param_count_enforced(self):
        action = Action("a", (Step(Primitive.FORWARD, ("$0",)),), param_count=1)
        with pytest.raises(PipelineError):
            ActionCall(action=action, params=())

    def test_param_reference_out_of_range(self):
        action = Action("a", (Step(Primitive.FORWARD, ("$3",)),), param_count=1)
        pipeline = Pipeline(ipv4_forwarding_program())
        ctx = PacketContext.from_packet(make_packet(), 1)
        with pytest.raises(PipelineError, match="parameter"):
            pipeline._execute(ActionCall(action=action, params=(1,)), ctx)

    def test_unknown_register_raises(self):
        action = Action("a", (Step(Primitive.REGISTER_WRITE, ("ghost", 0, 0)),))
        pipeline = Pipeline(ipv4_forwarding_program())
        ctx = PacketContext.from_packet(make_packet(), 1)
        with pytest.raises(PipelineError, match="register"):
            pipeline._execute(ActionCall(action=action), ctx)


class TestRegistersCountersMeters:
    def test_register_bounds(self):
        reg = Register("r", size=2)
        with pytest.raises(PipelineError):
            reg.read(2)
        with pytest.raises(PipelineError):
            reg.write(-1, 0)

    def test_register_width_mask(self):
        reg = Register("r", size=1, bit_width=8)
        reg.write(0, 0x1FF)
        assert reg.read(0) == 0xFF

    def test_register_snapshot_changes(self):
        reg = Register("r", size=2)
        before = reg.snapshot()
        reg.write(0, 1)
        assert reg.snapshot() != before

    def test_counter_accumulates(self):
        counter = Counter("c", size=2)
        counter.count(0, packet_bytes=100)
        counter.count(0, packet_bytes=50)
        assert counter.read(0) == {"packets": 2, "bytes": 150}

    def test_counter_bounds(self):
        with pytest.raises(PipelineError):
            Counter("c", size=1).count(5)

    def test_meter_colors(self):
        meter = Meter("m", rate_bps=8000, burst_bytes=1000)  # 1000 B/s
        assert meter.execute(0.0, 500) == Meter.GREEN
        assert meter.execute(0.0, 500) == Meter.GREEN
        # Buckets empty; next packet at same instant exceeds both.
        assert meter.execute(0.0, 800) == Meter.YELLOW
        assert meter.execute(0.0, 800) == Meter.RED
        # After a second, tokens refill.
        assert meter.execute(1.0, 500) == Meter.GREEN

    def test_validation(self):
        with pytest.raises(PipelineError):
            Register("r", size=0)
        with pytest.raises(PipelineError):
            Counter("c", size=0)
        with pytest.raises(PipelineError):
            Meter("m", rate_bps=0)


class TestProgramMeasurement:
    def test_distinct_programs_distinct_measurements(self):
        measurements = {
            p.measurement()
            for p in [
                ipv4_forwarding_program(),
                firewall_program(),
                scanner_program(),
                athens_rogue_program(),
            ]
        }
        assert len(measurements) == 4

    def test_measurement_deterministic(self):
        assert firewall_program().measurement() == firewall_program().measurement()

    def test_version_changes_measurement(self):
        assert firewall_program("v5").measurement() != firewall_program("v6").measurement()

    def test_rogue_program_detected_by_measurement(self):
        # Same name, same version string — still a different measurement.
        genuine = firewall_program("v5")
        rogue = athens_rogue_program("v5")
        assert genuine.full_name == rogue.full_name
        assert genuine.measurement() != rogue.measurement()

    def test_duplicate_table_names_rejected(self):
        program = ipv4_forwarding_program()
        with pytest.raises(PipelineError):
            type(program)(
                name="x", version="v1", parser=program.parser,
                tables=program.tables + program.tables, actions=program.actions,
            )

    def test_table_with_unknown_action_rejected(self):
        from repro.pisa.program import TableSpec

        program = ipv4_forwarding_program()
        bad_table = TableSpec(
            name="bad", key_fields=("f",), key_kinds=("exact",),
            allowed_actions=("ghost",), default_action="ghost",
        )
        with pytest.raises(PipelineError, match="unknown action"):
            type(program)(
                name="x", version="v1", parser=program.parser,
                tables=(bad_table,), actions=program.actions,
            )

    def test_accessors(self):
        program = firewall_program()
        assert program.action("drop").name == "drop"
        assert program.table_spec("acl").name == "acl"
        with pytest.raises(PipelineError):
            program.action("ghost")
        with pytest.raises(PipelineError):
            program.table_spec("ghost")
