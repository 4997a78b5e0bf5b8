"""Tests for the span recorder: nesting, clocks, bounding, no-op path."""

from repro.telemetry.spans import NULL_SPAN, SpanRecorder, _NullSpan
from repro.util.clock import SimClock


class TestSpans:
    def test_records_both_clocks(self):
        clock = SimClock()
        rec = SpanRecorder(clock)
        with rec.span("work") as span:
            clock.advance_to(2.5)
        assert span.sim_start == 0.0
        assert span.sim_end == 2.5
        assert span.wall_duration >= 0.0
        assert rec.records == [span]

    def test_nesting_tracks_depth(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                pass
        assert outer.depth == 0
        assert inner.depth == 1
        # Finished inner-first (completion order).
        assert [s.name for s in rec.records] == ["inner", "outer"]

    def test_depth_recovers_after_exit(self):
        rec = SpanRecorder()
        with rec.span("a"):
            pass
        with rec.span("b") as b:
            pass
        assert b.depth == 0

    def test_note_attaches_args(self):
        rec = SpanRecorder()
        with rec.span("lookup", table="ipv4_lpm") as span:
            span.note(hit=True)
        assert span.args == {"table": "ipv4_lpm", "hit": True}

    def test_bind_clock_rebinds_sim_timestamps(self):
        rec = SpanRecorder()
        late = SimClock()
        late.advance_to(10.0)
        rec.bind_clock(late)
        with rec.span("x") as span:
            pass
        assert span.sim_start == 10.0

    def test_ring_bounds_finished_spans(self):
        rec = SpanRecorder(max_spans=2)
        for i in range(5):
            with rec.span(f"s{i}"):
                pass
        assert len(rec) == 2
        assert rec.dropped == 3
        assert [s.name for s in rec.records] == ["s3", "s4"]

    def test_clear(self):
        rec = SpanRecorder()
        with rec.span("x"):
            pass
        rec.clear()
        assert len(rec) == 0


class TestNullSpan:
    def test_noop_context_manager(self):
        with NULL_SPAN as span:
            span.note(anything="goes")
        assert isinstance(span, _NullSpan)

    def test_exceptions_propagate(self):
        try:
            with NULL_SPAN:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("null span swallowed the exception")

    def test_shared_singleton_has_no_state(self):
        assert not hasattr(NULL_SPAN, "__dict__")
