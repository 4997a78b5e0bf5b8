"""Tests for id allocation and the simulated clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.clock import SimClock
from repro.util.ids import IdAllocator, short_id


class TestIdAllocator:
    def test_sequential_within_namespace(self):
        alloc = IdAllocator()
        assert [alloc.next("a") for _ in range(3)] == [1, 2, 3]

    def test_namespaces_independent(self):
        alloc = IdAllocator()
        alloc.next("a")
        assert alloc.next("b") == 1

    def test_custom_start(self):
        assert IdAllocator(start=100).next() == 100


class TestShortId:
    def test_deterministic(self):
        assert short_id(b"abc") == short_id(b"abc")

    def test_distinct_content_distinct_id(self):
        assert short_id(b"abc") != short_id(b"abd")

    def test_length_respected(self):
        assert len(short_id(b"abc", length=12)) == 12

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            short_id(b"x", length=0)
        with pytest.raises(ValueError):
            short_id(b"x", length=65)

    @given(st.binary(max_size=64), st.integers(min_value=1, max_value=64))
    def test_always_hex(self, content, length):
        token = short_id(content, length)
        assert len(token) == length
        int(token, 16)  # must parse as hex


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_forward_only(self):
        clock = SimClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=20))
    def test_monotonic(self, deltas):
        clock = SimClock()
        last = clock.now
        for delta in deltas:
            clock.advance(delta)
            assert clock.now >= last
            last = clock.now
