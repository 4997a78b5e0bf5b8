"""Unit and property tests for repro.util.bits."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import checksum16


class TestChecksum16:
    def test_known_vector(self):
        # Classic RFC 1071 worked example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert checksum16(data) == 0x220D

    def test_odd_length_padded(self):
        assert checksum16(b"\xff") == checksum16(b"\xff\x00")

    def test_all_zero(self):
        assert checksum16(b"\x00\x00") == 0xFFFF

    @given(st.binary(min_size=0, max_size=64))
    def test_checksum_in_range(self, data):
        assert 0 <= checksum16(data) <= 0xFFFF

    @given(st.binary(min_size=2, max_size=64).filter(lambda d: len(d) % 2 == 0))
    def test_inserting_checksum_validates(self, data):
        # A message whose checksum field holds checksum16(rest) sums to 0.
        csum = checksum16(data)
        whole = data + csum.to_bytes(2, "big")
        assert checksum16(whole) == 0

