"""Tests for measurement digests and hash chains."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    DIGEST_LEN,
    HashChain,
    digest,
    measure_mapping,
)


class TestDigest:
    def test_length(self):
        assert len(digest(b"x")) == DIGEST_LEN

    def test_domain_separation(self):
        assert digest(b"x", domain="a") != digest(b"x", domain="b")

    def test_domain_boundary_unambiguous(self):
        # ("ab", b"c") must differ from ("a", b"bc"): length-prefixed tag.
        assert digest(b"c", domain="ab") != digest(b"bc", domain="a")

    def test_empty_domain_still_tagged(self):
        # Even the empty domain prepends a 2-byte length, so the result
        # differs from a raw sha256.
        assert digest(b"x") != hashlib.sha256(b"x").digest()

    @given(st.binary(max_size=128), st.binary(max_size=128))
    def test_injective_on_distinct_inputs(self, a, b):
        if a != b:
            assert digest(a) != digest(b)


class TestMeasureMapping:
    def test_order_independent(self):
        a = {"t1": b"x", "t2": b"y"}
        b = dict(reversed(list(a.items())))
        assert measure_mapping(a, "tables") == measure_mapping(b, "tables")

    def test_value_change_detected(self):
        assert measure_mapping({"t": b"x"}, "d") != measure_mapping({"t": b"y"}, "d")

    def test_key_change_detected(self):
        assert measure_mapping({"a": b"x"}, "d") != measure_mapping({"b": b"x"}, "d")

    def test_empty_mapping_valid(self):
        assert len(measure_mapping({}, "d")) == DIGEST_LEN

    def test_key_value_boundary_unambiguous(self):
        # {"ab": b"c"} vs {"a": b"bc"} must differ (length prefixes).
        assert measure_mapping({"ab": b"c"}, "d") != measure_mapping({"a": b"bc"}, "d")

    @given(
        st.dictionaries(st.text(max_size=8), st.binary(max_size=16), max_size=8),
        st.dictionaries(st.text(max_size=8), st.binary(max_size=16), max_size=8),
    )
    def test_equal_iff_same_mapping(self, m1, m2):
        same = measure_mapping(m1, "d") == measure_mapping(m2, "d")
        assert same == (m1 == m2)


class TestHashChain:
    def test_genesis_head(self):
        assert HashChain().head == b"\x00" * DIGEST_LEN

    def test_extend_changes_head(self):
        chain = HashChain()
        before = chain.head
        chain.extend(b"link")
        assert chain.head != before
        assert chain.length == 1

    def test_replay_matches_incremental(self):
        links = [b"a", b"b", b"c"]
        chain = HashChain()
        for link in links:
            chain.extend(link)
        assert HashChain.replay(links) == chain.head

    def test_order_sensitive(self):
        assert HashChain.replay([b"a", b"b"]) != HashChain.replay([b"b", b"a"])

    def test_tamper_detected(self):
        assert HashChain.replay([b"a", b"b"]) != HashChain.replay([b"a", b"B"])

    def test_bad_head_length_rejected(self):
        with pytest.raises(ValueError):
            HashChain(head=b"short")

    def test_replay_from_custom_start(self):
        start = digest(b"prior-state")
        assert HashChain.replay([b"x"], start=start) == HashChain.replay(
            [b"x"], start=start
        )
        assert HashChain.replay([b"x"], start=start) != HashChain.replay([b"x"])

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=10))
    def test_prefix_heads_differ_from_full(self, links):
        full = HashChain.replay(links)
        prefix = HashChain.replay(links[:-1])
        assert full != prefix
