"""Tests for key pairs and the trust-anchor registry."""

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.util.errors import CryptoError


class TestKeyPair:
    def test_generate_deterministic(self):
        assert KeyPair.generate("s1").verify_key == KeyPair.generate("s1").verify_key

    def test_distinct_owners_distinct_keys(self):
        assert KeyPair.generate("s1").verify_key != KeyPair.generate("s2").verify_key

    def test_sign_verifies(self):
        pair = KeyPair.generate("s1")
        assert pair.verify_key.verify(b"m", pair.sign(b"m"))


class TestKeyRegistry:
    def test_register_and_lookup(self):
        reg = KeyRegistry()
        pair = KeyPair.generate("s1")
        reg.register_pair(pair)
        assert reg.lookup("s1") == pair.verify_key

    def test_unknown_lookup_none(self):
        assert KeyRegistry().lookup("ghost") is None

    def test_reregister_same_key_ok(self):
        reg = KeyRegistry()
        pair = KeyPair.generate("s1")
        reg.register_pair(pair)
        reg.register_pair(pair)
        assert len(reg) == 1

    def test_conflicting_key_rejected(self):
        reg = KeyRegistry()
        reg.register("s1", KeyPair.generate("s1").verify_key)
        with pytest.raises(CryptoError, match="different key"):
            reg.register("s1", KeyPair.generate("other").verify_key)

    def test_verify_against_registered(self):
        reg = KeyRegistry()
        pair = KeyPair.generate("s1")
        reg.register_pair(pair)
        assert reg.verify("s1", b"m", pair.sign(b"m"))

    def test_verify_unknown_signer_false(self):
        pair = KeyPair.generate("s1")
        assert not KeyRegistry().verify("s1", b"m", pair.sign(b"m"))

    def test_verify_malformed_signature_false_not_raise(self):
        reg = KeyRegistry()
        reg.register_pair(KeyPair.generate("s1"))
        assert not reg.verify("s1", b"m", b"garbage")

    def test_iteration_sorted(self):
        reg = KeyRegistry()
        for name in ["zeta", "alpha", "mid"]:
            reg.register_pair(KeyPair.generate(name))
        assert [name for name, _ in reg] == ["alpha", "mid", "zeta"]
