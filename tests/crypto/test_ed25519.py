"""Tests for the from-scratch Ed25519 implementation.

Includes the RFC 8032 §7.1 test vectors — the implementation must be
bit-compatible with real Ed25519, not merely self-consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ed25519 import (
    SIGNATURE_LEN,
    SigningKey,
    VerifyKey,
    public_key_bytes,
    sign,
    verify,
)
from repro.util.errors import CryptoError

# RFC 8032 §7.1 TEST 1-3.
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


class TestRfc8032Vectors:
    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex", RFC8032_VECTORS)
    def test_public_key_derivation(self, seed_hex, pub_hex, msg_hex, sig_hex):
        assert public_key_bytes(bytes.fromhex(seed_hex)).hex() == pub_hex

    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex", RFC8032_VECTORS)
    def test_signature_matches_vector(self, seed_hex, pub_hex, msg_hex, sig_hex):
        sig = sign(bytes.fromhex(seed_hex), bytes.fromhex(msg_hex))
        assert sig.hex() == sig_hex

    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex", RFC8032_VECTORS)
    def test_vector_verifies(self, seed_hex, pub_hex, msg_hex, sig_hex):
        assert verify(
            bytes.fromhex(pub_hex), bytes.fromhex(msg_hex), bytes.fromhex(sig_hex)
        )


class TestSignVerify:
    def test_round_trip(self):
        key = SigningKey.from_deterministic_seed("switch-1")
        sig = key.sign(b"evidence")
        assert key.verify_key().verify(b"evidence", sig)

    def test_wrong_message_rejected(self):
        key = SigningKey.from_deterministic_seed("switch-1")
        sig = key.sign(b"evidence")
        assert not key.verify_key().verify(b"forged", sig)

    def test_wrong_key_rejected(self):
        k1 = SigningKey.from_deterministic_seed("a")
        k2 = SigningKey.from_deterministic_seed("b")
        sig = k1.sign(b"m")
        assert not k2.verify_key().verify(b"m", sig)

    def test_bit_flipped_signature_rejected(self):
        key = SigningKey.from_deterministic_seed("x")
        sig = bytearray(key.sign(b"m"))
        sig[0] ^= 0x01
        assert not key.verify_key().verify(b"m", bytes(sig))

    def test_signature_length(self):
        key = SigningKey.from_deterministic_seed("x")
        assert len(key.sign(b"m")) == SIGNATURE_LEN

    def test_deterministic_keys(self):
        a = SigningKey.from_deterministic_seed("same")
        b = SigningKey.from_deterministic_seed("same")
        assert a.verify_key() == b.verify_key()

    def test_malformed_lengths_raise(self):
        key = SigningKey.from_deterministic_seed("x")
        with pytest.raises(CryptoError):
            verify(b"short", b"m", key.sign(b"m"))
        with pytest.raises(CryptoError):
            key.verify_key().verify(b"m", b"short")
        with pytest.raises(CryptoError):
            VerifyKey(b"short")
        with pytest.raises(CryptoError):
            SigningKey(b"short")

    def test_high_s_rejected(self):
        # Malleability guard: s >= L must be rejected.
        key = SigningKey.from_deterministic_seed("x")
        sig = key.sign(b"m")
        bad = sig[:32] + b"\xff" * 32
        assert not key.verify_key().verify(b"m", bad)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=64))
    def test_sign_verify_property(self, message):
        key = SigningKey.from_deterministic_seed("prop")
        assert key.verify_key().verify(message, key.sign(message))


class TestFastMathEquivalence:
    """The windowed base table and Shamir double-scalar trick must be
    drop-in equivalent to plain double-and-add on the same curve."""

    def scalars(self):
        from repro.crypto.ed25519 import _L

        return [0, 1, 2, 7, _L - 1, _L + 5, 2**252 + 1, 0xDEADBEEF]

    def test_base_mul_matches_generic_ladder(self):
        from repro.crypto.ed25519 import (
            _BASE,
            _base_mul,
            _point_equal,
            _point_mul,
        )

        for scalar in self.scalars():
            assert _point_equal(_base_mul(scalar), _point_mul(scalar, _BASE))

    def test_double_scalar_mul_matches_two_ladders(self):
        from repro.crypto.ed25519 import (
            _BASE,
            _multi_mul,
            _odd_multiples,
            _point_add,
            _point_equal,
            _point_mul,
        )

        other = _point_mul(9, _BASE)
        base_table = _odd_multiples(_BASE, 5)
        other_table = _odd_multiples(other, 8)
        for k1 in (0, 3, 0xABCDEF, 2**250 + 11):
            for k2 in (0, 5, 0x123456789):
                combined = _multi_mul([(k1, base_table, 5), (k2, other_table, 8)])
                separate = _point_add(
                    _point_mul(k1, _BASE), _point_mul(k2, other)
                )
                assert _point_equal(combined, separate)

    def test_point_double_matches_add_with_self(self):
        from repro.crypto.ed25519 import (
            _BASE,
            _point_add,
            _point_double,
            _point_equal,
            _point_mul,
        )

        for scalar in (1, 2, 42, 2**200 + 3):
            point = _point_mul(scalar, _BASE)
            assert _point_equal(_point_double(point), _point_add(point, point))

    def test_negate_cancels(self):
        from repro.crypto.ed25519 import (
            _BASE,
            _IDENTITY,
            _point_add,
            _point_equal,
            _point_negate,
        )

        assert _point_equal(_point_add(_BASE, _point_negate(_BASE)), _IDENTITY)

    def test_compressing_a_non_point_raises(self):
        """``Z ≡ 0`` has no inverse: compression must refuse, not encode
        whatever a zero inverse would give."""
        from repro.crypto.ed25519 import _P, _point_compress

        with pytest.raises(CryptoError):
            _point_compress((1, 1, 0, 1))
        with pytest.raises(CryptoError):
            _point_compress((3, 4, _P, 5))

    def test_verify_key_point_is_cached(self):
        from repro.crypto.ed25519 import SigningKey

        key = SigningKey.from_deterministic_seed("cache-pin").verify_key()
        assert key.point() is key.point()

    @settings(max_examples=30, deadline=None)
    @given(message=st.binary(max_size=64), seed=st.text(min_size=1, max_size=8))
    def test_fast_sign_verify_round_trip_property(self, message, seed):
        from repro.crypto.ed25519 import SigningKey

        key = SigningKey.from_deterministic_seed(seed)
        assert key.verify_key().verify(message, key.sign(message))
