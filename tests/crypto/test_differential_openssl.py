"""Differential oracle: the from-scratch Ed25519 against OpenSSL.

``cryptography`` (OpenSSL underneath) is a test oracle only; ``src/``
never imports it. Signing is deterministic, so public keys and
signatures must be byte-identical for every seed and message. For
verification the two implementations agree on everything except an
enumerated set of inputs, which docs/CRYPTO.md lists:

- a verification defect that is a non-zero small-order point (a
  torsion-displaced ``R``, or a mixed-order public key). Our check is
  cofactored and accepts; OpenSSL's is cofactorless and rejects.
- a public key encoded non-canonically (``y ≥ p``, or ``x = 0`` with
  the sign bit set). OpenSSL reduces the encoding and accepts the
  signature; we reject the key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.ed25519 import (  # noqa: E402
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from repro.crypto import ed25519  # noqa: E402
from repro.crypto.ed25519 import (  # noqa: E402
    SigningKey,
    VerifyKey,
    _L,
    _P,
    public_key_bytes,
    sign,
    verify,
    verify_batch,
)
from tests.crypto.test_batch_verify import (  # noqa: E402
    _small_order_point,
    _torsion_signature,
)


def _openssl_verify(public, message, signature):
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def _our_verify(public, message, signature):
    """The one-shot, key-object and batched verdicts, required equal."""
    single = verify(public, message, signature)
    assert VerifyKey(public).verify(message, signature) == single
    assert verify_batch([(public, message, signature)]) == [single]
    return single


@settings(max_examples=50, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), message=st.binary(max_size=256))
def test_keys_and_signatures_byte_identical_to_openssl(seed, message):
    private = Ed25519PrivateKey.from_private_bytes(seed)
    assert public_key_bytes(seed) == private.public_key().public_bytes_raw()
    assert sign(seed, message) == private.sign(message)


def _mixed_order_signature(sk, message, torsion):
    """Sign under ``A + T`` (``T`` small-order) with ``A``'s secret.

    The challenge binds the displaced key, so the verification defect
    is exactly ``k·T``: zero after the cofactor, non-zero without it
    whenever ``k`` is not a multiple of ``T``'s order.
    """
    a, prefix = ed25519._secret_expand(sk.seed)
    public = ed25519._point_compress(
        ed25519._point_add(ed25519._base_mul(a), torsion)
    )
    r = int.from_bytes(ed25519._sha512(prefix + message), "little") % _L
    r_enc = ed25519._point_compress(ed25519._base_mul(r))
    k = int.from_bytes(ed25519._sha512(r_enc + public + message), "little") % _L
    assert k % 8, "pick another message: k·T must not vanish"
    return public, r_enc + ((r + k * a) % _L).to_bytes(32, "little")


def _flip(data, bit):
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _cases():
    """Labelled ``(public, message, signature)`` verification inputs."""
    sk = SigningKey.from_deterministic_seed("differential")
    other = SigningKey.from_deterministic_seed("differential-other")
    public = sk.verify_key().key_bytes
    message = b"differential-message"
    genuine = sk.sign(message)
    s = int.from_bytes(genuine[32:], "little")
    identity = (1).to_bytes(32, "little")
    # s·B against the identity key: every challenge multiplies to zero.
    weak = ed25519._point_compress(ed25519._base_mul(5)) + (5).to_bytes(32, "little")
    off_curve = b"\x02" + b"\x00" * 31  # y = 2 has no square root
    torsion = _small_order_point()
    mixed_public, mixed_signature = _mixed_order_signature(sk, message, torsion)
    cases = {
        "genuine": (public, message, genuine),
        "wrong_key": (other.verify_key().key_bytes, message, genuine),
        "s_plus_L": (public, message, genuine[:32] + (s + _L).to_bytes(32, "little")),
        "s_all_ones": (public, message, genuine[:32] + b"\xff" * 32),
        "R_off_curve": (public, message, off_curve + genuine[32:]),
        # The identity as R with s = 0 under the identity key: accepted
        # when R is canonical, so only the encoding decides these.
        "R_identity_canonical": (identity, message, identity + bytes(32)),
        "R_identity_y_plus_p": (
            identity, message, (_P + 1).to_bytes(32, "little") + bytes(32)
        ),
        "R_identity_sign_bit": (
            identity, message, ((1 << 255) | 1).to_bytes(32, "little") + bytes(32)
        ),
        "A_off_curve": (off_curve, message, genuine),
        "A_identity_canonical": (identity, message, weak),
        "A_identity_y_plus_p": ((_P + 1).to_bytes(32, "little"), message, weak),
        "A_identity_sign_bit": (((1 << 255) | 1).to_bytes(32, "little"), message, weak),
        "torsion_displaced_R": (
            public, message, _torsion_signature(sk, message, torsion)
        ),
        "mixed_order_A": (mixed_public, message, mixed_signature),
    }
    for bit in (0, 7, 100, 255, 256, 300, 511):
        cases[f"signature_bit_{bit}"] = (public, message, _flip(genuine, bit))
    for bit in (0, 42, len(message) * 8 - 1):
        cases[f"message_bit_{bit}"] = (public, _flip(message, bit), genuine)
    return cases


#: Every input on which the two implementations disagree, with our
#: verdict. Cofactored acceptance of a small-order defect, and strict
#: rejection of non-canonical key encodings (docs/CRYPTO.md).
DISAGREEMENTS = {
    "torsion_displaced_R": True,
    "mixed_order_A": True,
    "A_identity_y_plus_p": False,
    "A_identity_sign_bit": False,
}


class TestVerifyAgainstOpenSSL:
    def test_disagreement_set_is_exactly_the_enumerated_one(self):
        ours = {}
        disagreements = {}
        for label, (public, message, signature) in _cases().items():
            ours[label] = _our_verify(public, message, signature)
            if ours[label] != _openssl_verify(public, message, signature):
                disagreements[label] = ours[label]
        assert disagreements == DISAGREEMENTS
        assert ours["genuine"] and ours["R_identity_canonical"]
        assert ours["A_identity_canonical"]

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        message=st.binary(min_size=1, max_size=64),
        bit=st.integers(min_value=0, max_value=511),
    )
    def test_genuine_and_bit_flipped_verdicts_agree(self, seed, message, bit):
        public = public_key_bytes(seed)
        signature = sign(seed, message)
        for candidate in (signature, _flip(signature, bit)):
            assert _our_verify(public, message, candidate) == _openssl_verify(
                public, message, candidate
            )
        flipped = _flip(message, bit % (len(message) * 8))
        assert _our_verify(public, flipped, signature) is False
        assert _openssl_verify(public, flipped, signature) is False
