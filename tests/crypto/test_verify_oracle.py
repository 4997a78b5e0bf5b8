"""Verification against the cofactored equation, evaluated the direct way.

``VerifyKey.verify`` compares the encoding of ``s·B + k·(−A)`` with the
signature's ``R`` bytes first and decodes ``R`` only on a mismatch;
``verify_batch`` settles small groups member by member and decodes
``R`` only for groups that batch. Neither shortcut may move the accept
set. The reference below decodes ``R``, checks ``s < L`` and evaluates
``[8](s·B − k·A − R) == 0`` with the generic double-and-add ladder, on
honest signatures and on each way a signature can be malformed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519
from repro.crypto.ed25519 import (
    SigningKey,
    _BASE,
    _IDENTITY,
    _L,
    _P,
    _point_add,
    _point_decompress,
    _point_equal,
    _point_mul,
    _point_negate,
    verify_batch,
)
from repro.util.errors import CryptoError
from tests.crypto.test_batch_verify import _small_order_point, _torsion_signature

CROSSOVER = ed25519._BATCH_MIN
SIGNERS = [SigningKey.from_deterministic_seed(f"oracle-{i}") for i in range(4)]
# One key object per signer, so its tables are built once for the module.
KEYS = [signer.verify_key() for signer in SIGNERS]
TORSION = _small_order_point()


def _reference_verify(public, message, signature):
    """Decode ``R``, check ``s < L``, then ``[8](s·B − k·A − R) == 0``."""
    try:
        a_point = _point_decompress(public)
        r_point = _point_decompress(signature[:32])
    except CryptoError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = ed25519._challenge(public, message, signature)
    defect = _point_add(_point_mul(s, _BASE), _point_negate(_point_mul(k, a_point)))
    defect = _point_add(defect, _point_negate(r_point))
    return _point_equal(_point_mul(8, defect), _IDENTITY)


def _flip(data, bit):
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def _non_canonical_r(y, sign_bit):
    return ((y + _P) | sign_bit << 255).to_bytes(32, "little")


def _negated_r_signature(signer, message):
    """``(enc(−R), s)`` with ``s = r + k·a`` for the challenge over
    ``enc(−R)``: ``s·B − k·A`` is ``R``, whose encoding differs from the
    signature's only in the sign bit. The equation rejects it
    (``[8]·2R ≠ 0``), so the comparison must cover every bit."""
    a, prefix = ed25519._secret_expand(signer.seed)
    public = signer.verify_key().key_bytes
    r = int.from_bytes(ed25519._sha512(prefix + message), "little") % _L
    r_bytes = ed25519._point_compress(_point_negate(ed25519._base_mul(r)))
    k = ed25519._challenge(public, message, r_bytes)
    return r_bytes + ((r + k * a) % _L).to_bytes(32, "little")


@st.composite
def _signed_cases(draw):
    """``(key, message, signature)``: honest or damaged in one way."""
    index = draw(st.integers(0, len(SIGNERS) - 1))
    signer, key = SIGNERS[index], KEYS[index]
    message = draw(st.binary(min_size=1, max_size=40))
    signature = signer.sign(message)
    kind = draw(
        st.sampled_from(
            ["honest", "flip_r", "flip_s", "flip_message", "torsion_r",
             "negated_r", "non_canonical_r", "s_at_least_l"]
        )
    )
    if kind == "flip_r":
        signature = _flip(signature, draw(st.integers(0, 255)))
    elif kind == "flip_s":
        signature = _flip(signature, draw(st.integers(256, 511)))
    elif kind == "flip_message":
        message = _flip(message, draw(st.integers(0, 8 * len(message) - 1)))
    elif kind == "torsion_r":
        torsion = _point_mul(draw(st.integers(1, 7)), TORSION)
        signature = _torsion_signature(signer, message, torsion)
    elif kind == "negated_r":
        signature = _negated_r_signature(signer, message)
    elif kind == "non_canonical_r":
        # ``y + p`` for every ``y < 19``, and ``x = 0`` with the sign
        # bit set (``y = 1`` is the identity, ``y = p − 1`` has order 2).
        r_bytes = draw(
            st.one_of(
                st.builds(_non_canonical_r, st.integers(0, 18), st.integers(0, 1)),
                st.sampled_from(
                    [(1 | 1 << 255).to_bytes(32, "little"),
                     (_P - 1 | 1 << 255).to_bytes(32, "little")]
                ),
            )
        )
        signature = r_bytes + signature[32:]
    elif kind == "s_at_least_l":
        s = int.from_bytes(signature[32:], "little")
        wide = draw(st.one_of(st.just(s + _L), st.integers(_L, (1 << 256) - 1)))
        signature = signature[:32] + wide.to_bytes(32, "little")
    return key, message, signature


@settings(deadline=None)
@given(case=_signed_cases())
def test_verify_equals_the_direct_equation(case):
    key, message, signature = case
    expected = _reference_verify(key.key_bytes, message, signature)
    assert key.verify(message, signature) is expected
    assert verify_batch([(key, message, signature)]) == [expected]


def _mixed_batch(decodable):
    """``decodable`` members over four signers that pass the screen and
    whose ``R`` decodes — two forgeries and a torsion-displaced ``R``
    among them — plus an ``s + L`` member and two members whose ``R``
    is not a point, interleaved."""
    items = []
    for i in range(decodable):
        signer, key = SIGNERS[i % 4], KEYS[i % 4]
        message = b"mixed-%d" % i
        items.append((key, message, signer.sign(message)))
    for i in (1, decodable // 2):  # wrong signer: a canonical forgery
        key, message, _ = items[i]
        items[i] = (key, message, SIGNERS[(i + 1) % 4].sign(message))
    key, message, _ = items[2]
    items[2] = (key, message, _torsion_signature(SIGNERS[2], message, TORSION))
    key, message, signature = items[3]
    s = int.from_bytes(signature[32:], "little")
    items.insert(3, (key, message, signature[:32] + (s + _L).to_bytes(32, "little")))
    no_root = b"\x02" + bytes(31)  # y = 2 has no x on the curve
    items.insert(5, (KEYS[0], b"no-root", no_root + items[0][2][32:]))
    items.append((KEYS[1], b"y-at-least-p", b"\xff" * 32 + items[0][2][32:]))
    return items


@pytest.mark.parametrize(
    "decodable", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 64]
)
def test_verify_batch_equals_per_item_verify(decodable):
    items = _mixed_batch(decodable)
    stats = {}
    results = verify_batch(items, stats)
    assert results == [key.verify(m, s) for key, m, s in items]
    assert results.count(False) == 5
    assert ("batch_checks" in stats) is (decodable >= CROSSOVER)


class TestSquareRoots:
    """``_recover_x`` is the ~95 µs square root behind every ``R``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        recover = ed25519._recover_x

        def counted(y, sign_bit):
            counter.append(y)
            return recover(y, sign_bit)

        for key in KEYS:
            key.point()  # the key points are decoded once, up front
        monkeypatch.setattr(ed25519, "_recover_x", counted)
        return counter

    def test_honest_signatures_decode_no_r(self, calls):
        message = b"no-square-root"
        signature = SIGNERS[0].sign(message)
        assert KEYS[0].verify(message, signature) is True
        below = [
            (KEYS[i % 4], b"below-%d" % i, SIGNERS[i % 4].sign(b"below-%d" % i))
            for i in range(CROSSOVER - 1)
        ]
        assert verify_batch(below) == [True] * len(below)
        assert calls == []

    def test_a_forgery_decodes_its_r_once(self, calls):
        message = b"forged-once"
        forged = SIGNERS[1].sign(message)
        assert KEYS[0].verify(message, forged) is False
        assert len(calls) == 1

    def test_a_batching_group_decodes_each_r_once(self, calls):
        """A failing group of one signer bisects down to singles, which
        reuse the decoded ``R`` instead of decoding it again."""
        items = [
            (KEYS[0], b"group-%d" % i, SIGNERS[0].sign(b"group-%d" % i))
            for i in range(CROSSOVER)
        ]
        key, message, _ = items[5]
        items[5] = (key, message, SIGNERS[1].sign(message))
        stats = {}
        expected = [True] * CROSSOVER
        expected[5] = False
        assert verify_batch(items, stats) == expected
        assert stats == {"batch_checks": 1, "single_checks": CROSSOVER}
        assert len(calls) == CROSSOVER
