"""The group law behind every table, checked against the generic ladder.

Every table in :mod:`repro.crypto.ed25519` holds points in precomputed
affine form ``(y − x, y + x, 2d·x·y)``, added by one mixed addition;
two projective points are added by ``_point_add``.

Every point of edwards25519 is ``n·G`` for ``G = B + T``, ``T`` of
order 8: the group is cyclic of order ``8·L``, so ``G`` generates it.
That gives one reference for any pair of points, including the
identity, the eight torsion points and mixed-order points: the sum of
``m·G`` and ``n·G`` is ``(m + n)·G`` by the double-and-add ladder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519
from repro.crypto.ed25519 import (
    SigningKey,
    VerifyKey,
    _BASE,
    _L,
    _P,
    _base_mul,
    _cached_negate,
    _madd,
    _point_add,
    _point_compress,
    _point_equal,
    _point_mul,
    _prepare,
    verify,
    verify_batch,
)
from repro.crypto.keys import KeyRegistry
from repro.evidence.verify import SignatureCache
from tests.crypto.test_batch_verify import _small_order_point, _torsion_signature

TORSION = _small_order_point()
GENERATOR = _point_add(_BASE, TORSION)
ORDER = 8 * _L

#: Multiples of ``G``: any point, the identity, the eight torsion points
#: (``k·L·G``), mixed-order points (``k·L + small``) and points of the
#: prime-order subgroup (multiples of 8).
_multiples = st.one_of(
    st.integers(min_value=0, max_value=ORDER - 1),
    st.sampled_from([k * _L for k in range(8)]),
    st.builds(lambda k, j: k * _L + j, st.integers(0, 7), st.integers(1, 64)),
    st.builds(lambda n: 8 * n % ORDER, st.integers(min_value=1, max_value=_L)),
)


def _scaled(point, factor):
    """The same point in other projective coordinates: every Z differs."""
    return tuple(c * factor % _P for c in point)


class TestAddition:
    @settings(max_examples=60, deadline=None)
    @given(
        m=_multiples,
        n=_multiples,
        factor=st.integers(1, _P - 1),
        other=st.integers(1, _P - 1),
    )
    def test_mixed_addition_matches_add_and_the_ladder(self, m, n, factor, other):
        p = _scaled(_point_mul(m, GENERATOR), factor)
        q = _scaled(_point_mul(n, GENERATOR), other)
        (entry,) = _prepare([q])
        expected = _point_mul((m + n) % ORDER, GENERATOR)
        assert _point_equal(_madd(p, entry), expected)
        assert _point_equal(_point_add(p, q), expected)
        assert _point_equal(_point_add(q, p), expected)
        difference = _point_mul((m - n) % ORDER, GENERATOR)
        assert _point_equal(_madd(p, _cached_negate(entry)), difference)

    def test_one_inversion_prepares_many_points(self):
        points = [_scaled(_point_mul(n, GENERATOR), n + 2) for n in range(0, 80, 7)]
        for point, entry in zip(points, _prepare(points)):
            assert _point_equal(_madd(ed25519._IDENTITY, entry), point)

    def test_torsion_points_form_the_cyclic_group_of_order_8(self):
        torsion = [_point_mul(k * _L, GENERATOR) for k in range(8)]
        encodings = {_point_compress(t) for t in torsion}
        assert len(encodings) == 8
        for i, t in enumerate(torsion):
            for j, u in enumerate(torsion):
                assert _point_equal(_point_add(t, u), torsion[(i + j) % 8])


#: Scalars at the table's edges: single windows at their extremes, the
#: top window alone, every window full, the group order around ``L``,
#: and scalars whose middle windows are zero.
BASE_SCALARS = [
    0,
    1,
    255,
    256,
    (2**248) * 255,
    2**256 - 1,
    _L - 1,
    _L,
    _L + 1,
    2**128 + 1,
    2**248 + 255,
    int.from_bytes(bytes([0xFF, 0]) * 16, "little"),
    int.from_bytes(bytes([0, 0xFF]) * 16, "little"),
]


@pytest.mark.parametrize("scalar", BASE_SCALARS)
def test_base_mul_matches_the_ladder(scalar):
    assert _point_equal(_base_mul(scalar), _point_mul(scalar, _BASE))


def _encode_order_4_point():
    """The all-zero key: ``y = 0`` decodes to ``(√−1, 0)``, of order 4."""
    point = ed25519._point_decompress(bytes(32))
    assert not _point_equal(_point_mul(2, point), ed25519._IDENTITY)
    assert _point_equal(_point_mul(4, point), ed25519._IDENTITY)
    return bytes(32)


def _weak_key_signature(r):
    """``(r·B, r)``: under a small-order key ``A`` the defect is ``−k·A``,
    small-order, so the cofactored check accepts any message."""
    return _point_compress(_base_mul(r)) + _le(r)


def _le(scalar):
    return scalar.to_bytes(32, "little")


def _edge_vectors():
    """Labelled ``(public, message, signature, verdict)`` edge inputs."""
    sk = SigningKey.from_deterministic_seed("point-forms")
    public = sk.verify_key().key_bytes
    message = b"point-forms-edge"
    genuine = sk.sign(message)
    s = int.from_bytes(genuine[32:], "little")
    small = _point_compress(TORSION)
    # ``R`` small-order and ``s = k·a``: the defect is ``−R``.
    a, _ = ed25519._secret_expand(sk.seed)
    k = ed25519._challenge(public, message, small + bytes(32))
    small_r = small + _le(k * a % _L)
    # ``A + T`` signed with ``A``'s secret: the defect is ``−k·T``.
    mixed_public = _point_compress(_point_add(_base_mul(a), TORSION))
    for r in range(5, 64):  # the first nonce whose k·T does not vanish
        r_enc = _point_compress(_base_mul(r))
        k_mixed = ed25519._challenge(mixed_public, message, r_enc + bytes(32))
        if k_mixed % 8:
            break
    mixed_signature = r_enc + _le((r + k_mixed * a) % _L)
    weak = _weak_key_signature(7)
    return {
        "genuine": (public, message, genuine, True),
        "s_plus_L": (public, message, genuine[:32] + _le(s + _L), False),
        "s_equal_L": (public, message, genuine[:32] + _le(_L), False),
        "small_order_A": (small, message, weak, True),
        "small_order_A_wrong_s": (small, message, weak[:32] + _le(8), False),
        "small_order_R": (public, message, small_r, True),
        "torsion_displaced_R": (
            public, message, _torsion_signature(sk, message, TORSION), True
        ),
        "mixed_order_A": (mixed_public, message, mixed_signature, True),
        "all_zero_key": (
            _encode_order_4_point(), message, _weak_key_signature(11), True
        ),
        "all_zero_key_genuine_sig": (bytes(32), message, genuine, False),
    }


def test_edge_vectors_agree_on_every_verification_path():
    vectors = _edge_vectors()
    honest = SigningKey.from_deterministic_seed("point-forms-honest")
    messages = [b"filler-%d" % i for i in range(3)]
    filler = [(honest.verify_key(), m, honest.sign(m)) for m in messages]
    registry = KeyRegistry()
    registry.register("honest", honest.verify_key())
    for label, (public, message, signature, expected) in vectors.items():
        assert verify(public, message, signature) is expected, label
        assert VerifyKey(public).verify(message, signature) is expected, label
        assert verify_batch([(public, message, signature)]) == [expected], label
        mixed = filler + [(public, message, signature)] + filler
        assert verify_batch(mixed) == [True] * 3 + [expected] + [True] * 3, label
        registry.register(label, VerifyKey(public))
        cache = SignatureCache()
        assert cache.verify(registry, label, message, signature) is expected, label
        batch = [("honest", m, sig, None) for _, m, sig in filler]
        batch.insert(1, (label, message, signature, None))
        assert SignatureCache().verify_batch(registry, batch) == (
            [True, expected, True, True]
        ), label

