"""Adversarial matrix for batched Ed25519 verification.

The batched path must be *indistinguishable* from sequential
verification in everything but cost: identical accept/reject sets
(including malformed-input folds), exact isolation of forged members
via bisection, deterministic randomizers (sharded campaigns must stay
byte-identical), and verify-cache accounting that matches a sequence
of single calls hit-for-hit.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519
from repro.crypto.ed25519 import (
    SigningKey,
    VerifyKey,
    _base_mul,
    _batch_randomizers,
    _multi_mul,
    _odd_multiples,
    _point_equal,
    _point_mul,
    _point_negate,
    _wnaf,
    _BASE,
    _IDENTITY,
    _L,
    verify_batch,
)
from repro.crypto.keys import KeyRegistry
from repro.util.errors import CryptoError
from repro.evidence.verify import (
    SignatureCache,
    registry_verify_batch,
)


def _signers(count):
    return [SigningKey.from_deterministic_seed(f"batch-signer-{i}") for i in range(count)]


def _batch(size, signers):
    """``size`` valid (key, message, signature) items over ``signers``."""
    items = []
    for i in range(size):
        sk = signers[i % len(signers)]
        message = f"batch-message-{i}".encode()
        items.append((sk.verify_key(), message, sk.sign(message)))
    return items


def _forge(items, index):
    """Replace item ``index``'s signature with a wrong (but canonical)
    one: a valid signature over a different message."""
    key, message, _ = items[index]
    sk = SigningKey.from_deterministic_seed("batch-forger")
    forged = list(items)
    forged[index] = (key, message, sk.sign(message))
    return forged


class TestBatchVerify:
    def test_all_valid_batch_accepts_in_one_check(self):
        items = _batch(16, _signers(4))
        stats = {}
        assert verify_batch(items, stats) == [True] * 16
        assert stats == {"batch_checks": 1}

    def test_empty_batch(self):
        assert verify_batch([]) == []

    def test_single_item_batch_matches_single_verify(self):
        items = _batch(1, _signers(1))
        assert verify_batch(items) == [True]
        key, message, signature = items[0]
        assert verify_batch([(key, message, signature[:32] + b"\x00" * 32)]) == [
            False
        ]

    @pytest.mark.parametrize("size", [2, 64, 513])
    def test_one_forgery_is_isolated_to_the_exact_index(self, size):
        signers = _signers(4)
        items = _batch(size, signers)
        forged_index = (2 * size) // 3
        forged = _forge(items, forged_index)
        stats = {}
        results = verify_batch(forged, stats)
        expected = [True] * size
        expected[forged_index] = False
        assert results == expected
        # Bisection resolved the culprit with exact single verifies at
        # the leaves, never accepting a group containing the forgery.
        assert stats.get("single_checks", 0) >= 1

    def test_two_forgeries_in_different_halves_are_both_isolated(self):
        items = _batch(64, _signers(4))
        forged = _forge(_forge(items, 5), 50)
        results = verify_batch(forged)
        expected = [True] * 64
        expected[5] = expected[50] = False
        assert results == expected

    def test_all_forged_batch_rejects_everything(self):
        items = _batch(8, _signers(2))
        forged = items
        for index in range(8):
            forged = _forge(forged, index)
        assert verify_batch(forged) == [False] * 8

    def test_accepts_raw_key_bytes_like_verify_keys(self):
        items = _batch(4, _signers(2))
        as_bytes = [(key.key_bytes, m, s) for key, m, s in items]
        assert verify_batch(as_bytes) == [True] * 4

    def test_repeated_same_signature_batches(self):
        key, message, signature = _batch(1, _signers(1))[0]
        assert verify_batch([(key, message, signature)] * 7) == [True] * 7

    def test_malformed_members_fold_to_false_without_raising(self):
        signers = _signers(2)
        items = _batch(3, signers)
        key, message, signature = items[0]
        bad_length_sig = (key, message, signature[:40])
        bad_key = (b"\x00" * 31, message, signature)
        non_point_r = (key, message, b"\xff" * 32 + signature[32:])
        non_canonical_s = (
            key,
            message,
            signature[:32] + (_L + 1).to_bytes(32, "little"),
        )
        batch = [items[1], bad_length_sig, bad_key, non_point_r, non_canonical_s, items[2]]
        assert verify_batch(batch) == [True, False, False, False, False, True]

    def test_rejection_set_matches_single_verify(self):
        """Every structurally-odd input the single path rejects (after
        its length gates), the batch rejects too — same split logic."""
        sk = _signers(1)[0]
        key = sk.verify_key()
        message = b"parity"
        good = sk.sign(message)
        candidates = [
            good,
            good[:32] + (_L - 1).to_bytes(32, "little"),  # wrong s, canonical
            good[:32] + (_L).to_bytes(32, "little"),  # s == L
            b"\xff" * 32 + good[32:],  # R not on curve
            bytes(64),
        ]
        for signature in candidates:
            assert verify_batch([(key, message, signature)]) == [
                key.verify(message, signature)
            ]

    def test_distinct_signers_go_straight_to_singles(self):
        """A 5-hop stack: one key per switch, the last hop forged. Five
        members are below the batching crossover, so they settle as five
        exact single checks and no batch equation is tried."""
        forged = _forge(_batch(5, _signers(5)), 4)
        stats = {}
        results = verify_batch(forged, stats)
        assert results == [True, True, True, True, False]
        assert results == [k.verify(m, s) for k, m, s in forged]
        assert stats == {"single_checks": 5}

    def test_one_bad_signer_is_isolated_by_signer_first(self):
        """64 items over 4 signers, one forgery: the whole batch, then
        one check per signer group of 16. The failing group halves into
        two groups of 8, below the batching crossover, whose 16 members
        are decided by exact single checks."""
        forged = _forge(_batch(64, _signers(4)), 42)
        stats = {}
        expected = [True] * 64
        expected[42] = False
        assert verify_batch(forged, stats) == expected
        assert stats == {"batch_checks": 1 + 4, "single_checks": 16}

    def test_forgeries_under_two_signers_are_both_isolated(self):
        items = _batch(64, _signers(4))
        forged = _forge(_forge(items, 5), 42)  # signers 1 and 2
        expected = [True] * 64
        expected[5] = expected[42] = False
        assert verify_batch(forged) == expected
        assert [k.verify(m, s) for k, m, s in forged] == expected

    def test_wrong_key_for_valid_signature_rejects(self):
        signers = _signers(2)
        message = b"key-swap"
        signature = signers[0].sign(message)
        assert verify_batch([(signers[1].verify_key(), message, signature)]) == [
            False
        ]

    def test_swapped_messages_reject(self):
        items = _batch(2, _signers(2))
        (k0, m0, s0), (k1, m1, s1) = items
        assert verify_batch([(k0, m1, s0), (k1, m0, s1)]) == [False, False]


def _small_order_point():
    """A point of exact order 8 (a generator of the torsion subgroup).

    The edwards25519 point group is cyclic of order 8·L, so L times any
    point outside the prime-order subgroup is small-order; probing
    hash-derived encodings finds a full-order-8 one within a few tries.
    """
    counter = 0
    while True:
        candidate = hashlib.sha512(
            b"torsion-probe" + counter.to_bytes(2, "little")
        ).digest()[:32]
        counter += 1
        try:
            point = ed25519._point_decompress(candidate)
        except CryptoError:
            continue
        torsion = _point_mul(_L, point)
        if _point_equal(torsion, _IDENTITY):
            continue
        if _point_equal(_point_mul(4, torsion), _IDENTITY):
            continue  # order 2 or 4; keep looking for full order 8
        return torsion


def _torsion_signature(sk, message, torsion):
    """A signer-side torsion forgery: ``(R + T, s)`` with ``s`` honest.

    The signer computes the challenge over the *displaced* R encoding,
    so ``s·B − k·A = R`` exactly — the verification defect is precisely
    the small-order point ``T``, the shape Chalkias et al. use to split
    cofactorless batch verification from cofactorless single
    verification.
    """
    a, prefix = ed25519._secret_expand(sk.seed)
    public = sk.verify_key().key_bytes
    r = int.from_bytes(ed25519._sha512(prefix + message), "little") % _L
    r_enc = ed25519._point_compress(
        ed25519._point_add(_base_mul(r), torsion)
    )
    k = int.from_bytes(ed25519._sha512(r_enc + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_enc + s.to_bytes(32, "little")


class TestCofactoredTorsionParity:
    """Both verification paths are cofactored, so a small-order torsion
    component in R can never make the batched and single verdicts
    diverge — the attack the deterministic randomizers would otherwise
    expose (grind messages until z_i ≡ 0 mod 8 cancels the torsion)."""

    def test_torsion_signature_accepted_consistently(self):
        # RFC 8032 §5.1.7 explicitly permits the cofactored equation;
        # what matters here is that *both* paths take it.
        sk = SigningKey.from_deterministic_seed("torsion")
        key = sk.verify_key()
        signature = _torsion_signature(sk, b"torsion-msg", _small_order_point())
        assert key.verify(b"torsion-msg", signature) is True
        assert ed25519.verify(key.key_bytes, b"torsion-msg", signature) is True
        assert verify_batch([(key, b"torsion-msg", signature)]) == [True]

    def test_grinding_messages_cannot_split_batch_from_single(self):
        """The historical attack: ~1 in 8 messages made the cofactorless
        batch accept what single verification rejected. Sweep well past
        that expected window and demand verdict parity on every one."""
        sk = SigningKey.from_deterministic_seed("torsion-grinder")
        key = sk.verify_key()
        torsion = _small_order_point()
        for i in range(32):
            message = f"grind-{i}".encode()
            signature = _torsion_signature(sk, message, torsion)
            single = key.verify(message, signature)
            assert verify_batch([(key, message, signature)]) == [single]

    @pytest.mark.parametrize("size", [2, 64])
    def test_torsion_member_in_mixed_batches_keeps_parity(self, size):
        sk = SigningKey.from_deterministic_seed("torsion")
        items = _batch(size, _signers(4))
        key = sk.verify_key()
        message = b"mixed-torsion"
        items[size // 2] = (
            key,
            message,
            _torsion_signature(sk, message, _small_order_point()),
        )
        sequential = [k.verify(m, s) for k, m, s in items]
        assert verify_batch(items) == sequential


class TestRandomizerDeterminism:
    def _prepared(self, items):
        """Mirror verify_batch's screening and R decoding to build the
        members of a group that batches."""
        prepared = []
        for index, (key, message, signature) in enumerate(items):
            r_point = ed25519._point_decompress(signature[:32])
            s = int.from_bytes(signature[32:], "little")
            assert s < _L
            k = ed25519._challenge(key.key_bytes, message, signature)
            prepared.append((index, key, message, signature, r_point, s, k))
        return prepared

    def test_same_batch_contents_same_randomizers(self):
        items = _batch(8, _signers(2))
        a = _batch_randomizers(self._prepared(items))
        b = _batch_randomizers(self._prepared(items))
        assert a == b

    def test_randomizers_are_nonzero_and_distinct_per_index(self):
        items = _batch(16, _signers(4))
        zs = _batch_randomizers(self._prepared(items))
        assert all(z != 0 for z in zs)
        assert len(set(zs)) == len(zs)

    def test_different_contents_different_randomizers(self):
        signers = _signers(2)
        a = _batch_randomizers(self._prepared(_batch(4, signers)))
        b = _batch_randomizers(self._prepared(_forge(_batch(4, signers), 1)))
        assert a != b

    def test_verdicts_stable_across_repeated_runs(self):
        """No ``random`` anywhere: repeated runs take identical paths."""
        items = _forge(_batch(9, _signers(3)), 4)
        runs = [verify_batch(items, {}) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_randomizer_transcript_is_domain_separated(self):
        """The transcript hash starts from the module's domain tag, so
        no other protocol hash in the system can collide with it."""
        assert ed25519._BATCH_DOMAIN.startswith(b"repro.crypto/")


class TestMultiScalarEquivalence:
    """The sparse-wNAF multi-scalar routine and the split key tables
    must agree with the generic double-and-add ladder."""

    SCALARS = [1, 2, 3, 7, 0xDEADBEEF, _L - 1, (1 << 252) + 12345, _L // 3]
    # Where the 32-bit parts of a key scalar can go wrong.
    BOUNDARY = [
        0,
        1,
        (1 << 32) - 1,
        1 << 32,
        (1 << 224) - 1,  # seven full parts, the top one empty
        1 << 224,
        sum(0xFFFFFFFF << (64 * j) for j in range(4)),  # alternate parts
        (1 << 128) - 1,
        1 << 128,
        (1 << 128) + 1,
        _L - 1,
        0xC0FFEE << 128,  # high half only
        (1 << 127) + 0xC0FFEE,  # low half only
    ]

    @staticmethod
    def _check_digits(scalar, width):
        digits = _wnaf(scalar, width)
        assert sum(d << p for p, d in digits) == scalar
        for _, digit in digits:
            assert digit % 2 == 1 and abs(digit) < 1 << (width - 1)
        for (low, _), (high, _) in zip(digits, digits[1:]):
            assert high - low >= width

    def test_wnaf_digits_reconstruct_the_scalar(self):
        for scalar in self.SCALARS + self.BOUNDARY:
            for width in (5, 8):
                self._check_digits(scalar, width)

    @settings(max_examples=200, deadline=None)
    @given(
        scalar=st.integers(min_value=0, max_value=(1 << 256) - 1),
        width=st.integers(min_value=2, max_value=8),
    )
    def test_sparse_wnaf_property(self, scalar, width):
        self._check_digits(scalar, width)

    def test_odd_multiples_table(self):
        point = _point_mul(9, _BASE)
        for width in (5, 8):
            table = _odd_multiples(point, width)
            assert len(table) == 1 << (width - 2)
            for i, entry in enumerate(table):
                assert _point_equal(
                    ed25519._madd(_IDENTITY, entry), _point_mul(2 * i + 1, point)
                )

    def test_wnaf_mul_matches_generic_ladder(self):
        point = _point_mul(31337, _BASE)
        for width in (5, 8):
            table = _odd_multiples(point, width)
            for scalar in self.SCALARS + self.BOUNDARY:
                assert _point_equal(
                    _multi_mul([(scalar, table, width)]),
                    _point_mul(scalar, point),
                )

    def test_multi_scalar_mul_matches_sum_of_ladders(self):
        points = [_point_mul(seed, _BASE) for seed in (5, 11, 23, 41)]
        widths = (5, 8, 5, 8)
        terms = [
            (scalar, _odd_multiples(point, width), width)
            for scalar, point, width in zip(self.SCALARS[4:], points, widths)
        ]
        expected = _IDENTITY
        for scalar, point in zip(self.SCALARS[4:], points):
            expected = ed25519._point_add(expected, _point_mul(scalar, point))
        assert _point_equal(_multi_mul(terms), expected)

    def test_multi_scalar_mul_ignores_zero_scalars(self):
        point = _point_mul(77, _BASE)
        table = _odd_multiples(point)
        assert _point_equal(
            _multi_mul([(0, table, 5), (5, table, 5)]), _point_mul(5, point)
        )
        assert _point_equal(_multi_mul([(0, table, 5)]), _IDENTITY)
        assert _point_equal(_multi_mul([]), _IDENTITY)

    def test_split_key_terms_match_generic_ladder(self):
        key = _signers(1)[0].verify_key()
        for scalar in self.BOUNDARY + self.SCALARS:
            terms = key._neg_terms(scalar)
            assert all(part < 1 << 32 for part, _, _ in terms)
            assert _point_equal(
                _multi_mul(terms), _point_mul(scalar, key.neg_point())
            )

    def test_base_mul_matches_generic_ladder(self):
        for scalar in self.SCALARS:
            assert _point_equal(_base_mul(scalar), _point_mul(scalar, _BASE))

    def test_verify_key_caches_negated_point_and_tables(self):
        key = _signers(1)[0].verify_key()
        assert _point_equal(key.neg_point(), _point_negate(key.point()))
        assert key.neg_point() is key.neg_point()
        tables = [table for _, table, _ in key._neg_terms(1)]
        again = [table for _, table, _ in key._neg_terms(2)]
        assert len(tables) == 8 and sum(len(table) for table in tables) == 128
        assert all(table is cached for table, cached in zip(tables, again))
        for part, table in enumerate(tables):
            assert _point_equal(
                ed25519._madd(_IDENTITY, table[0]),
                _point_mul(1 << (32 * part), key.neg_point()),
            )


def _fresh_terms(scalars):
    """``(z, P_i)`` fresh terms with ``P_i = (i + 1)·B``, and the
    reference ``Σ z·P`` computed as one fixed-base multiplication."""
    points, point = [], _BASE
    for _ in scalars:
        points.append(point)
        point = ed25519._point_add(point, _BASE)
    total = sum(z * (i + 1) for i, z in enumerate(scalars)) % _L
    return list(zip(scalars, points)), _base_mul(total)


def _edge_scalars(count, bits=128):
    """Randomizer-shaped scalars that stress the signed-window recoding
    at the window width ``count`` fresh terms get: 1, ``2^128 − 1``
    (every window all ones, carrying past the top one), a half digit in
    every window (kept positive), one above half in every window (a
    carry chain), and pseudo-random odd fill."""
    width = ed25519._bucket_width(count, bits)
    windows = range(bits // width)
    half = sum((1 << (width - 1)) << (width * j) for j in windows)
    above = sum(((1 << (width - 1)) + 1) << (width * j) for j in windows)
    edges = [1, 2, (1 << bits) - 1, 1 << (bits - 1), half, above]
    fill = [
        int.from_bytes(hashlib.sha512(i.to_bytes(4, "little")).digest()[:16], "little")
        | 1
        for i in range(count)
    ]
    return (edges + fill)[:count]


class TestBucketedMultiScalar:
    """Large batches sum their fresh ``R`` terms by signed-window
    buckets; small ones build width-5 tables. Both must agree with each
    other and with the generic ladder on every size around the switch."""

    THRESHOLD = ed25519._BUCKET_MIN

    def test_window_width_comes_from_the_term_count(self):
        assert ed25519._bucket_width(64, 128) == 5
        assert ed25519._bucket_width(1280, 128) == 8

    @pytest.mark.parametrize(
        "count", [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 1280]
    )
    def test_buckets_match_tables_and_the_ladder(self, count):
        fresh, expected = _fresh_terms(_edge_scalars(count))
        tabled = [
            (z, _odd_multiples(point), ed25519._NAF_WIDTH) for z, point in fresh
        ]
        assert _point_equal(_multi_mul([], fresh), expected)
        assert _point_equal(_multi_mul(tabled), expected)
        buckets = {}
        ed25519._bucket_windows(fresh, buckets)
        by_window = _IDENTITY
        for position, sums in buckets.items():
            for window_sum in sums:
                window_point = ed25519._madd(_IDENTITY, window_sum)
                by_window = ed25519._point_add(
                    by_window, _point_mul(1 << position, window_point)
                )
        assert _point_equal(by_window, expected)

    def test_fresh_terms_share_the_chain_with_tabled_terms(self):
        key = _signers(1)[0].verify_key()
        fresh, expected = _fresh_terms(_edge_scalars(self.THRESHOLD))
        scalar = _L - 12345
        expected = ed25519._point_add(
            expected, _point_mul(scalar, key.neg_point())
        )
        assert _point_equal(_multi_mul(key._neg_terms(scalar), fresh), expected)

    def test_boundary_randomizers_singly_against_the_ladder(self):
        """The edge scalars one at a time, plus all-ones scalars of
        every width from 120 to 128 bits: some width leaves a top
        window one bit short of full, whose digit plus carry is
        exactly half and must stay positive (there is no window left
        to carry into)."""
        point = _point_mul(31337, _BASE)
        all_ones = [(1 << bits) - 1 for bits in range(120, 129)]
        for z in _edge_scalars(self.THRESHOLD)[:6] + all_ones:
            fresh = [(z, point)] + [(0, point)] * (self.THRESHOLD - 1)
            assert _point_equal(_multi_mul([], fresh), _point_mul(z, point))

    def test_torsion_displaced_r_in_a_bucketed_batch_keeps_parity(self):
        sk = SigningKey.from_deterministic_seed("torsion")
        items = _batch(self.THRESHOLD + 1, _signers(4))
        key = sk.verify_key()
        message = b"bucketed-torsion"
        signature = _torsion_signature(sk, message, _small_order_point())
        items[self.THRESHOLD // 2] = (key, message, signature)
        stats = {}
        assert verify_batch(items, stats) == [True] * len(items)
        assert key.verify(message, signature) is True
        assert stats == {"batch_checks": 1}

    def test_one_forgery_in_1280_over_20_signers_is_isolated(self):
        """The whole batch, one check per signer (20 groups of 64), then
        halving inside the failing group: 32 and 16 (two checks each),
        then two groups of 8, below the batching crossover, whose 16
        members are decided by exact single checks."""
        forged = _forge(_batch(1280, _signers(20)), 777)
        stats = {}
        expected = [True] * 1280
        expected[777] = False
        assert verify_batch(forged, stats) == expected
        assert stats == {"batch_checks": 1 + 20 + 2 * 2, "single_checks": 16}


class TestMemoizedBatchParity:
    """SignatureCache.verify_batch == a sequence of .verify calls."""

    def _registry(self, signers):
        registry = KeyRegistry()
        for i, sk in enumerate(signers):
            registry.register(f"sw{i}", sk.verify_key())
        return registry

    def _items(self, signers, count, forge_at=()):
        items = []
        for i in range(count):
            owner = f"sw{i % len(signers)}"
            message = f"cache-message-{i % 5}".encode()
            signature = signers[i % len(signers)].sign(message)
            if i in forge_at:
                signature = signature[:32] + bytes(32)
            items.append((owner, message, signature, None))
        items.append(("unknown-place", b"m", bytes(64), None))
        return items

    @pytest.mark.parametrize("forge_at", [(), (3,), (0, 7, 11)])
    def test_verdicts_stats_and_cache_state_match_sequential(self, forge_at):
        signers = _signers(3)
        registry = self._registry(signers)
        items = self._items(signers, 12, forge_at=forge_at)

        truth = [registry.verify(o, m, s) for o, m, s, _ in items]
        sequential_cache = SignatureCache()
        sequential = [
            sequential_cache.verify(registry, o, m, s, message_digest=d)
            for o, m, s, d in items
        ]
        batched_cache = SignatureCache()
        batched = registry_verify_batch(registry, items, cache=batched_cache)

        assert batched == sequential == truth
        assert batched_cache.stats == sequential_cache.stats
        assert list(batched_cache._verdicts.items()) == list(
            sequential_cache._verdicts.items()
        )

    def test_in_batch_duplicates_count_as_hits(self):
        signers = _signers(1)
        registry = self._registry(signers)
        message = b"dup"
        signature = signers[0].sign(message)
        cache = SignatureCache()
        assert registry_verify_batch(
            registry, [("sw0", message, signature, None)] * 5, cache=cache
        ) == [True] * 5
        assert cache.stats.misses == 1
        assert cache.stats.hits == 4

    def test_second_batch_is_all_hits(self):
        signers = _signers(2)
        registry = self._registry(signers)
        items = self._items(signers, 6)[:-1]  # drop the unknown signer
        cache = SignatureCache()
        first = registry_verify_batch(registry, items, cache=cache)
        misses = cache.stats.misses
        second = registry_verify_batch(registry, items, cache=cache)
        assert first == second
        assert cache.stats.misses == misses  # no new crypto work

    def test_eviction_order_matches_sequential(self):
        signers = _signers(1)
        registry = self._registry(signers)
        items = []
        for i in range(6):
            message = f"evict-{i}".encode()
            items.append(("sw0", message, signers[0].sign(message), None))
        sequential_cache = SignatureCache(maxsize=4)
        for o, m, s, d in items:
            sequential_cache.verify(registry, o, m, s, message_digest=d)
        batched_cache = SignatureCache(maxsize=4)
        assert registry_verify_batch(registry, items, cache=batched_cache) == [
            registry.verify(o, m, s) for o, m, s, _ in items
        ]
        assert list(batched_cache._verdicts.items()) == list(
            sequential_cache._verdicts.items()
        )


def test_randomizer_pin():
    """Golden pin: the deterministic randomizer derivation is part of
    the reproducibility contract (sharded campaigns replay the exact
    same batch checks). Changing the transcript layout or domain is a
    breaking change to recorded-run comparability — update docs/CRYPTO.md
    if this moves."""
    sk = SigningKey.from_deterministic_seed("pin")
    message = b"pinned-message"
    signature = sk.sign(message)
    key = sk.verify_key()
    k = ed25519._challenge(key.key_bytes, message, signature)
    r_point = ed25519._point_decompress(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    assert s < _L
    member = (0, key, message, signature, r_point, s, k)
    [z] = _batch_randomizers([member])
    assert z != 0 and z < (1 << 128)
    assert z & 1, "randomizers must be odd (torsion-cancellation guard)"
    expected = hashlib.sha512(
        ed25519._BATCH_DOMAIN
        + (1).to_bytes(4, "little")
        + key.key_bytes
        + signature
        + k.to_bytes(32, "little")
    ).digest()
    rederived = hashlib.sha512(
        expected + (0).to_bytes(4, "little") + (0).to_bytes(4, "little")
    ).digest()
    assert z == int.from_bytes(rederived[:16], "little") | 1
