"""The memoized signature verifier (repro.evidence.verify)."""

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence import SignatureCache, registry_verify_batch, shared_cache


def make_anchors(*names):
    anchors = KeyRegistry()
    pairs = {}
    for name in names:
        pairs[name] = KeyPair.generate(name)
        anchors.register_pair(pairs[name])
    return anchors, pairs


class TestSignatureCache:
    def test_verdicts_are_memoized(self):
        anchors, pairs = make_anchors("s1")
        message = b"payload"
        signature = pairs["s1"].sign(message)
        cache = SignatureCache()
        assert cache.verify(anchors, "s1", message, signature)
        assert cache.verify(anchors, "s1", message, signature)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_negative_verdicts_are_memoized_too(self):
        anchors, pairs = make_anchors("s1")
        forged = pairs["s1"].sign(b"other")
        cache = SignatureCache()
        assert not cache.verify(anchors, "s1", b"payload", forged)
        assert not cache.verify(anchors, "s1", b"payload", forged)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_malformed_signature_is_false_not_an_exception(self):
        anchors, _ = make_anchors("s1")
        cache = SignatureCache()
        assert not cache.verify(anchors, "s1", b"payload", b"\x00" * 3)

    def test_unknown_signer_is_cheap_and_uncached(self):
        anchors, _ = make_anchors("s1")
        cache = SignatureCache()
        assert not cache.verify(anchors, "nobody", b"payload", b"\x00" * 64)
        assert (cache.stats.misses, cache.stats.hits) == (0, 0)
        assert len(cache) == 0

    def test_explicit_message_digest_matches_default_key(self):
        """Callers holding a content-addressed node pass the digest they
        already have; the cache key must agree with the recomputed one."""
        from repro.crypto.hashing import digest

        anchors, pairs = make_anchors("s1")
        message = b"payload"
        signature = pairs["s1"].sign(message)
        cache = SignatureCache()
        cache.verify(anchors, "s1", message, signature)
        precomputed = digest(message, domain="evidence-verify-cache")
        assert cache.verify(
            anchors, "s1", message, signature, message_digest=precomputed
        )
        assert cache.stats.hits == 1

    def test_bounded_eviction_is_fifo(self):
        anchors, pairs = make_anchors("s1")
        cache = SignatureCache(maxsize=2)
        signatures = [pairs["s1"].sign(bytes([i])) for i in range(3)]
        for i, signature in enumerate(signatures):
            cache.verify(anchors, "s1", bytes([i]), signature)
        assert len(cache) == 2
        cache.verify(anchors, "s1", bytes([0]), signatures[0])  # evicted
        assert cache.stats.misses == 4
        cache.verify(anchors, "s1", bytes([2]), signatures[2])  # still in
        assert cache.stats.hits == 1

    def test_batch_is_sequential_exact_under_eviction(self):
        """maxsize=2, batch [a, b, c, a]: c's insert evicts a, so the
        second a is a miss, as four single calls find. (A batch that
        replayed its inserts after the crypto call read 1 hit, 3
        misses.)"""
        anchors, pairs = make_anchors("s1")
        items = [
            ("s1", bytes([i]), pairs["s1"].sign(bytes([i])), None)
            for i in range(3)
        ]
        batch = [items[0], items[1], items[2], items[0]]
        truth = [anchors.verify(*item[:3]) for item in batch]
        sequential = SignatureCache(maxsize=2)
        assert [sequential.verify(anchors, *item[:3]) for item in batch] == truth
        batched = SignatureCache(maxsize=2)
        assert batched.verify_batch(anchors, batch) == truth == [True] * 4
        assert (batched.stats.hits, batched.stats.misses) == (0, 4)
        assert batched.stats == sequential.stats
        assert list(batched._verdicts.items()) == list(
            sequential._verdicts.items()
        )

    def test_batch_hit_on_an_entry_its_own_inserts_evict(self):
        """Cache holds [a, b] at maxsize=2; batch [c, a]: c evicts a,
        so a is a miss, not a hit on the entry present at the start."""
        anchors, pairs = make_anchors("s1")
        a, b, c = (
            ("s1", bytes([i]), pairs["s1"].sign(bytes([i])), None)
            for i in range(3)
        )
        caches = [SignatureCache(maxsize=2), SignatureCache(maxsize=2)]
        for cache in caches:
            cache.verify_batch(anchors, [a, b])
        caches[0].verify(anchors, *c[:3])
        caches[0].verify(anchors, *a[:3])
        caches[1].verify_batch(anchors, [c, a])
        assert (caches[1].stats.hits, caches[1].stats.misses) == (0, 4)
        assert list(caches[1]._verdicts.items()) == list(
            caches[0]._verdicts.items()
        )

    def test_a_single_is_a_one_item_batch(self, monkeypatch):
        """A miss makes exactly one ``ed25519.verify_batch`` call and no
        ``VerifyKey.verify`` call; a hit makes no crypto call at all."""
        from repro.crypto import ed25519

        anchors, pairs = make_anchors("s1")
        signature = pairs["s1"].sign(b"m")
        calls = {"verify_batch": 0, "verify": 0}
        real_batch, real_verify = ed25519.verify_batch, ed25519.VerifyKey.verify

        def counted_batch(items, stats=None):
            calls["verify_batch"] += 1
            assert len(items) == 1
            return real_batch(items, stats)

        def counted_verify(key, message, signature):
            calls["verify"] += 1
            return real_verify(key, message, signature)

        monkeypatch.setattr(ed25519, "verify_batch", counted_batch)
        monkeypatch.setattr(ed25519.VerifyKey, "verify", counted_verify)
        cache = SignatureCache()
        assert cache.verify(anchors, "s1", b"m", signature)
        assert calls == {"verify_batch": 1, "verify": 0}
        assert cache.verify(anchors, "s1", b"m", signature)
        assert calls == {"verify_batch": 1, "verify": 0}
        assert not cache.verify(anchors, "s1", b"forged", signature)
        assert calls == {"verify_batch": 2, "verify": 0}

    def test_interrupted_batch_leaves_no_placeholder(self, monkeypatch):
        """A crypto call that raises must not leave unsettled entries
        behind for a later lookup to read as verdicts."""
        from repro.crypto import ed25519

        anchors, pairs = make_anchors("s1")
        signature = pairs["s1"].sign(b"m")

        def interrupted(items, stats=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(ed25519, "verify_batch", interrupted)
        cache = SignatureCache()
        try:
            cache.verify_batch(anchors, [("s1", b"m", signature, None)])
        except KeyboardInterrupt:
            pass
        assert len(cache) == 0

    def test_clear_resets_verdicts_and_stats(self):
        anchors, pairs = make_anchors("s1")
        cache = SignatureCache()
        cache.verify(anchors, "s1", b"m", pairs["s1"].sign(b"m"))
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.misses, cache.stats.hits) == (0, 0)

    def test_distinct_keys_never_share_verdicts(self):
        """Two registries binding the same owner name to different keys
        must not cross-pollinate (the cache key pins the key bytes)."""
        anchors_a, pairs_a = make_anchors("s1")
        anchors_b = KeyRegistry()
        other = KeyPair.generate("s1-other-key")
        anchors_b.register("s1", other.verify_key)
        message = b"payload"
        signature = pairs_a["s1"].sign(message)
        cache = SignatureCache()
        assert cache.verify(anchors_a, "s1", message, signature)
        assert not cache.verify(anchors_b, "s1", message, signature)


class TestRegistryVerify:
    def test_defaults_to_the_shared_cache(self):
        anchors, pairs = make_anchors("shared-cache-probe")
        message = b"shared payload"
        signature = pairs["shared-cache-probe"].sign(message)
        item = ("shared-cache-probe", message, signature, None)
        registry_verify_batch(anchors, [item])
        hits_before = shared_cache.stats.hits
        assert registry_verify_batch(anchors, [item]) == [True]
        assert shared_cache.stats.hits == hits_before + 1

    def test_private_cache_override(self):
        anchors, pairs = make_anchors("s1")
        message = b"payload"
        signature = pairs["s1"].sign(message)
        private = SignatureCache()
        assert registry_verify_batch(
            anchors, [("s1", message, signature, None)], cache=private
        ) == [True]
        assert private.stats.misses == 1
