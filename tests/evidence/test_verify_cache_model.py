"""A stateful model of the memoized verifier.

Hypothesis drives ``SignatureCache.verify`` and ``.verify_batch`` in
any interleaving at a small ``maxsize``. After every step the cache
must agree with a sequential reference — an LRU dict fed one item at a
time — on verdicts, hit/miss counters and cache contents in recency
order. Batches may repeat items, so in-batch duplicates and entries
that the batch's own inserts evict are covered.
"""

from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.crypto.hashing import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.verify import SignatureCache

MAXSIZE = 3

_PAIRS = [KeyPair.generate(f"model-s{i}") for i in range(2)]
ANCHORS = KeyRegistry()
for _pair in _PAIRS:
    ANCHORS.register_pair(_pair)


def _digest(message):
    return digest(message, domain="evidence-verify-cache")


def _pool():
    """(owner, message, signature, digest-or-None) triples: genuine,
    forged, malformed and unknown-signer items."""
    items = []
    for index, pair in enumerate(_PAIRS):
        for n in range(3):
            message = f"model-{index}-{n}".encode()
            items.append((pair.owner, message, pair.sign(message), None))
    owner, message, signature, _ = items[0]
    items.append((owner, message, _PAIRS[1].sign(message), None))  # forged
    items.append((owner, b"short", signature[:40], None))  # malformed
    items.append(("nobody", message, signature, None))  # unknown signer
    # The first item again, with the digest a content-addressed node
    # would hand in: the same cache entry.
    items.append((owner, message, signature, _digest(message)))
    return items


POOL = _pool()
TRUTH = [ANCHORS.verify(owner, message, sig) for owner, message, sig, _ in POOL]


class SignatureCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = SignatureCache(maxsize=MAXSIZE)
        self.lru: "OrderedDict[tuple, bool]" = OrderedDict()
        self.hits = self.misses = 0

    def reference(self, index: int) -> bool:
        """Sequential semantics of one verification."""
        owner, message, signature, _ = POOL[index]
        key = ANCHORS.lookup(owner)
        if key is None:
            return False
        entry = (key.key_bytes, _digest(message), signature)
        if entry in self.lru:
            self.hits += 1
            self.lru.move_to_end(entry)
            return self.lru[entry]
        self.misses += 1
        self.lru[entry] = TRUTH[index]
        while len(self.lru) > MAXSIZE:
            self.lru.popitem(last=False)
        return TRUTH[index]

    @rule(index=st.integers(0, len(POOL) - 1))
    def verify(self, index):
        owner, message, signature, message_digest = POOL[index]
        got = self.cache.verify(
            ANCHORS, owner, message, signature, message_digest=message_digest
        )
        assert got == self.reference(index)

    @rule(indices=st.lists(st.integers(0, len(POOL) - 1), max_size=6))
    def verify_batch(self, indices):
        got = self.cache.verify_batch(ANCHORS, [POOL[i] for i in indices])
        assert got == [self.reference(i) for i in indices]

    @invariant()
    def agrees_with_reference(self):
        assert (self.cache.stats.hits, self.cache.stats.misses) == (
            self.hits, self.misses,
        )
        assert list(self.cache._verdicts.items()) == list(self.lru.items())


TestSignatureCacheModel = SignatureCacheMachine.TestCase
TestSignatureCacheModel.settings = settings(
    stateful_step_count=10, deadline=None
)
