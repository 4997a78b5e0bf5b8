"""A stateful model of the epoch batcher.

Hypothesis drives ``EpochBatcher.add``, ``.seal`` and ``.seal_if`` (for
the open epoch and for stale ones) in any interleaving. After every
step the batcher must agree with a ten-line reference — a list of open
records and an epoch counter — on what it released, in which order,
under which epoch id, and on its ``EpochStats``. Every released
record's inclusion proof must verify against its epoch's signed root,
and by teardown every added record has been released exactly once.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence.nodes import HopEvidence
from repro.evidence.verify import registry_verify_batch
from repro.pera.config import BatchingSpec
from repro.pera.epoch import EpochBatcher, EpochStats
from repro.pera.inertia import InertiaClass

KEYS = KeyPair.generate("model-s1")
ANCHORS = KeyRegistry()
ANCHORS.register_pair(KEYS)

REASONS = st.sampled_from(["count", "timer", "flush"])


class Reference:
    """Sequential semantics: seal releases the open records, in order."""

    def __init__(self) -> None:
        self.open, self.epoch_id, self.stats = [], 1, EpochStats()

    def seal(self, reason):
        if not self.open:
            return []
        released, self.open = self.open, []
        self.epoch_id += 1
        stats = self.stats
        stats.epochs_sealed += 1
        stats.records_batched += len(released)
        stats.largest_epoch = max(stats.largest_epoch, len(released))
        name = f"sealed_on_{reason}"
        setattr(stats, name, getattr(stats, name) + 1)
        return released


class EpochBatcherMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.batcher = EpochBatcher(
            "model-s1", KEYS, BatchingSpec(max_records=4, max_delay_s=0.0)
        )
        self.ref = Reference()
        self.added = 0
        self.released = []

    def check_seal(self, sealed, expected, epoch_id):
        """``sealed`` released exactly ``expected`` (sequence numbers)
        under epoch ``epoch_id``, each with a proof to its signed root."""
        fresh = self.released[len(self.released) - len(expected):]
        if not expected:
            assert sealed is None
            return
        assert sealed.epoch_id == epoch_id
        assert sealed.leaf_count == len(expected)
        assert [record.sequence for record in fresh] == expected
        assert registry_verify_batch(ANCHORS, [fresh[0].signature_item()]) == [True]
        for index, record in enumerate(fresh):
            assert (record.epoch_id, record.epoch_root) == (epoch_id, sealed.root)
            assert record.leaf_index == index
            assert record.proof_ok()

    @rule()
    def add(self):
        record = HopEvidence(
            place="model-s1",
            measurements=((InertiaClass.PROGRAM, bytes([self.added % 256]) * 32),),
            sequence=self.added,
        )
        self.batcher.add(record, self.released.append)
        self.ref.open.append(self.added)
        self.added += 1

    @rule(reason=REASONS)
    def seal(self, reason):
        epoch_id = self.ref.epoch_id
        sealed = self.batcher.seal(reason=reason)
        self.check_seal(sealed, self.ref.seal(reason), epoch_id)

    @rule(reason=REASONS)
    def seal_if_current(self, reason):
        epoch_id = self.ref.epoch_id
        sealed = self.batcher.seal_if(self.batcher.epoch_id, reason=reason)
        self.check_seal(sealed, self.ref.seal(reason), epoch_id)

    @rule(back=st.integers(1, 3), reason=REASONS)
    def seal_if_stale(self, back, reason):
        before = len(self.released)
        assert self.batcher.seal_if(self.batcher.epoch_id - back, reason) is None
        assert len(self.released) == before

    @invariant()
    def agrees_with_reference(self):
        released = [record.sequence for record in self.released]
        assert released == list(range(len(released)))
        assert released + self.ref.open == list(range(self.added))
        assert self.batcher.open_count == len(self.ref.open)
        assert self.batcher.epoch_id == self.ref.epoch_id
        assert self.batcher.stats == self.ref.stats

    def teardown(self):
        self.seal("flush")
        assert [r.sequence for r in self.released] == list(range(self.added))


TestEpochBatcherModel = EpochBatcherMachine.TestCase
TestEpochBatcherModel.settings = settings(
    stateful_step_count=10, deadline=None
)
