"""Tests for Merkle trees and inclusion proofs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree
from repro.util.errors import VerificationError


class TestMerkleTree:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert tree.leaf_count == 1
        assert tree.prove(0).verify(b"only", tree.root)

    def test_empty_rejected(self):
        with pytest.raises(VerificationError):
            MerkleTree([])

    def test_all_leaves_provable(self):
        leaves = [f"ev-{i}".encode() for i in range(7)]  # odd count
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert tree.prove(i).verify(leaf, tree.root)

    def test_wrong_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert not tree.prove(0).verify(b"x", tree.root)

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not tree.prove(0).verify(b"a", other.root)

    def test_proof_index_bounds(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(VerificationError):
            tree.prove(1)
        with pytest.raises(VerificationError):
            tree.prove(-1)

    def test_proof_not_transferable_between_positions(self):
        tree = MerkleTree([b"same", b"same", b"other", b"x"])
        proof0 = tree.prove(0)
        # Proof for index 0 also proves leaf content b"same"; using the
        # *content* of another leaf at the wrong index must fail.
        assert not proof0.verify(b"other", tree.root)

    def test_leaf_accessor(self):
        tree = MerkleTree([b"a", b"b"])
        assert tree.leaf(1) == b"b"

    def test_root_changes_with_any_leaf(self):
        base = MerkleTree([b"a", b"b", b"c", b"d"]).root
        for i in range(4):
            leaves = [b"a", b"b", b"c", b"d"]
            leaves[i] = b"tampered"
            assert MerkleTree(leaves).root != base

    def test_leaf_set_not_malleable_by_duplication(self):
        # Promotion (not duplication) of odd nodes: [a,b,c] != [a,b,c,c].
        assert MerkleTree([b"a", b"b", b"c"]).root != MerkleTree(
            [b"a", b"b", b"c", b"c"]
        ).root

    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=33))
    def test_every_proof_verifies_property(self, leaves):
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert tree.prove(i).verify(leaves[i], tree.root)

    @given(st.lists(st.binary(max_size=8), min_size=2, max_size=16))
    def test_order_matters(self, leaves):
        if leaves != list(reversed(leaves)):
            assert MerkleTree(leaves).root != MerkleTree(list(reversed(leaves))).root


class TestPseudonyms:
    def test_stable_per_user(self):
        from repro.crypto.pseudonym import PseudonymAuthority

        auth = PseudonymAuthority(b"operator-secret-0123456789abcdef")
        assert auth.pseudonym_for("alice", "switch-SN42") == auth.pseudonym_for(
            "alice", "switch-SN42"
        )

    def test_users_cannot_correlate(self):
        from repro.crypto.pseudonym import PseudonymAuthority

        auth = PseudonymAuthority(b"operator-secret-0123456789abcdef")
        assert auth.pseudonym_for("alice", "switch-SN42") != auth.pseudonym_for(
            "bob", "switch-SN42"
        )

    def test_lift_with_warrant(self):
        from repro.crypto.pseudonym import PseudonymAuthority

        auth = PseudonymAuthority(b"operator-secret-0123456789abcdef")
        pseu = auth.pseudonym_for("alice", "switch-SN42")
        assert auth.lift("alice", pseu, warrant="court-order-7") == "switch-SN42"

    def test_lift_without_warrant_rejected(self):
        from repro.crypto.pseudonym import PseudonymAuthority
        from repro.util.errors import CryptoError

        auth = PseudonymAuthority(b"operator-secret-0123456789abcdef")
        pseu = auth.pseudonym_for("alice", "switch-SN42")
        with pytest.raises(CryptoError):
            auth.lift("alice", pseu, warrant="")

    def test_unknown_pseudonym_rejected(self):
        from repro.crypto.pseudonym import PseudonymAuthority
        from repro.util.errors import CryptoError

        auth = PseudonymAuthority(b"operator-secret-0123456789abcdef")
        with pytest.raises(CryptoError):
            auth.lift("alice", "pseu-doesnotexist", warrant="w")

    def test_short_secret_rejected(self):
        from repro.crypto.pseudonym import PseudonymAuthority
        from repro.util.errors import CryptoError

        with pytest.raises(CryptoError):
            PseudonymAuthority(b"short")


class TestProofIndexBinding:
    """The claimed leaf index must agree with the proof's shape.

    The hash walk alone never consults ``leaf_index``, so without the
    shape check the index field would be malleable in transit (the
    epoch-batched record header ships it on the wire)."""

    @given(
        count=st.integers(min_value=1, max_value=33),
        data=st.data(),
    )
    def test_wrong_claimed_index_is_rejected(self, count, data):
        from dataclasses import replace

        leaves = [bytes([i]) * 4 for i in range(count)]
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=count - 1))
        proof = tree.prove(index)
        assert proof.verify(leaves[index], tree.root)
        claimed = data.draw(st.integers(min_value=0, max_value=count - 1))
        if claimed == index:
            return
        forged = replace(proof, leaf_index=claimed)
        assert not forged.verify(leaves[index], tree.root)

    def test_truncated_or_padded_path_is_rejected(self):
        from dataclasses import replace

        tree = MerkleTree([bytes([i]) * 4 for i in range(8)])
        proof = tree.prove(3)
        leaf = tree.leaf(3)
        assert proof.verify(leaf, tree.root)
        assert not replace(proof, path=proof.path[:-1]).verify(leaf, tree.root)
        padded = proof.path + ((b"\x00" * 32, True),)
        assert not replace(proof, path=padded).verify(leaf, tree.root)
