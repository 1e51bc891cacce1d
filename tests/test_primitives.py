"""Hashing, key, encryption, signature, and Merkle tree behavior."""
from __future__ import annotations

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from disputekit import primitives
from disputekit.errors import (
    AuthFailure,
    IndexOutOfRange,
    InvalidKey,
    TreeFull,
)
from disputekit.primitives import (
    DecryptionKey,
    KeyPair,
    MerkleTree,
    ZERO_DIGEST,
    decrypt,
    encrypt,
    hash_bytes,
    hash_fields,
    key_agree,
    merkle_verify,
    public_key,
    sign,
    verify_sig,
)


def test_hash_is_32_bytes_and_deterministic() -> None:
    assert len(hash_bytes(b"a")) == 32
    assert hash_bytes(b"a") == hash_bytes(b"a")
    assert hash_bytes(b"a") != hash_bytes(b"b")


def test_hash_matches_sha256() -> None:
    assert hash_bytes(b"payload") == hashlib.sha256(b"payload").digest()


def test_keypair_public_derived_from_seed() -> None:
    rng = random.Random(7)
    pair = KeyPair.generate(rng)
    again = KeyPair.from_seed(pair.seed)
    assert again.public == pair.public


def test_keypair_bad_seed_length() -> None:
    with pytest.raises(InvalidKey):
        KeyPair.from_seed(b"short")


def test_a_participant_key_only_signs(monkeypatch) -> None:
    """A participant's keypair is one Ed25519 key: building it builds no
    agreement key, and its public key is the 32-byte signing point."""

    class NoAgreementKeys:
        @staticmethod
        def from_private_bytes(data: bytes):
            raise AssertionError("a participant key built an agreement key")

    monkeypatch.setattr(primitives, "X25519PrivateKey", NoAgreementKeys)
    pair = KeyPair.from_seed(bytes(range(32)))
    assert pair.public == pair.signing.public_key().public_bytes_raw()
    assert len(pair.public) == 32


def test_public_key_round_trip_and_length_check() -> None:
    pair = KeyPair.generate(random.Random(1))
    assert public_key(pair.public) == pair.public
    for length in (31, 33, 64):  # 64: a signing point and an agreement point
        with pytest.raises(InvalidKey):
            public_key(b"\x00" * length)


def test_decryption_key_derived_from_its_seed() -> None:
    """The coordinator's key draws one 32-byte seed and derives its scalar
    as hash_fields("agree", seed); its public half is that scalar's point."""
    key = DecryptionKey.generate(random.Random(7))
    assert key.seed == random.Random(7).randbytes(32)
    scalar = X25519PrivateKey.from_private_bytes(hash_fields(b"agree", key.seed))
    assert key.public == scalar.public_key().public_bytes_raw()


def test_key_agreement_is_symmetric() -> None:
    """The coordinator's key agreement with a ballot's one-time point gives
    the key the sender derived from the one-time scalar and the
    coordinator's point: ``encrypt`` draws that scalar first from its
    generator, so a copy of the generator replays it."""
    rng = random.Random(2)
    coordinator = DecryptionKey.generate(rng)
    sender_rng = random.Random()
    sender_rng.setstate(rng.getstate())
    ct = encrypt(coordinator.public, b"the vote", rng)
    one_time = X25519PrivateKey.from_private_bytes(sender_rng.randbytes(32))
    assert ct[:32] == one_time.public_key().public_bytes_raw()
    sender_side = hash_fields(
        b"shared",
        one_time.exchange(X25519PublicKey.from_public_bytes(coordinator.public)),
    )
    assert key_agree(coordinator, ct) == sender_side
    assert len(sender_side) == 32


def test_key_agreement_differs_per_peer() -> None:
    rng = random.Random(3)
    coordinator, other = DecryptionKey.generate(rng), DecryptionKey.generate(rng)
    first, second = (encrypt(coordinator.public, b"", rng) for _ in range(2))
    assert key_agree(coordinator, first) != key_agree(coordinator, second)
    assert key_agree(coordinator, first) != key_agree(other, first)


def test_encrypt_decrypt_round_trip() -> None:
    rng = random.Random(4)
    b = DecryptionKey.generate(rng)
    ct = encrypt(b.public, b"the vote", rng)
    key = key_agree(b, ct)
    assert decrypt(key, ct) == b"the vote"


def test_decrypt_rejects_single_bit_flip() -> None:
    rng = random.Random(5)
    b = DecryptionKey.generate(rng)
    ct = encrypt(b.public, b"the vote", rng)
    key = key_agree(b, ct)
    flipped_payload = ct[:44] + bytes([ct[44] ^ 1]) + ct[45:]
    with pytest.raises(AuthFailure):
        decrypt(key, flipped_payload)
    flipped_tag = ct[:-1] + bytes([ct[-1] ^ 1])
    with pytest.raises(AuthFailure):
        decrypt(key, flipped_tag)


def test_decrypt_rejects_wrong_key() -> None:
    rng = random.Random(6)
    b, c = (DecryptionKey.generate(rng) for _ in range(2))
    ct = encrypt(b.public, b"secret", rng)
    with pytest.raises(AuthFailure):
        decrypt(key_agree(c, ct), ct)


def test_sign_verify_and_tamper() -> None:
    rng = random.Random(8)
    pair = KeyPair.generate(rng)
    sig = sign(pair, b"message")
    assert verify_sig(pair.public, b"message", sig)
    assert not verify_sig(pair.public, b"message0", sig)
    other = KeyPair.generate(rng)
    assert not verify_sig(other.public, b"message", sig)


# ---- Merkle tree ---------------------------------------------------------------


def test_depth_two_root_matches_hand_computation() -> None:
    # Independent oracle: fold the four-slot tree by hand with hashlib.
    leaf0, leaf1 = hash_bytes(b"leaf-0"), hash_bytes(b"leaf-1")
    zero = ZERO_DIGEST
    h = lambda x, y: hashlib.sha256(x + y).digest()  # noqa: E731
    expected = h(h(leaf0, leaf1), h(zero, zero))

    tree = MerkleTree(depth=2)
    tree.insert(leaf0)
    tree.insert(leaf1)
    assert tree.root == expected


def test_empty_tree_root_is_iterated_zero() -> None:
    tree = MerkleTree(depth=3)
    z = ZERO_DIGEST
    for _ in range(3):
        z = hashlib.sha256(z + z).digest()
    assert tree.root == z


def test_insert_beyond_capacity() -> None:
    tree = MerkleTree(depth=1)
    tree.insert(hash_bytes(b"a"))
    tree.insert(hash_bytes(b"b"))
    with pytest.raises(TreeFull):
        tree.insert(hash_bytes(b"c"))


def test_proof_verifies_and_detects_any_bit_flip() -> None:
    tree = MerkleTree(depth=4)
    leaves = [hash_bytes(bytes([i])) for i in range(5)]
    for leaf in leaves:
        tree.insert(leaf)
    for index, leaf in enumerate(leaves):
        path = tree.prove(index)
        assert merkle_verify(tree.root, leaf, path)
        # flip one bit in the leaf
        bad_leaf = bytes([leaf[0] ^ 0x80]) + leaf[1:]
        assert not merkle_verify(tree.root, bad_leaf, path)
        # flip one bit in the root
        bad_root = bytes([tree.root[0] ^ 1]) + tree.root[1:]
        assert not merkle_verify(bad_root, leaf, path)


def test_proof_with_mutated_sibling_fails() -> None:
    tree = MerkleTree(depth=3)
    for i in range(4):
        tree.insert(hash_bytes(bytes([i])))
    path = tree.prove(2)
    siblings = list(path.siblings)
    siblings[1] = bytes([siblings[1][0] ^ 1]) + siblings[1][1:]
    mutated = type(path)(path.leaf_index, tuple(siblings))
    assert not merkle_verify(tree.root, tree.leaf(2), mutated)


def test_update_changes_root_and_old_proofs_die() -> None:
    tree = MerkleTree(depth=3)
    for i in range(3):
        tree.insert(hash_bytes(bytes([i])))
    old_root = tree.root
    old_path = tree.prove(1)
    new_root = tree.update(1, ZERO_DIGEST)
    assert new_root != old_root
    assert not merkle_verify(tree.root, hash_bytes(bytes([1])), old_path)
    # untouched members still prove against the new root
    assert merkle_verify(tree.root, tree.leaf(2), tree.prove(2))


def test_prove_and_update_bounds() -> None:
    tree = MerkleTree(depth=2)
    tree.insert(hash_bytes(b"x"))
    with pytest.raises(IndexOutOfRange):
        tree.prove(1)
    with pytest.raises(IndexOutOfRange):
        tree.update(3, ZERO_DIGEST)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=16))
def test_every_inserted_leaf_proves_membership(leaves: list[bytes]) -> None:
    tree = MerkleTree(depth=4)
    for leaf in leaves:
        tree.insert(leaf)
    for index in range(len(leaves)):
        assert merkle_verify(tree.root, tree.leaf(index), tree.prove(index))


# ---- differential: the incremental tree against a full rebuild -----------------

def rebuilt_levels(leaves: list[bytes], depth: int) -> list[list[bytes]]:
    """Reference tree: pad the leaves to capacity with the zero digest and
    hash every level from scratch with hashlib."""
    level = leaves + [ZERO_DIGEST] * ((1 << depth) - len(leaves))
    levels = [level]
    while len(level) > 1:
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
        levels.append(level)
    return levels


LEAF = st.one_of(st.just(ZERO_DIGEST), st.binary(min_size=32, max_size=32))
TREE_OP = st.one_of(
    st.tuples(st.just("insert"), LEAF),
    st.tuples(st.just("update"), st.integers(-1, 33), LEAF),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.lists(TREE_OP, max_size=70))
def test_tree_matches_a_full_rebuild_after_every_write(depth, ops) -> None:
    tree = MerkleTree(depth)
    leaves: list[bytes] = []
    for op in ops:
        if op[0] == "insert":
            if len(leaves) == 1 << depth:
                with pytest.raises(TreeFull):
                    tree.insert(op[1])
            else:
                assert tree.insert(op[1]) == len(leaves)
                leaves.append(op[1])
        else:
            _, index, leaf = op
            if 0 <= index < len(leaves):
                leaves[index] = leaf
                assert tree.update(index, leaf) == rebuilt_levels(leaves, depth)[-1][0]
            else:
                with pytest.raises(IndexOutOfRange):
                    tree.update(index, leaf)
        levels = rebuilt_levels(leaves, depth)
        assert tree.root == levels[-1][0]
        for index, leaf in enumerate(leaves):
            assert tree.leaf(index) == leaf
            path = tree.prove(index)
            assert path.leaf_index == index
            assert path.siblings == tuple(
                levels[level][(index >> level) ^ 1] for level in range(depth)
            )
        for read in (tree.leaf, tree.prove):
            with pytest.raises(IndexOutOfRange):
                read(len(leaves))
