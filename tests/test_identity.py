"""Personhood registry, group membership, and signal semantics."""
from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disputekit.errors import (
    AlreadyJoined,
    ChallengeTooLate,
    DuplicateHuman,
    NotAMember,
    NotApproved,
    ProtocolError,
    VoucherNotApproved,
)
from disputekit.identity import (
    HumanRecord,
    Identity,
    PohRegistry,
    RegistryStatus,
    SemaphoreGroup,
    create_signal,
    nullifier_hash,
)
from disputekit import primitives
from disputekit.primitives import ZERO_DIGEST, MerkleTree, hash_bytes


def make_registry(*approved: str, window: int = 10) -> PohRegistry:
    registry = PohRegistry(challenge_window=window)
    for human in approved:
        registry.seed_approved(human)
    return registry


# ---- registry ------------------------------------------------------------------


def test_register_pending_with_deadline() -> None:
    registry = make_registry("genesis")
    record = registry.register("alice", hash_bytes(b"video"), "genesis", now=0)
    assert record.status == RegistryStatus.PENDING
    assert record.challenge_deadline == 10


def test_unchallenged_record_approves_after_window() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    assert registry.finalize(now=9) == []  # strict: not yet
    changed = registry.finalize(now=10)
    assert [r.human_id for r in changed] == ["alice"]
    assert registry.is_approved("alice")


def test_challenge_inside_window_sinks_registration() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    record = registry.challenge("alice", "duplicate face", now=9)
    assert record.status == RegistryStatus.CHALLENGED
    registry.finalize(now=10)
    assert registry.records["alice"].status == RegistryStatus.REJECTED
    assert not registry.is_approved("alice")


def test_challenge_at_deadline_is_too_late() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    with pytest.raises(ChallengeTooLate):
        registry.challenge("alice", "late", now=10)


def test_duplicate_registration_rejected_while_not_rejected() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    with pytest.raises(DuplicateHuman):
        registry.register("alice", hash_bytes(b"v2"), "genesis", now=1)
    registry.finalize(now=10)  # approved now; still a duplicate
    with pytest.raises(DuplicateHuman):
        registry.register("alice", hash_bytes(b"v3"), "genesis", now=11)


def test_rejected_human_may_try_again() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    registry.challenge("alice", "bad video", now=1)
    registry.finalize(now=10)
    record = registry.register("alice", hash_bytes(b"v2"), "genesis", now=11)
    assert record.status == RegistryStatus.PENDING


def test_voucher_must_be_approved() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    with pytest.raises(VoucherNotApproved):
        registry.register("bob", hash_bytes(b"v"), "alice", now=1)  # pending
    with pytest.raises(VoucherNotApproved):
        registry.register("carol", hash_bytes(b"v"), "nobody", now=1)


def test_a_returning_human_keeps_their_first_place() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    registry.register("bob", hash_bytes(b"v"), "genesis", now=0)
    registry.challenge("alice", "bad video", now=1)
    assert [r.human_id for r in registry.finalize(now=2)] == ["alice"]
    registry.register("alice", hash_bytes(b"v2"), "genesis", now=3)
    changed = registry.finalize(now=13)
    assert [(r.human_id, r.status) for r in changed] == [
        ("alice", RegistryStatus.APPROVED),
        ("bob", RegistryStatus.APPROVED),
    ]


class NaiveRegistry(PohRegistry):
    """`finalize` as a scan of every record, in `records` order."""

    def finalize(self, now: int) -> list[HumanRecord]:
        changed = []
        for record in self.records.values():
            if record.status == RegistryStatus.CHALLENGED:
                record.status = RegistryStatus.REJECTED
                changed.append(record)
            elif (
                record.status == RegistryStatus.PENDING
                and now >= record.challenge_deadline
            ):
                record.status = RegistryStatus.APPROVED
                changed.append(record)
        return changed


def _registry_outcome(registry: PohRegistry, op: str, human: str, now: int):
    try:
        if op == "register":
            result = registry.register(human, hash_bytes(human.encode()), "h0", now)
        elif op == "challenge":
            result = registry.challenge(human, "duplicate face", now)
        else:
            result = [(r.human_id, r.status) for r in registry.finalize(now)]
    except ProtocolError as exc:
        return type(exc).__name__
    return result if op == "finalize" else None


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["register", "challenge", "finalize"]),
            st.sampled_from(["h1", "h2", "h3", "h4"]),
            st.integers(0, 40),  # any order, so `now` may decrease
        ),
        max_size=40,
    )
)
def test_finalize_settles_as_the_naive_scan(ops) -> None:
    """Differential check of `finalize`, which touches only challenged and
    due records, against a scan of every record: the same records change,
    in the same order, under re-registration and a `now` that goes back."""
    fast, naive = PohRegistry(challenge_window=5), NaiveRegistry(challenge_window=5)
    for registry in (fast, naive):
        registry.seed_approved("h0")
    for op, human, now in ops:
        assert _registry_outcome(fast, op, human, now) == _registry_outcome(
            naive, op, human, now
        )
        assert fast.records == naive.records
        assert list(fast.records) == list(naive.records)


# ---- identities ----------------------------------------------------------------


def test_identity_derivation_chain() -> None:
    identity = Identity.generate(random.Random(0))
    assert identity.secret == hashlib.sha256(
        identity.trapdoor + identity.nullifier
    ).digest()
    assert identity.commitment == hashlib.sha256(identity.secret).digest()


def test_distinct_identities_distinct_commitments() -> None:
    rng = random.Random(1)
    seen = {Identity.generate(rng).commitment for _ in range(64)}
    assert len(seen) == 64


def test_nullifier_hash_scoped_per_external_nullifier() -> None:
    identity = Identity.generate(random.Random(2))
    assert nullifier_hash(identity, 5) == nullifier_hash(identity, 5)
    assert nullifier_hash(identity, 5) != nullifier_hash(identity, 6)
    other = Identity.generate(random.Random(3))
    assert nullifier_hash(identity, 5) != nullifier_hash(other, 5)


# ---- group membership ------------------------------------------------------------


def group_with(
    *humans: str, depth: int = 8, seed: int = 42
) -> tuple[SemaphoreGroup, dict[str, Identity]]:
    registry = make_registry(*humans)
    group = SemaphoreGroup(registry, tree_depth=depth)
    rng = random.Random(seed)
    identities = {}
    for human in humans:
        identity = Identity.generate(rng)
        group.join(human, identity.commitment)
        identities[human] = identity
    return group, identities


def test_join_requires_approval() -> None:
    registry = make_registry("genesis")
    registry.register("alice", hash_bytes(b"v"), "genesis", now=0)
    group = SemaphoreGroup(registry, tree_depth=4)
    identity = Identity.generate(random.Random(0))
    with pytest.raises(NotApproved):
        group.join("alice", identity.commitment)  # still pending
    registry.finalize(now=10)
    assert group.join("alice", identity.commitment) == 0


def test_one_leaf_per_human_forever() -> None:
    group, identities = group_with("a", "b")
    with pytest.raises(AlreadyJoined):
        group.join("a", Identity.generate(random.Random(9)).commitment)
    # removal does not free the binding
    group.remove(group.member_bindings["a"])
    with pytest.raises(AlreadyJoined):
        group.join("a", Identity.generate(random.Random(10)).commitment)


def test_signal_accepts_then_rejects_double() -> None:
    group, identities = group_with("a", "b")
    signal = create_signal(identities["a"], group, b"enroll", 77)
    assert group.verify_signal(signal).ok
    replay = create_signal(identities["a"], group, b"enroll-again", 77)
    verdict = group.verify_signal(replay)
    assert not verdict.ok and verdict.reason == "DoubleSignal"


def test_same_identity_different_scope_accepted() -> None:
    group, identities = group_with("a")
    assert group.verify_signal(create_signal(identities["a"], group, b"x", 1)).ok
    assert group.verify_signal(create_signal(identities["a"], group, b"x", 2)).ok


def test_signal_against_foreign_root_rejected() -> None:
    group, identities = group_with("a", "b")
    other_group, other_identities = group_with("c", "d", seed=7)
    foreign = create_signal(other_identities["c"], other_group, b"x", 1)
    verdict = group.verify_signal(foreign)
    assert not verdict.ok and verdict.reason == "BadMembership"


def test_rejected_double_signal_does_not_burn_nullifier() -> None:
    group, identities = group_with("a")
    stale_root_signal = create_signal(identities["a"], group, b"x", 9)
    # growing the group invalidates the recorded root
    registry_human = "late"
    group.registry.seed_approved(registry_human)
    group.join(registry_human, Identity.generate(random.Random(5)).commitment)
    assert not group.verify_signal(stale_root_signal).ok
    # a fresh signal under the new root still works: nullifier was not burned
    assert group.verify_signal(create_signal(identities["a"], group, b"x", 9)).ok


def test_removed_member_cannot_signal() -> None:
    group, identities = group_with("a", "b")
    group.remove(group.member_bindings["a"])
    with pytest.raises(NotAMember):
        create_signal(identities["a"], group, b"x", 1)
    # pre-removal signal no longer verifies (root moved on)
    assert group.verify_signal(
        create_signal(identities["b"], group, b"y", 1)
    ).ok


def test_remaining_member_fresh_path_survives_removal() -> None:
    group, identities = group_with("a", "b")
    group.remove(group.member_bindings["a"])
    signal = create_signal(identities["b"], group, b"still here", 4)
    assert group.verify_signal(signal).ok


# ---- write cost ------------------------------------------------------------------


def hash_calls(write) -> int:
    """How many times `write()` calls the protocol hash."""
    real, calls = primitives.hash_bytes, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(primitives, "hash_bytes", lambda data: calls.append(1) or real(data))
        write()
    return len(calls)


@pytest.mark.parametrize("depth", [1, 4, 12, 32])
def test_a_tree_write_hashes_once_per_level(depth: int) -> None:
    """A write's cost is exact: an insert or an update rehashes the one path
    from its leaf to the root, `depth` hashes, however full the tree is."""
    tree = MerkleTree(depth)
    leaves = [bytes([i]) * 32 for i in range(1, min(tree.capacity, 5) + 1)]
    for leaf in leaves:
        assert hash_calls(lambda: tree.insert(leaf)) == depth
    for index in range(len(leaves)):
        assert hash_calls(lambda: tree.update(index, ZERO_DIGEST)) == depth


@pytest.mark.parametrize("depth", [1, 4, 12, 32])
def test_a_join_or_ban_hashes_once_per_level(depth: int) -> None:
    """Joining and banning are one tree write each: `depth` hashes."""
    humans = ["a", "b", "c", "d", "e"][: 1 << depth]
    group = SemaphoreGroup(make_registry(*humans), tree_depth=depth)
    rng = random.Random(depth)
    commitments = [Identity.generate(rng).commitment for _ in humans]
    for human, commitment in zip(humans, commitments):
        assert hash_calls(lambda: group.join(human, commitment)) == depth
    for index in range(len(humans)):
        assert hash_calls(lambda: group.remove(index)) == depth
