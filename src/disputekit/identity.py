"""Personhood registry and the anonymous membership group.

Two layers keep jurors simultaneously unique and anonymous:

* ``PohRegistry`` — a mock proof-of-humanity court: register with a video
  hash and a voucher, survive a challenge window, come out Approved.
* ``SemaphoreGroup`` — a Merkle tree of identity commitments. Approved
  humans insert a commitment once; afterwards they act by emitting
  *signals* that carry a membership path to a known root, and a nullifier
  hash burns one action per identity per scope.

Known limitation: a signal is not anonymous. Its path's leaf index names
its sender, since the public ``group_join`` event maps each human to a leaf
index, and its nullifier hash is not bound to that leaf. ROADMAP item 1
replaces the path with a circuit-style proof bound to the nullifier hash.

The registry binds human ids to leaves forever: a removed (banned) member
cannot re-enter with a fresh commitment.
"""
from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple, Optional

from .errors import (
    AlreadyJoined,
    ChallengeTooLate,
    DuplicateHuman,
    IndexOutOfRange,
    MutableRecord,
    NotAMember,
    NotApproved,
    REASON_BAD_MEMBERSHIP,
    REASON_DOUBLE_SIGNAL,
    Verdict,
    VoucherNotApproved,
)
from .primitives import (
    MerklePath,
    MerkleTree,
    ZERO_DIGEST,
    hash_bytes,
    merkle_verify,
    random_bytes,
)


class RegistryStatus(Enum):
    PENDING = "Pending"
    APPROVED = "Approved"
    CHALLENGED = "Challenged"
    REJECTED = "Rejected"


class HumanRecord(MutableRecord):
    """One registration, changed in place as its challenge window runs."""

    __slots__ = ("human_id", "video_hash", "voucher", "status",
                 "challenge_deadline", "challenge_reason")

    def __init__(
        self,
        human_id: str,
        video_hash: bytes,
        voucher: Optional[str],
        status: RegistryStatus,
        challenge_deadline: int,
    ) -> None:
        self.human_id = human_id
        self.video_hash = video_hash
        self.voucher = voucher
        self.status = status
        self.challenge_deadline = challenge_deadline
        self.challenge_reason: Optional[str] = None  # set by a challenge


class PohRegistry:
    """Vouch-and-challenge personhood registry (adjudication simplified:
    any challenge inside the window sinks the registration)."""

    def __init__(self, challenge_window: int):
        if challenge_window < 1:
            raise ValueError("challenge window must be positive")
        self.challenge_window = challenge_window
        self.records: dict[str, HumanRecord] = {}
        # each human's place in `records`, kept when they register again
        self._places: dict[str, int] = {}
        # what `finalize` may settle: the pending and challenged records
        self._open: dict[str, HumanRecord] = {}

    def _add(self, record: HumanRecord) -> HumanRecord:
        self.records[record.human_id] = record
        self._places.setdefault(record.human_id, len(self._places))
        if record.status == RegistryStatus.PENDING:
            self._open[record.human_id] = record
        return record

    def seed_approved(self, human_id: str) -> HumanRecord:
        """Bootstrap a genesis human (someone has to vouch first)."""
        if self._active(human_id) is not None:
            raise DuplicateHuman(human_id)
        record = HumanRecord(
            human_id, ZERO_DIGEST, None, RegistryStatus.APPROVED, 0
        )
        return self._add(record)

    def _active(self, human_id: str) -> Optional[HumanRecord]:
        record = self.records.get(human_id)
        if record is not None and record.status != RegistryStatus.REJECTED:
            return record
        return None

    def is_approved(self, human_id: str) -> bool:
        record = self.records.get(human_id)
        return record is not None and record.status == RegistryStatus.APPROVED

    def register(
        self, human_id: str, video_hash: bytes, voucher_id: str, now: int
    ) -> HumanRecord:
        if self._active(human_id) is not None:
            raise DuplicateHuman(human_id)
        if not self.is_approved(voucher_id):
            raise VoucherNotApproved(voucher_id)
        record = HumanRecord(
            human_id,
            video_hash,
            voucher_id,
            RegistryStatus.PENDING,
            now + self.challenge_window,
        )
        return self._add(record)

    def challenge(self, human_id: str, reason: str, now: int) -> HumanRecord:
        record = self.records.get(human_id)
        if record is None or record.status != RegistryStatus.PENDING:
            raise ChallengeTooLate(f"no pending registration for {human_id}")
        if now >= record.challenge_deadline:
            raise ChallengeTooLate(
                f"window closed at {record.challenge_deadline}, now {now}"
            )
        record.status = RegistryStatus.CHALLENGED
        record.challenge_reason = reason
        return record

    def finalize(self, now: int) -> list[HumanRecord]:
        """Settle every record whose window has run: challenged ones are
        rejected, unchallenged pending ones past deadline are approved.
        Returns the records that changed, in `records` order. Reads only
        the open records, those pending or challenged."""
        settled = [
            record for record in self._open.values()
            if record.status == RegistryStatus.CHALLENGED
            or now >= record.challenge_deadline
        ]
        for record in settled:
            challenged = record.status == RegistryStatus.CHALLENGED
            record.status = RegistryStatus.REJECTED if challenged else RegistryStatus.APPROVED
            del self._open[record.human_id]
        settled.sort(key=lambda record: self._places[record.human_id])
        return settled


# ---- identities and signals ---------------------------------------------------

class Identity(NamedTuple):
    """Juror identity: two secrets and their public commitment.

    secret = hash(trapdoor || nullifier); commitment = hash(secret). Only
    the commitment ever enters the tree.
    """

    trapdoor: bytes
    nullifier: bytes
    secret: bytes
    commitment: bytes

    @staticmethod
    def generate(rng: random.Random) -> "Identity":
        trapdoor = random_bytes(32, rng)
        nullifier = random_bytes(32, rng)
        secret = hash_bytes(trapdoor + nullifier)
        return Identity(trapdoor, nullifier, secret, hash_bytes(secret))


def nullifier_hash(identity: Identity, external_nullifier: int) -> bytes:
    """One-per-scope tag: hash(nullifier || scope). Same identity and scope
    always collide; different scopes never do."""
    if not 0 <= external_nullifier < 1 << 64:
        raise ValueError("external nullifier must fit in 64 bits")
    return hash_bytes(identity.nullifier + external_nullifier.to_bytes(8, "big"))


class Signal(NamedTuple):
    """Group action: payload plus a membership path and the double-signal
    tag. Not anonymous: the path's leaf index names its sender, because the
    public `group_join` event maps each human to a leaf index. Nor is the tag
    bound to that leaf; see `SemaphoreGroup.verify_signal`."""

    data: bytes
    membership_path: MerklePath
    claimed_root: bytes
    external_nullifier: int
    nullifier_hash: bytes


class SemaphoreGroup:
    """Merkle tree of commitments with double-signal protection."""

    def __init__(self, registry: PohRegistry, tree_depth: int):
        self.registry = registry
        self.tree = MerkleTree(tree_depth)
        # human_id -> leaf index; never deleted, so bans are permanent.
        self.member_bindings: dict[str, int] = {}
        self._leaf_by_commitment: dict[bytes, int] = {}
        self.seen_nullifier_hashes: set[bytes] = set()

    @property
    def root(self) -> bytes:
        return self.tree.root

    def join(self, human_id: str, identity_commitment: bytes) -> int:
        """Admit an approved, never-before-seen human; returns the leaf index."""
        if not self.registry.is_approved(human_id):
            raise NotApproved(human_id)
        if human_id in self.member_bindings:
            raise AlreadyJoined(human_id)
        index = self.tree.insert(identity_commitment)
        self.member_bindings[human_id] = index
        self._leaf_by_commitment[identity_commitment] = index
        return index

    def remove(self, leaf_index: int) -> bytes:
        """Zero out a leaf (ban); the human's binding stays so they cannot
        rejoin. Returns the new root."""
        commitment = self.tree.leaf(leaf_index)
        new_root = self.tree.update(leaf_index, ZERO_DIGEST)
        self._leaf_by_commitment.pop(commitment, None)
        return new_root

    def leaf_index_of(self, identity: Identity) -> int:
        index = self._leaf_by_commitment.get(identity.commitment)
        if index is None:
            raise NotAMember("commitment is not an occupied leaf")
        return index

    def verify_signal(self, signal: Signal) -> Verdict:
        """Accept iff the path proves membership under the current root and
        the nullifier hash is fresh. Accepting records the nullifier.

        Paths are public and nothing ties the nullifier hash to the path's
        leaf, so anyone can pair any member's path with a fresh hash: this
        is not yet the proof a Semaphore circuit gives (ROADMAP item 1)."""
        if signal.claimed_root != self.root:
            return Verdict.reject(REASON_BAD_MEMBERSHIP)
        try:
            leaf = self.tree.leaf(signal.membership_path.leaf_index)
        except IndexOutOfRange:
            return Verdict.reject(REASON_BAD_MEMBERSHIP)
        if leaf == ZERO_DIGEST:
            return Verdict.reject(REASON_BAD_MEMBERSHIP)
        if not merkle_verify(signal.claimed_root, leaf, signal.membership_path):
            return Verdict.reject(REASON_BAD_MEMBERSHIP)
        if signal.nullifier_hash in self.seen_nullifier_hashes:
            return Verdict.reject(REASON_DOUBLE_SIGNAL)
        self.seen_nullifier_hashes.add(signal.nullifier_hash)
        return Verdict.accept()


def create_signal(
    identity: Identity,
    group: SemaphoreGroup,
    data: bytes,
    external_nullifier: int,
) -> Signal:
    """Emit a group signal for ``identity``; raises NotAMember if its
    commitment is not an occupied leaf."""
    index = group.leaf_index_of(identity)
    return Signal(
        data=data,
        membership_path=group.tree.prove(index),
        claimed_root=group.root,
        external_nullifier=external_nullifier,
        nullifier_hash=nullifier_hash(identity, external_nullifier),
    )
