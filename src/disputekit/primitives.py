"""Hashing, keys, authenticated encryption, signatures, and the member tree.

Concrete algorithm choices (SHA-256, Ed25519, X25519, ChaCha20-Poly1305)
live behind this module's functions; nothing above it names an algorithm.
Each key has one job: a participant's keypair only signs, and the
coordinator's decryption key only opens what is sealed for it; each is
derived from its seed by domain-separated hashing. A message is sealed for
one recipient under a fresh one-time key: the ciphertext is plain bytes, that
key's point, then the nonce, then the AEAD output, so the recipient opens it
with one agreement and one decryption. Only this module reads that layout.

All randomness is drawn through ``random_bytes`` from a generator every
caller must pass, so a seeded one replays byte-identical protocol runs.
"""
from __future__ import annotations

import hashlib
import random
from typing import Any, NamedTuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import AuthFailure, IndexOutOfRange, InvalidKey, TreeFull

DIGEST_SIZE = 32
SEED_SIZE = 32
NONCE_SIZE = 12
POINT_SIZE = 32
ZERO_DIGEST = bytes(DIGEST_SIZE)


def hash_bytes(data: bytes) -> bytes:
    """Protocol hash: 32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


def hash_fields(*fields_: bytes) -> bytes:
    """Hash a fixed sequence of length-prefixed fields (no concat ambiguity)."""
    h = hashlib.sha256()
    for item in fields_:
        h.update(len(item).to_bytes(4, "big"))
        h.update(item)
    return h.digest()


def random_bytes(count: int, rng: random.Random) -> bytes:
    """Fresh bytes from the injected generator; pass ``random.SystemRandom()``
    for OS entropy."""
    return rng.randbytes(count)


# ---- keys: participants sign, the coordinator decrypts ---------------------

def public_key(data: bytes) -> bytes:
    """`data`, read from outside as a participant's public signing key: one
    32-byte Ed25519 point. Any other length raises InvalidKey."""
    if len(data) != 32:
        raise InvalidKey(f"public key must be 32 bytes, got {len(data)}")
    return data


class KeyPair(NamedTuple):
    """Participant signing keypair; ``seed`` is the only secret material.
    Its private key is kept, so signing does not rebuild it on every call.
    Two keypairs are equal when their seeds are, and the repr leaves the
    private key out."""

    seed: bytes
    public: bytes
    signing: Ed25519PrivateKey

    # a tuple's own comparisons would read the private key, and would equal
    # a plain tuple of the same fields
    def __eq__(self, other: Any) -> bool:
        return other.__class__ is self.__class__ and self.seed == other.seed

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self.seed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed!r}, public={self.public!r})"

    @staticmethod
    def from_seed(seed: bytes) -> "KeyPair":
        if len(seed) != SEED_SIZE:
            raise InvalidKey(f"seed must be {SEED_SIZE} bytes")
        signing = Ed25519PrivateKey.from_private_bytes(hash_fields(b"sign", seed))
        return KeyPair(seed, signing.public_key().public_bytes_raw(), signing)

    @staticmethod
    def generate(rng: random.Random) -> "KeyPair":
        return KeyPair.from_seed(random_bytes(SEED_SIZE, rng))


class DecryptionKey(NamedTuple):
    """The coordinator's key: it only opens what is sealed for ``public``.
    Compared, hashed and shown as a ``KeyPair`` is: by seed, without the
    private key."""

    seed: bytes
    public: bytes
    agreement: X25519PrivateKey

    __eq__, __ne__, __hash__, __repr__ = (
        KeyPair.__eq__, KeyPair.__ne__, KeyPair.__hash__, KeyPair.__repr__
    )

    @staticmethod
    def generate(rng: random.Random) -> "DecryptionKey":
        seed = random_bytes(SEED_SIZE, rng)
        agreement = X25519PrivateKey.from_private_bytes(hash_fields(b"agree", seed))
        return DecryptionKey(seed, agreement.public_key().public_bytes_raw(), agreement)


def _shared_key(secret: X25519PrivateKey, peer_point: bytes) -> bytes:
    try:
        raw = secret.exchange(X25519PublicKey.from_public_bytes(peer_point))
    except (ValueError, TypeError) as exc:  # wrong length or low-order point
        raise InvalidKey(str(exc)) from exc
    return hash_fields(b"shared", raw)


def key_agree(secret: DecryptionKey, ciphertext: bytes) -> bytes:
    """The 32-byte key ``encrypt`` sealed `ciphertext` under, from the
    one-time point it starts with. A short, malformed or low-order point
    raises InvalidKey."""
    return _shared_key(secret.agreement, ciphertext[:POINT_SIZE])


def sign(secret: KeyPair, message: bytes) -> bytes:
    return secret.signing.sign(message)


def verify_sig(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---- authenticated encryption ------------------------------------------------

def encrypt(recipient: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """Seal `plaintext` for the holder of agreement point `recipient` under a
    one-time agreement key drawn from `rng` (32 bytes, then the 12-byte nonce):
    that key's 32-byte point, then the nonce, then the AEAD output. The
    recipient opens it with ``decrypt(key_agree(secret, ct), ct)``."""
    ephemeral = X25519PrivateKey.from_private_bytes(random_bytes(SEED_SIZE, rng))
    key = _shared_key(ephemeral, recipient)
    nonce = random_bytes(NONCE_SIZE, rng)
    sealed = ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)
    return ephemeral.public_key().public_bytes_raw() + nonce + sealed


def decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """What `ciphertext` seals under `key`, past its point. Any other bytes,
    one too short to hold a nonce included, raise AuthFailure."""
    aead = ChaCha20Poly1305(key)
    nonce = ciphertext[POINT_SIZE:POINT_SIZE + NONCE_SIZE]
    try:
        return aead.decrypt(nonce, ciphertext[POINT_SIZE + NONCE_SIZE:], None)
    except (InvalidTag, ValueError) as exc:  # ValueError: a short nonce
        raise AuthFailure("ciphertext failed authentication") from exc


# ---- fixed-depth Merkle tree --------------------------------------------------

class MerklePath(NamedTuple):
    """Bottom-up sibling digests for one leaf; index selects left/right."""

    leaf_index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """Append-only fixed-depth hash tree; absent subtrees hash a zero value.

    Capacity is 2**depth leaves. Root of the empty tree is the depth-th
    iterated zero-subtree digest, and updating any occupied slot (used for
    member removal) changes the root. A write recomputes the one path from
    its leaf to the root; reads are lookups.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.zeros = [ZERO_DIGEST]
        for _ in range(depth):
            self.zeros.append(hash_bytes(self.zeros[-1] + self.zeros[-1]))
        # _levels[0] holds the leaves, _levels[depth] the root once written;
        # a node past the end of its level is that level's zero digest.
        self._levels: list[list[bytes]] = [[] for _ in range(depth + 1)]

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._levels[0]):
            raise IndexOutOfRange(f"no leaf at index {index}")

    def leaf(self, index: int) -> bytes:
        self._check(index)
        return self._levels[0][index]

    def insert(self, leaf: bytes) -> int:
        index = len(self._levels[0])
        if index >= self.capacity:
            raise TreeFull(f"tree holds at most {self.capacity} leaves")
        self._write(index, leaf)
        return index

    def update(self, index: int, leaf: bytes) -> bytes:
        self._check(index)
        self._write(index, leaf)
        return self.root

    def _node(self, level: int, index: int) -> bytes:
        nodes = self._levels[level]
        return nodes[index] if index < len(nodes) else self.zeros[level]

    def _write(self, index: int, leaf: bytes) -> None:
        """Set the leaf at `index` (an occupied slot or the next free one)
        and rehash each node on its path to the root."""
        node = leaf
        for level, nodes in enumerate(self._levels):
            if index < len(nodes):
                nodes[index] = node
            else:
                nodes.append(node)
            if level < self.depth:
                sibling = self._node(level, index ^ 1)
                node = hash_bytes(sibling + node if index & 1 else node + sibling)
                index >>= 1

    @property
    def root(self) -> bytes:
        return self._node(self.depth, 0)

    def prove(self, index: int) -> MerklePath:
        self._check(index)
        siblings = tuple(
            self._node(level, (index >> level) ^ 1) for level in range(self.depth)
        )
        return MerklePath(index, siblings)


def merkle_verify(root: bytes, leaf: bytes, path: MerklePath) -> bool:
    """Fold the leaf up the path and compare with the claimed root."""
    node = leaf
    index = path.leaf_index
    for sibling in path.siblings:
        if index & 1:
            node = hash_bytes(sibling + node)
        else:
            node = hash_bytes(node + sibling)
        index >>= 1
    return node == root
