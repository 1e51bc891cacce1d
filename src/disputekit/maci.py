"""Encrypted ballot intake with a single trusted coordinator.

Voters register a public key and a credit budget, then send encrypted,
signed commands. The poll contract is deliberately blind at intake — any
ciphertext is accepted before the deadline — and all meaning is assigned
at processing time:

* only the sender's *last valid* command counts;
* a command may rotate the voter's key, and every later command must be
  signed with the rotated key (stale-key messages are discarded), which
  is what makes coerced ballots cheaply revocable;
* a command that names an option outside the poll's ``0 .. options-1``
  (MACI's ``maxVoteOptions``) is invalid (BadOption);
* spending above the voter's budget invalidates the command.

The tally aggregated from the last valid votes is the poll's outcome: it is
what the coordinator commits to and publishes, and what callers apply.

Each ballot travels in MACI's envelope: the client seals it for the
coordinator under a fresh one-time agreement key, and the ciphertext, plain
bytes whose layout only ``primitives`` reads, carries that key's public point
(MACI's ``encPubKey``). Nothing in the envelope names the sender; the signed
command inside does, and ``decode_signed_command`` alone holds its wire rule.

Processing is "decrypt, then the auditor's replay": open each message with
one key agreement against its own point and one decryption, so processing is
linear in the messages; then replay it under the ballot-replay rule. A
message that does not open (a short, malformed or low-order point, a short
nonce, a failed tag) is an AuthFailure.

The rule judges each plaintext against its voter's key as it stands at that
arrival; each valid command becomes its voter's vote and sets the voter's
key. As in MACI, a voter's state changes only through that voter's own
commands, so the rule is two steps:

1. one stateless step per plaintext, in arrival order
   (``_stateless_verdict``): a plaintext that did not open is an
   AuthFailure, one that is not one canonical command a DecodeError, and one
   whose index names no voter an UnknownVoter;
2. one fold per voter over that voter's surviving commands (``_fold_voter``):
   the signature against the key as it stands, then an option outside
   ``0 .. options-1`` (BadOption), then amounts the cost rule forbids
   (BadAmount), then the budget (OverBudget).

A voter's counted vote is then its last valid command (``_last_valid``),
which also holds the key the voter ended at. One driver runs the rule for
processing and the audit alike: ``_Replay``, which takes voters and
plaintexts in any interleaving and folds what it has not folded when asked.
Nothing in the rule crosses voters (keys and votes are per voter, and
credits never change), so a fold of many commands splits its voters into
contiguous ranges of about equal command counts, one per usable core, and
folds each range after the first in a forked child.

Nothing in the replay waits for the deadline, so a poll is processed by one
replay that grows with its intake, as MACI's coordinator reads the
contract's message log. It is sent only the voters and ciphertexts it has
not seen, and folds them as they come, so each ballot is opened and checked
once however often the poll closes. The poll is processed only under the
key it was opened for (``coordinator_public``); any other key raises
InvalidKey before any ballot is opened. When a poll of
MIN_FORKED_COMMANDS or more voters takes a ballot, its replay runs in the
poll's worker: a forked copy of the coordinator, with the same key, so no
one new is trusted. Any other poll's replay runs here from its first
preview, since each close would wait on a round trip to a worker that
sleeps between ballots. No worker starts while another thread runs or with
one usable core; a worker that cannot start or fails to answer is stopped,
and the replay continues here from the start. One helper (``_Child``) forks
every child, worker or range fold.

Every poll record is positional, as a leaf is in MACI's state and message
trees: voter *i* is ``voters[i]``, and message *j* is ``messages[j]``. No
record carries its own index.

Processing emits an ``AuditTranscript``: decrypted commands, per-message
verdicts, the tally, and the commitment salt, which ``commit_tally`` draws
into it. The counted votes are not in it: only the poll's run holds them,
read off the replayed verdicts. The audit reads each voter's last valid
command off the claimed verdicts instead, and one sum (``_aggregate``)
tallies the counted commands for both. The transcript replaces
succinct proofs at simulation fidelity — ``verify_audit`` runs the same
replay over it, the checks that read only the claims first and the
signature folds last.

The ``Coordinator`` alone holds the decryption key and the generator the
salts come from. The contract (``engine``) holds its public key, tells it of
each ballot, and calls it for what it publishes: the proposals, the tally
commitment, tally and salt.

Known limitations. The audit trusts the coordinator for more than honest
decryption of the messages it claims are garbage:

* no entry's plaintext is bound to its ciphertext (the entry holds only the
  ciphertext's digest), so a coordinator that substitutes one command for
  another and re-derives verdicts and tally to match passes the audit;
* a command's signature does not cover its poll, so a command published in
  one poll's transcript, sealed again, replays as a valid vote in another
  poll where its voter index holds the same key;
* ``options`` and ``cost_rule`` are read from the transcript itself, not
  from the public record, so a transcript may restate them wherever no
  verdict changes.
"""
from __future__ import annotations

import marshal
import os
import random
import struct
import threading
import weakref
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import canonical
from .errors import (
    AlreadyCommitted,
    AuthFailure,
    CommitBeforeProcessing,
    DecodeError,
    DuplicateKey,
    InvalidKey,
    PollClosed,
    REASON_AUTH_FAILURE,
    REASON_BAD_AMOUNT,
    REASON_BAD_OPTION,
    REASON_BAD_SIGNATURE,
    REASON_COMMITMENT_MISMATCH,
    REASON_DECODE_ERROR,
    REASON_MESSAGE_SET_MISMATCH,
    REASON_OVER_BUDGET,
    REASON_REPLAY_MISMATCH,
    REASON_TALLY_MISMATCH,
    REASON_UNKNOWN_VOTER,
    TooEarly,
    Verdict,
    WrongState,
)
from .primitives import (
    DecryptionKey,
    KeyPair,
    decrypt,
    encrypt,
    hash_fields,
    key_agree,
    public_key,
    random_bytes,
    sign,
    verify_sig,
)
from .voting import COST_RULES

SIGNING_LABEL = b"ballot-command-v1"


class Command(NamedTuple):
    """One decrypted ballot instruction.

    ``new_public_key`` is the key later commands must be signed with
    (repeat the current key to keep it). ``memo`` carries phase-specific
    payload (the juror phase puts the proposal hash there).
    """

    new_public_key: bytes
    vote_option: tuple[int, ...]
    vote_amount: tuple[int, ...]
    memo: bytes
    voter_registration_index: int


def _signed_bytes(body: bytes) -> bytes:
    """What a command's signature covers: the label, then the command body."""
    return SIGNING_LABEL + body


def _command_body(command: Command) -> bytes:
    """The command's fields as its plaintext starts with them."""
    return b"".join(
        (
            canonical.encode_bytes(command.new_public_key),
            canonical.encode_int_list(command.vote_option),
            canonical.encode_int_list(command.vote_amount),
            canonical.encode_bytes(command.memo),
            canonical.encode_int64(command.voter_registration_index),
        )
    )


def sign_command(signer: KeyPair, command: Command) -> bytes:
    """The plaintext of `command` signed by `signer`: the body, built once,
    then the signature over ``_signed_bytes`` of it."""
    body = _command_body(command)
    return body + canonical.encode_bytes(sign(signer, _signed_bytes(body)))


_u32_at = canonical.U32.unpack_from
_int64_at = canonical.I64.unpack_from


def decode_signed_command(plaintext: bytes) -> tuple[Command, bytes, bytes]:
    """The command, the bytes its signature covers and its signature: the
    whole wire rule. A plaintext that is not exactly one canonical command,
    with as many amounts as options and options strictly increasing, raises
    DecodeError; a new key that is not 32 bytes raises InvalidKey.

    Each field is unpacked in place at a local cursor, `at`; a prefix above
    ``canonical.MAX_FIELD_LEN`` is refused before anything under it is read."""
    size = len(plaintext)
    try:
        (length,) = _u32_at(plaintext, 0)
        at = 4 + length
        if length > canonical.MAX_FIELD_LEN or at > size:
            raise DecodeError("truncated key")
        key = public_key(plaintext[4:at])
        (count,) = _u32_at(plaintext, at)
        if count > canonical.MAX_FIELD_LEN:
            raise DecodeError(f"count prefix too large: {count}")
        options = canonical.int64_layout(count).unpack_from(plaintext, at + 4)
        at += 4 + 8 * count
        (count,) = _u32_at(plaintext, at)
        if count != len(options):
            raise DecodeError(f"{len(options)} options but {count} amounts")
        amounts = canonical.int64_layout(count).unpack_from(plaintext, at + 4)
        at += 4 + 8 * count
        (length,) = _u32_at(plaintext, at)
        start, at = at + 4, at + 4 + length
        if length > canonical.MAX_FIELD_LEN or at > size:
            raise DecodeError("truncated memo")
        memo = plaintext[start:at]
        (index,) = _int64_at(plaintext, at)
        at += 8
        (length,) = _u32_at(plaintext, at)
        if length > canonical.MAX_FIELD_LEN or at + 4 + length != size:
            raise DecodeError("the signature does not end the plaintext")
    except struct.error:
        raise DecodeError("truncated input") from None
    if any(b <= a for a, b in zip(options, options[1:])):
        raise DecodeError("options are not strictly increasing")
    command = Command(key, options, amounts, memo, index)
    return command, _signed_bytes(plaintext[:at]), plaintext[at + 4:]


def build_message(
    *,
    signer: KeyPair,
    coordinator_public: bytes,
    voter_registration_index: int,
    votes: Mapping[int, int],
    new_public_key: Optional[bytes] = None,
    memo: bytes = b"",
    rng: random.Random,
) -> bytes:
    """Client-side helper: canonical command, signed, sealed for the
    coordinator under a fresh one-time agreement key drawn from `rng`.
    Options are sorted so equal commands encode alike."""
    options = tuple(sorted(votes))
    command = Command(
        new_public_key=signer.public if new_public_key is None else new_public_key,
        vote_option=options,
        vote_amount=tuple(votes[o] for o in options),
        memo=memo,
        voter_registration_index=voter_registration_index,
    )
    return encrypt(coordinator_public, sign_command(signer, command), rng)


# ---- poll state -----------------------------------------------------------------


class MaciMessage(NamedTuple):
    ciphertext: bytes


# A transcript record's fields are its JSON keys, in order (`cli` reads them)
class TranscriptEntry(NamedTuple):
    ciphertext_digest: bytes
    plaintext: Optional[bytes]  # None when the coordinator could not decrypt
    valid: bool
    reason: Optional[str]


class AuditTranscript(NamedTuple):
    """The coordinator's claims (each entry's verdict, the tally and the
    salt) beside the poll's parameters and starting voters. The counted
    votes are not stated: they follow from the claimed verdicts."""

    poll_id: int
    cost_rule: str
    options: int  # vote options 0 .. options-1
    initial_voters: tuple[tuple[bytes, int], ...]  # voter i, as (key, credits)
    # message j in arrival order; the intake digest is derived from these
    entries: tuple[TranscriptEntry, ...]
    tally: Mapping[int, int]
    salt: bytes


def ciphertext_digest(ciphertext: bytes) -> bytes:
    return hash_fields(b"ballot-ct", ciphertext)


def message_set_digest(ciphertexts: Sequence[bytes]) -> bytes:
    """Order-sensitive digest over the intake, chained through per-message
    digests so an audit can re-derive it from transcript entries alone."""
    return digest_over_entries(ciphertext_digest(ct) for ct in ciphertexts)


def digest_over_entries(entry_digests) -> bytes:
    return hash_fields(b"message-set", *entry_digests)


def commitment_digest(poll_id: int, tally: Mapping[int, int], salt: bytes) -> bytes:
    """Binds the tally to its poll, so it opens under no other poll's id."""
    return hash_fields(
        b"tally-commitment",
        canonical.encode_int64(poll_id),
        canonical.encode_int_map(tally),
        salt,
    )


class _Run(NamedTuple):
    """One processing of an intake: the transcript it publishes, and each
    voter's counted vote, as ``MaciPoll.preview_valid_votes`` gives it."""

    transcript: AuditTranscript
    counted: tuple[Optional[tuple[int, Command]], ...]


class MaciPoll:
    """One poll: intake before the deadline, then process/commit/publish."""

    def __init__(
        self,
        poll_id: int,
        coordinator_public: bytes,
        deadline: int,
        cost_rule: str,
        options: int,
    ):
        if cost_rule not in COST_RULES:
            raise ValueError(f"unknown cost rule {cost_rule!r}")
        self.poll_id = poll_id
        self.coordinator_public = coordinator_public
        self.deadline = deadline
        self.cost_rule = cost_rule
        self.options = options
        # voter i, as (registered key, credits): initial_voters[i]
        self.voters: list[tuple[bytes, int]] = []
        self.messages: list[MaciMessage] = []
        self.closed = False
        self._keys_seen: set[bytes] = set()
        self._processed: Optional[AuditTranscript] = None
        # the intake's replay, here or in a worker; dropped once processed
        self._replay: Optional[_Driver] = None
        # the coordinator's run of the intake so far; dropped on any intake
        self._memo: Optional[_Run] = None
        self.commitment: Optional[bytes] = None  # the tally commitment digest

    # -- intake ------------------------------------------------------------

    def has_key(self, key: bytes) -> bool:
        return key in self._keys_seen

    def register_voter(self, key: bytes, credits: int) -> int:
        """Registers the key; returns its voter index."""
        if self.closed:
            raise PollClosed("registration after close")
        if credits < 0:
            raise ValueError("credits must be non-negative")
        if key in self._keys_seen:
            raise DuplicateKey("public key already registered")
        self._keys_seen.add(key)
        self._memo = None
        self.voters.append((key, credits))
        return len(self.voters) - 1

    def submit_message(self, ciphertext: bytes, now: int) -> int:
        """Content-blind intake; only the clock can refuse a message."""
        if self.closed or now >= self.deadline:
            raise PollClosed(f"deadline {self.deadline}, now {now}")
        self.messages.append(MaciMessage(ciphertext))
        self._memo = None
        return len(self.messages) - 1

    def extend_deadline(self, new_deadline: int) -> None:
        if self.closed:
            raise PollClosed("cannot extend a closed poll")
        if new_deadline <= self.deadline:
            raise ValueError("deadline can only move forward")
        self.deadline = new_deadline

    def close(self, now: int) -> None:
        if now < self.deadline:
            raise TooEarly(f"deadline {self.deadline}, now {now}")
        self.closed = True

    # -- processing ----------------------------------------------------------

    def preview_valid_votes(
        self, coordinator_secret: DecryptionKey
    ) -> tuple[Optional[tuple[int, Command]], ...]:
        """Each voter's counted vote, as (arrival index, its last valid
        command), or None for a voter with no valid command; the command's
        new key is where the voter's key ended. A dry run over the current
        message list, used to test quorum before deciding whether to extend.
        Not a processing result, though while the intake is unchanged it
        reads the run ``process_messages`` reads: the poll's one replay,
        sent only the ballots it has not seen."""
        return self._result(coordinator_secret).counted

    def process_messages(self, coordinator_secret: DecryptionKey) -> AuditTranscript:
        """The closed poll's transcript, from its first processing on."""
        if not self.closed:
            raise WrongState("process requires a closed poll")
        transcript = self._result(coordinator_secret).transcript
        if self._processed is None:
            self._processed = transcript
            self._release()
        return self._processed

    def _result(self, coordinator_secret: DecryptionKey) -> _Run:
        """The run of the intake so far, from the poll's replay (made here
        unless ``Coordinator.intake`` started a worker), kept until the next
        intake, and so for good once the poll is closed. Any key but the one
        the poll was opened for raises InvalidKey, before any state is read."""
        if coordinator_secret.public != self.coordinator_public:
            raise InvalidKey("not the coordinator key this poll was opened for")
        if self._memo is None:
            if self._replay is None:
                self._replay = _Driver(coordinator_secret, self)
            self._memo = self._transcribed(self._replay.send(self, ask=True))
        return self._memo

    def _release(self) -> None:
        """Drop the replay, stopping its worker if it runs in one."""
        if self._replay is not None:
            self._replay.stop()
            self._replay = None

    def _transcribed(self, answer: _Answer) -> _Run:
        """The run of the intake so far whose replay answered this, each
        counted vote's command built again from its plain fields."""
        plaintexts, verdicts, votes = answer
        counted = tuple(vote and (vote[0], Command(*vote[1:])) for vote in votes)
        transcript = AuditTranscript(
            poll_id=self.poll_id,
            cost_rule=self.cost_rule,
            options=self.options,
            initial_voters=tuple(self.voters),
            entries=tuple(
                TranscriptEntry(ciphertext_digest(m.ciphertext), plaintext, valid, reason)
                for m, plaintext, (valid, reason) in zip(
                    self.messages, plaintexts, verdicts
                )
            ),
            tally=_aggregate(vote[1] for vote in counted if vote is not None),
            salt=b"",  # drawn by commit_tally
        )
        return _Run(transcript, counted)

    @property
    def tally(self) -> dict[int, int]:
        if self._processed is None:
            raise CommitBeforeProcessing("no processing result yet")
        return dict(self._processed.tally)

    # -- commitment ----------------------------------------------------------

    def commit_tally(self, rng: random.Random) -> bytes:
        """Commit to the tally this poll processed, under a salt drawn from
        `rng` and kept in its transcript; ``publish_tally`` reveals both."""
        if self._processed is None:
            raise CommitBeforeProcessing("commit requires processed messages")
        if self.commitment is not None:
            raise AlreadyCommitted("a tally commitment already exists")
        salt = random_bytes(32, rng)
        self._processed = self._processed._replace(salt=salt)
        self.commitment = commitment_digest(self.poll_id, self._processed.tally, salt)
        return self.commitment

    def publish_tally(self) -> tuple[dict[int, int], bytes]:
        if self.commitment is None or self._processed is None:
            raise WrongState("publish requires a commitment")
        return self.tally, self._processed.salt

    def audit_transcript(self) -> AuditTranscript:
        """The processed transcript with its commitment salt (post-publication)."""
        if self._processed is None:
            raise CommitBeforeProcessing("no processing result yet")
        if self.commitment is None:
            raise WrongState("transcript is published together with the salt")
        return self._processed


class Proposal(NamedTuple):
    """Proposal k, a counted Phase-1 vote, and Phase-2 option k. A fee claim
    is signed with ``author_key``, where the author's key ended."""

    text_hash: bytes
    author_registration_index: int
    author_key: bytes


class Coordinator:
    """The one holder of the decryption key and of the salts' generator.

    A poll is processed by one replay of its intake (see the module
    docstring). At the first ballot a poll takes while it holds
    MIN_FORKED_COMMANDS or more voters, ``intake`` starts the poll's worker:
    this coordinator forked, holding the same key, whose replay is sent
    every voter and ballot taken so far and then opens and folds each ballot
    as ``intake`` sends it. Any other poll's replay runs here from its first
    preview. ``proposals`` and ``commit`` read the run through the poll's
    preview and processing. A worker is stopped once its poll is processed
    or released, and ``close`` stops every worker left; it runs by itself
    when the coordinator is dropped."""

    def __init__(self, secret: DecryptionKey, rng: random.Random):
        self._secret = secret
        self._rng = rng
        self.public = secret.public
        # each poll whose worker this coordinator started, until released
        self._forked: set[MaciPoll] = set()
        self.close = weakref.finalize(self, _release_all, self._forked)

    def intake(self, poll: MaciPoll) -> None:
        """The poll took a ballot: its replay, if it has one, is sent what it
        has not seen. A poll with no replay yet that holds MIN_FORKED_COMMANDS
        or more voters starts its worker here, at the first ballot it takes
        while holding them, and the worker is sent the whole intake so far."""
        if poll._replay is None:
            if len(poll.voters) < MIN_FORKED_COMMANDS or _usable_cores() < 2:
                return
            poll._replay = _start_worker(self._secret, poll)
            self._forked.add(poll)
        poll._replay.send(poll, ask=False)

    def proposals(self, poll: MaciPoll) -> list[Proposal]:
        """The counted Phase-1 votes, those that spend the juror's one credit,
        in arrival order: each command's memo (a text hash), its voter's
        index and its new key. The poll may still be open."""
        counted = sorted(filter(None, poll.preview_valid_votes(self._secret)))
        return [
            Proposal(command.memo, command.voter_registration_index, command.new_public_key)
            for _, command in counted
            if sum(command.vote_amount) == 1
        ]

    def commit(self, poll: MaciPoll) -> tuple[dict[int, int], bytes]:
        """Process the closed poll; its tally and the commitment digest. The
        poll is then released."""
        poll.process_messages(self._secret)
        digest = poll.commit_tally(self._rng)
        self.release(poll)
        return poll.tally, digest

    def release(self, poll: MaciPoll) -> None:
        """The poll needs no more processing: drop its replay and stop its
        worker, if any."""
        self._forked.discard(poll)
        poll._release()

    def publish(self, poll: MaciPoll) -> tuple[dict[int, int], bytes]:
        return poll.publish_tally()  # the tally and the salt that opens it


def _release_all(polls: set[MaciPoll]) -> None:
    for poll in polls:
        poll._release()
    polls.clear()


def _open(coordinator_secret: DecryptionKey, ct: bytes) -> Optional[bytes]:
    """One key agreement with the message's own point, one decryption; None
    for any bytes that do not open."""
    try:
        return decrypt(key_agree(coordinator_secret, ct), ct)
    except (InvalidKey, AuthFailure):
        return None


# The one threshold for forking: a replay's fold (``_split``) makes no more
# voter ranges than one per this many commands it folds, and a poll's replay
# runs in a worker (``Coordinator.intake``) only once the poll holds this
# many voters.
# Measured on a 2-core host whose Ed25519 check took 160 to 190 us:
# - a fork round trip (fork, pipe, marshal, wait) took about 5.7 ms at 49 MB
#   RSS, so a range of 200 commands, about 35 ms of checks, pays about a
#   sixth of the work it moves off this process's core, and a fold of
#   fewer than 400 commands forks nothing;
# - a worker took about 2.5 ms to fork at a `jury` run's 32 MB and takes
#   about 1 ms at the close to hand its run over, and it moves about 0.35 ms
#   a ballot (one opening, one signature check) off this process: `jury`'s
#   Phase-1 close fell from about 170 ms to about 45 ms, most of it the wait
#   for the last ballots' folds;
# - a worker for every poll, panels of 3 included, made a 60-dispute
#   `docket` run 4.7 times slower (1.17 s against 0.25 s), since each poll
#   paid a fork, and each close a round trip, for a few ballots.
MIN_FORKED_COMMANDS = 200

# (arrival index, command, signed bytes, signature)
_Signed = tuple[int, Command, bytes, bytes]
_Reasons = list[Optional[str]]  # each command's reason, or None when valid


def _stateless_verdict(
    plaintext: Optional[bytes], voter_count: int
) -> tuple[Optional[str], Optional[tuple[Command, bytes, bytes]]]:
    """The reason a plaintext is invalid whatever any voter's state, or None
    with the decoded command, its signed bytes and its signature."""
    if plaintext is None:
        return REASON_AUTH_FAILURE, None
    try:
        command, signed, signature = decode_signed_command(plaintext)
    except (DecodeError, InvalidKey):
        return REASON_DECODE_ERROR, None
    if not 0 <= command.voter_registration_index < voter_count:
        return REASON_UNKNOWN_VOTER, None
    return None, (command, signed, signature)


def _fold_voter(
    key: bytes,
    credits: int,
    chain: Sequence[_Signed],
    options: int,
    cost: Callable[[Sequence[int]], Optional[int]],
) -> tuple[_Reasons, bytes]:
    """One voter's commands in arrival order, from `key`: each must be
    signed with the key as it stands, then name only the poll's options,
    then hold amounts the cost rule prices (not None), then spend within the
    budget. A valid command sets the key. Returns each command's reason, in
    plain values so a forked child can send them, and the key where the
    fold stopped."""
    reasons: _Reasons = []
    for _, command, signed, signature in chain:
        if not verify_sig(key, signed, signature):
            reason = REASON_BAD_SIGNATURE
        elif any(not 0 <= option < options for option in command.vote_option):
            reason = REASON_BAD_OPTION
        elif (spent := cost(command.vote_amount)) is None:
            reason = REASON_BAD_AMOUNT
        elif spent > credits:
            reason = REASON_OVER_BUDGET
        else:
            reason = None
            key = command.new_public_key
        reasons.append(reason)
    return reasons, key


# every (valid, reason) that ``_fold_voter`` can give a command
_FOLD_VERDICTS = (
    (True, None),
    (False, REASON_BAD_SIGNATURE),
    (False, REASON_BAD_OPTION),
    (False, REASON_BAD_AMOUNT),
    (False, REASON_OVER_BUDGET),
)


def _usable_cores() -> int:
    """Cores this process may run on; one while another thread runs, since
    a forked child would hold a copy of every lock that thread holds."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _split(chains: Sequence[Sequence[_Signed]]) -> list[range]:
    """Contiguous voter ranges with about equal command counts, at most one
    per usable core, and few enough that each holds about
    MIN_FORKED_COMMANDS or more. A voter goes to the range that holds the
    middle of its chain."""
    total = sum(len(chain) for chain in chains)
    parts = total // MIN_FORKED_COMMANDS
    if parts > 1:
        parts = min(parts, _usable_cores())
    if parts < 2:
        return [range(len(chains))]
    bounds, seen = [0], 0
    for voter, chain in enumerate(chains):
        middle = seen + len(chain) / 2
        if len(bounds) < parts and middle * parts >= total * len(bounds):
            bounds.append(voter)
        seen += len(chain)
    bounds.append(len(chains))
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


# this process's ends of every live child's pipes, which each child closes
# first, so that a worker reads the end of its requests as soon as this
# process closes them, whatever was forked after it
_LIVE_PIPES: set[int] = set()


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class _Child:
    """A forked child, as this process holds it: the pid, and this
    process's ends of its two pipes, ``requests`` to write and ``answers``
    to read. Every child in this module is made by ``fork``."""

    def __init__(self, pid: int, requests: int, answers: int):
        self.pid = pid
        self.requests = requests
        self.answers = open(answers, "rb")
        _LIVE_PIPES.update((requests, answers))

    @classmethod
    def fork(cls, body: Callable[[int, int], None]) -> Optional[_Child]:
        """A child that runs ``body(requests, answers)`` on its ends of two
        new pipes; None when none could be made. The child first closes
        every live child's pipe ends, and leaves only through ``os._exit``:
        0 once ``body`` returns, 1 if it raises."""
        pipes: list[int] = []
        try:
            pipes.extend(os.pipe())
            pipes.extend(os.pipe())
            pid = os.fork()
        except OSError:
            for fd in pipes:
                os.close(fd)
            return None
        requests_read, requests, answers, answers_write = pipes
        if pid == 0:  # the child: never returns into the caller
            status = 1
            try:
                for fd in (requests, answers, *_LIVE_PIPES):
                    os.close(fd)
                _LIVE_PIPES.clear()  # so a child of this child closes only its own
                body(requests_read, answers_write)
                status = 0
            finally:
                os._exit(status)
        os.close(requests_read)
        os.close(answers_write)
        return cls(pid, requests, answers)

    def stop(self) -> bool:
        """Close this process's ends, so a child reading requests reaches
        their end, and reap the child; whether it exited 0."""
        _LIVE_PIPES.difference_update((self.requests, self.answers.fileno()))
        os.close(self.requests)
        self.answers.close()
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped by another wait
            return False
        return os.waitstatus_to_exitcode(status) == 0

    def last_answer(self) -> object:
        """All the child writes, unmarshalled, once it exits; None when it
        exited non-zero or wrote nothing. The child is stopped."""
        try:
            data = self.answers.read()
        finally:
            exited = self.stop()
        return marshal.loads(data) if exited and data else None


def _fold_ranges(fold: Callable[[range], list], ranges: Sequence[range]) -> list:
    """``fold`` over every range, concatenated in order. The first range is
    folded here, each other one by a child asked once: it writes its fold
    and exits. A range whose child could not be made or failed is folded
    here too."""

    def write_fold(voters: range, requests: int, answers: int) -> None:
        _write_all(answers, marshal.dumps(fold(voters)))

    children: list[tuple[range, Optional[_Child]]] = []
    try:
        for voters in ranges[1:]:
            children.append((voters, _Child.fork(partial(write_fold, voters))))
        folded = fold(ranges[0])
        while children:
            voters, child = children.pop(0)
            result = None if child is None else child.last_answer()
            folded.extend(fold(voters) if result is None else result)
    finally:
        for _, child in children:  # left by an exception: reap them
            if child is not None:
                child.stop()
    return folded


def _last_valid(
    chains: Sequence[Sequence[_Signed]],
    verdicts: Sequence[tuple[bool, Optional[str]]],
) -> Iterator[Optional[_Signed]]:
    """Each voter's last command whose verdict is valid, or None: where the
    voter's replay ends, and the voter's counted vote. Processing reads the
    replayed verdicts, the audit the claimed."""
    for chain in chains:
        last = None
        for signed in reversed(chain):
            if verdicts[signed[0]][0]:
                last = signed
                break
        yield last


def _aggregate(commands: Iterable[Command]) -> dict[int, int]:
    """The tally of the counted votes: each voter's last valid command."""
    tally: dict[int, int] = {}
    for command in commands:
        for option, amount in zip(command.vote_option, command.vote_amount):
            tally[option] = tally.get(option, 0) + amount
    return tally


# ---- a poll's replay: processed as it arrives, here or in its worker -------------


# above every voter index a command can hold, so only a negative index is
# unknown before the voters are all registered
_ANY_VOTER = 1 << 63


class _Replay:
    """The ballot-replay rule over an intake that may grow, as voters and
    plaintexts are added in any interleaving.

    ``add`` takes a plaintext's stateless step (``_stateless_verdict``) and
    appends a command that survives it to its voter's chain, or, while that
    voter is not registered, to the commands waiting for it, which read
    UnknownVoter until a fold after the voter registers. ``fold`` first
    checks the key of every voter added since it last ran, then folds each
    voter's commands not yet folded (``_fold_voter``) from the key where
    that voter's last fold stopped, so it costs what it folds: the voters
    are split as ``_split`` says, and the ranges folded by ``_fold_ranges``.
    ``verdicts`` holds each plaintext's (valid, reason), None for any other
    command not yet folded."""

    def __init__(self, cost_rule: str, options: int):
        # None for a rule no poll takes, which the audit refuses before a fold
        self._cost = COST_RULES.get(cost_rule)
        self._options = options
        self.voters: list[tuple[bytes, int]] = []  # voter i, as (key, credits)
        self.chains: list[list[_Signed]] = []  # each voter's commands, in arrival order
        self.plaintexts: list[Optional[bytes]] = []
        self.verdicts: list[Optional[tuple[bool, Optional[str]]]] = []
        self._keys: list[bytes] = []  # where each checked voter's fold stopped
        self._unfolded: dict[int, int] = {}  # voter: its first command not folded
        self._waiting: dict[int, list[_Signed]] = {}  # by the voter they name

    def add_voter(self, key: bytes, credits: int) -> None:
        voter = len(self.voters)
        self.voters.append((key, credits))
        self.chains.append(self._waiting.pop(voter, []))
        if self.chains[voter]:
            self._unfolded[voter] = 0

    def add(self, plaintext: Optional[bytes]) -> None:
        arrival = len(self.plaintexts)
        self.plaintexts.append(plaintext)
        reason, decoded = _stateless_verdict(plaintext, _ANY_VOTER)
        if decoded is None:
            self.verdicts.append((False, reason))
            return
        signed, voter = (arrival, *decoded), decoded[0].voter_registration_index
        if voter < len(self.voters):
            self.verdicts.append(None)
            self._unfolded.setdefault(voter, len(self.chains[voter]))
            self.chains[voter].append(signed)
        else:
            self.verdicts.append((False, REASON_UNKNOWN_VOTER))
            self._waiting.setdefault(voter, []).append(signed)

    def fold(self) -> None:
        """Judge every command not yet folded. A voter key that is not 32
        bytes raises InvalidKey, whether or not the voter sent a command."""
        self._keys.extend(public_key(key) for key, _ in self.voters[len(self._keys):])
        if not self._unfolded:
            return
        voters = sorted(self._unfolded)
        chains = [self.chains[voter][self._unfolded[voter]:] for voter in voters]

        def fold(part: range) -> list[tuple[_Reasons, bytes]]:
            return [
                _fold_voter(
                    self._keys[voters[i]], self.voters[voters[i]][1], chains[i],
                    self._options, self._cost,
                )
                for i in part
            ]

        folded = _fold_ranges(fold, _split(chains))
        for voter, chain, (reasons, key) in zip(voters, chains, folded):
            self._keys[voter] = key
            for (arrival, _, _, _), reason in zip(chain, reasons):
                self.verdicts[arrival] = (reason is None, reason)
        self._unfolded.clear()

    def result(self) -> _Answer:
        """Fold, then (plaintexts, verdicts, counted votes): each voter's last
        valid command (``_last_valid``) as the plain tuple (arrival index,
        *command), which a worker can send, or None."""
        self.fold()
        lasts = _last_valid(self.chains, self.verdicts)
        counted = [last and (last[0], *last[1]) for last in lasts]
        return self.plaintexts, list(self.verdicts), counted


# what a replay answers: ``_Replay.result``
_Answer = tuple[list, list, list]


class _Driver:
    """A poll's one ``_Replay``, run here or in the poll's worker (a child
    of ``_start_worker``), and how many of the poll's voters and messages it
    was sent. A worker that fails to answer is stopped, and the replay
    continues here, from the start."""

    def __init__(self, secret: DecryptionKey, poll: MaciPoll):
        self.secret = secret
        # in a worker, the child's copy of it runs
        self.replay = _Replay(poll.cost_rule, poll.options)
        self.child: Optional[_Child] = None  # the worker, while the replay runs there
        self.voters = self.messages = 0

    def send(self, poll: MaciPoll, ask: bool) -> Optional[_Answer]:
        """Send the replay the poll's voters and messages it has not seen;
        with `ask`, return its result so far."""
        messages = poll.messages[self.messages:]
        request = (poll.voters[self.voters:], [m.ciphertext for m in messages], ask)
        self.voters, self.messages = len(poll.voters), len(poll.messages)
        if self.child is None:
            return self.take(*request)
        try:
            _write_all(self.child.requests, marshal.dumps(request))
            return marshal.load(self.child.answers) if ask else None
        except (OSError, EOFError, ValueError):
            self.stop()
            self.voters = self.messages = 0
            return self.send(poll, ask)

    def take(self, voters: list, ciphertexts: list, ask: bool) -> Optional[_Answer]:
        """Add the voters, then each ciphertext, opened, to the replay, and
        fold them; with `ask`, its result so far."""
        for key, credits in voters:
            self.replay.add_voter(key, credits)
        for ciphertext in ciphertexts:
            self.replay.add(_open(self.secret, ciphertext))
        self.replay.fold()
        return self.replay.result() if ask else None

    def serve(self, requests: int, answers: int) -> None:
        """A worker's loop: each request goes to ``take``, and a request
        that asks is answered. Returns at the end of the requests."""
        with open(requests, "rb") as stream:
            while True:
                try:
                    answer = self.take(*marshal.load(stream))
                except EOFError:
                    return
                if answer is not None:
                    _write_all(answers, marshal.dumps(answer))

    def stop(self) -> None:
        """Stop the worker, if the replay runs in one."""
        if self.child is not None:
            self.child.stop()
            self.child = None


def _start_worker(secret: DecryptionKey, poll: MaciPoll) -> _Driver:
    """A driver for `poll`, sent nothing yet, whose replay runs in a new
    worker; here when none could be made."""
    driver = _Driver(secret, poll)
    driver.child = _Child.fork(driver.serve)
    return driver


# ---- transparent audit -------------------------------------------------------


# every (valid, reason) a claim may take: valid with no reason, or invalid
# with a reason the replay gives
_CLAIM_SHAPES = frozenset(
    (
        *_FOLD_VERDICTS,
        (False, REASON_AUTH_FAILURE),
        (False, REASON_DECODE_ERROR),
        (False, REASON_UNKNOWN_VOTER),
    )
)


def _claims_agree(
    claimed: Sequence[tuple[bool, Optional[str]]],
    unfolded: Sequence[Optional[tuple[bool, Optional[str]]]],
) -> bool:
    """The rest of check 4a: whether the claimed verdicts agree with the
    replay's verdicts before its fold, with no signature check. Every
    replay's result agrees: an entry the stateless step judged is claimed
    with that verdict, and any other with a verdict a fold can give."""
    return all(
        claim in _FOLD_VERDICTS if verdict is None else claim == verdict
        for claim, verdict in zip(claimed, unfolded)
    )


def verify_audit(
    transcript: AuditTranscript,
    intake_digest: bytes,
    commitment: bytes,
) -> Verdict:
    """Re-derive everything the coordinator claimed; reject on the first
    check that fails. The transcript states only the claims (each entry's
    verdict, the tally and the salt) beside the poll's parameters and
    starting voters. The four checks are:

    1. the digest derived from the entries' ciphertext digests, in order,
       is the observed intake digest, so the entries are exactly the
       observed messages in arrival order;
    2. the votes of each voter's last command claimed valid
       (``_last_valid``, where processing reads its own verdicts) sum to
       the tally;
    3. the published commitment opens to (poll id, tally, salt), so a
       transcript relabelled to another poll opens nothing;
    4. the cost rule is known, and the replay processing ran (``_Replay``)
       reproduces every claimed verdict from the published plaintexts, every
       starting key included. The voters and entries are positional, so the
       replay reads them as listed.

    They run in this order, each step reading no more than it needs:

    * check 1, on the entries' digests;
    * check 4a's first half, on the claims alone: each is ``(True, None)``
      or False with a reason the replay gives;
    * the replay is sent the voters and the plaintexts, each plaintext
      taking the stateless step, decoded once;
    * check 2, on the replay's chains, then check 3;
    * the rest of check 4a: the claims agree with the replay's verdicts
      before its fold (``_claims_agree``), with no signature check;
    * check 4b: the replay's fold, the O(M) signature replay, gives exactly
      the claimed verdicts.

    The accept set is that of any order: every replay's verdicts pass 4a,
    so 4a rejects only what 4b would, and 4a and 4b both read
    ReplayMismatch. Only a transcript that fails more than one check can be
    named by another check than in another order: a claimed verdict that
    moves a counted vote fails 2 and 4, and reads TallyMismatch.
    """
    entry_digests = (entry.ciphertext_digest for entry in transcript.entries)
    if digest_over_entries(entry_digests) != intake_digest:
        return Verdict.reject(REASON_MESSAGE_SET_MISMATCH)

    claimed = [(entry.valid, entry.reason) for entry in transcript.entries]
    if not _CLAIM_SHAPES.issuperset(claimed):
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    replay = _Replay(transcript.cost_rule, transcript.options)
    for key, credits in transcript.initial_voters:
        replay.add_voter(key, credits)
    for entry in transcript.entries:
        replay.add(entry.plaintext)

    counted = (
        last[1] for last in _last_valid(replay.chains, claimed) if last is not None
    )
    if _aggregate(counted) != dict(transcript.tally):
        return Verdict.reject(REASON_TALLY_MISMATCH)

    try:
        opened = commitment == commitment_digest(
            transcript.poll_id, transcript.tally, transcript.salt
        )
    except DecodeError:
        # a poll id or tally past int64 has no canonical encoding, so it
        # opens nothing
        opened = False
    if not opened:
        return Verdict.reject(REASON_COMMITMENT_MISMATCH)

    if transcript.cost_rule not in COST_RULES or not _claims_agree(
        claimed, replay.verdicts
    ):
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    try:
        replay.fold()
    except InvalidKey:
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    if replay.verdicts != claimed:
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    return Verdict.accept()
