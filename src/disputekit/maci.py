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
coordinator under a fresh one-time agreement key, and the ciphertext carries
that key's public point (MACI's ``encPubKey``). Nothing in the envelope names
the sender; the signed command inside does.

Processing is "decrypt, then the auditor's replay": open each message with
one key agreement against its own point and one decryption, so processing is
linear in the messages; then run ``replay_ballots``, the one definition of
these rules. A message that does not open (a malformed or low-order point, a
failed tag) is an AuthFailure.

As in MACI, a voter's state changes only through that voter's own commands,
so the replay is one stateless pass over the plaintexts in arrival order
(undecryptable, undecodable, unknown voter), then one fold per voter over
that voter's commands (signature against the key as it stands, option,
amount, budget). The folds are independent: the voters are split into
contiguous ranges of about equal command counts, one per usable core, and
each range after the first is folded in a forked child. A poll too small to
be worth a fork is one range, folded in the calling process.

Processing emits an ``AuditTranscript``:
decrypted commands, per-message verdicts, final voter states, the tally, and
the commitment salt. The transcript replaces succinct proofs at simulation
fidelity — ``verify_audit`` runs the same replay over it. What it cannot
prove is honest decryption of messages the coordinator *claims* are garbage;
that residual trust in the coordinator is the modeled boundary.
"""
from __future__ import annotations

import dataclasses
import marshal
import os
import random
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

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
    Ciphertext,
    DecryptionKey,
    KeyPair,
    PublicKey,
    decrypt,
    encrypt,
    hash_fields,
    key_agree,
    random_bytes,
    sign,
    verify_sig,
)
from .voting import COST_RULES, NEGATIVES_ALLOWED

SIGNING_LABEL = b"ballot-command-v1"


@dataclass(frozen=True)
class Command:
    """One decrypted ballot instruction.

    ``new_public_key`` is the key later commands must be signed with
    (repeat the current key to keep it). ``memo`` carries phase-specific
    payload (the juror phase puts the proposal hash there).
    """

    new_public_key: PublicKey
    vote_option: tuple[int, ...]
    vote_amount: tuple[int, ...]
    memo: bytes
    voter_registration_index: int

    def signing_bytes(self) -> bytes:
        return SIGNING_LABEL + self._body()

    def _body(self) -> bytes:
        return b"".join(
            (
                canonical.encode_bytes(self.new_public_key.encode()),
                canonical.encode_int_list(self.vote_option),
                canonical.encode_int_list(self.vote_amount),
                canonical.encode_bytes(self.memo),
                canonical.encode_int64(self.voter_registration_index),
            )
        )

    def encode_signed(self, signature: bytes) -> bytes:
        return self._body() + canonical.encode_bytes(signature)


def decode_signed_command(plaintext: bytes) -> tuple[Command, bytes, bytes]:
    """The command, its body (the slice of `plaintext` that SIGNING_LABEL
    prefixes to form the signed bytes) and its signature."""
    reader = canonical.Reader(plaintext)
    key = PublicKey.decode(reader.read_bytes())
    options = tuple(reader.read_int_list())
    amounts = tuple(reader.read_int_list())
    memo = reader.read_bytes()
    index = reader.read_int64()
    body = plaintext[: reader.offset]
    signature = reader.read_bytes()
    reader.expect_end()
    return Command(key, options, amounts, memo, index), body, signature


def build_message(
    *,
    signer: KeyPair,
    coordinator_public: bytes,
    voter_registration_index: int,
    votes: Mapping[int, int],
    new_public_key: Optional[PublicKey] = None,
    memo: bytes = b"",
    rng: random.Random,
) -> Ciphertext:
    """Client-side helper: canonical command, signed, sealed for the
    coordinator under a fresh one-time agreement key drawn from `rng`.
    Options are sorted so equal commands encode alike."""
    options = tuple(sorted(votes))
    command = Command(
        new_public_key=new_public_key or signer.public,
        vote_option=options,
        vote_amount=tuple(votes[o] for o in options),
        memo=memo,
        voter_registration_index=voter_registration_index,
    )
    signature = sign(signer, command.signing_bytes())
    return encrypt(coordinator_public, command.encode_signed(signature), rng)


# ---- poll state -----------------------------------------------------------------


@dataclass
class RegisteredVoter:
    registration_index: int
    registered_key: PublicKey  # fixed; the replay starts from it
    current_key: PublicKey  # rotates via commands
    voice_credits: int


@dataclass(frozen=True)
class MaciMessage:
    arrival_index: int
    ciphertext: Ciphertext


@dataclass(frozen=True)
class FinalVote:
    vote_option: tuple[int, ...]
    vote_amount: tuple[int, ...]
    memo: bytes
    arrival_index: int


@dataclass(frozen=True)
class VoterFinalState:
    registration_index: int
    current_key_bytes: bytes
    voice_credits: int
    vote: Optional[FinalVote]


@dataclass(frozen=True)
class TranscriptEntry:
    arrival_index: int
    ciphertext_digest: bytes
    plaintext: Optional[bytes]  # None when the coordinator could not decrypt
    valid: bool
    reason: Optional[str]


@dataclass(frozen=True)
class TallyCommitment:
    digest: bytes


@dataclass(frozen=True)
class AuditTranscript:
    poll_id: int
    cost_rule: str
    options: int  # vote options 0 .. options-1
    initial_voters: tuple[tuple[int, bytes, int], ...]  # (index, key, credits)
    entries: tuple[TranscriptEntry, ...]
    final_states: tuple[VoterFinalState, ...]
    message_set_digest: bytes
    tally: Mapping[int, int]
    salt: bytes


def ciphertext_digest(ciphertext: Ciphertext) -> bytes:
    return hash_fields(b"ballot-ct", ciphertext.encode())


def message_set_digest(ciphertexts: Sequence[Ciphertext]) -> bytes:
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
        self.voters: list[RegisteredVoter] = []
        self.messages: list[MaciMessage] = []
        self.closed = False
        self._keys_seen: set[bytes] = set()
        self._processed: Optional[tuple[tuple[VoterFinalState, ...], AuditTranscript]] = None
        # (coordinator, result) of the last preview; dropped on any intake
        self._preview: Optional[tuple[DecryptionKey, tuple]] = None
        self._committed_tally: Optional[dict[int, int]] = None
        self._salt: Optional[bytes] = None
        self.commitment: Optional[TallyCommitment] = None

    # -- intake ------------------------------------------------------------

    def has_key(self, public_key: PublicKey) -> bool:
        return public_key.encode() in self._keys_seen

    def register_voter(self, public_key: PublicKey, credits: int) -> RegisteredVoter:
        if self.closed:
            raise PollClosed("registration after close")
        if credits < 0:
            raise ValueError("credits must be non-negative")
        encoded = public_key.encode()
        if encoded in self._keys_seen:
            raise DuplicateKey("public key already registered")
        self._keys_seen.add(encoded)
        self._preview = None
        voter = RegisteredVoter(len(self.voters), public_key, public_key, credits)
        self.voters.append(voter)
        return voter

    def submit_message(self, ciphertext: Ciphertext, now: int) -> int:
        """Content-blind intake; only the clock can refuse a message."""
        if self.closed or now >= self.deadline:
            raise PollClosed(f"deadline {self.deadline}, now {now}")
        index = len(self.messages)
        self.messages.append(MaciMessage(index, ciphertext))
        self._preview = None
        return index

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
    ) -> tuple[VoterFinalState, ...]:
        """Dry run over the current message list, used to test quorum before
        deciding whether to extend. It is not a processing result; it is kept
        for ``process_messages`` to reuse until the next intake."""
        result = self._run(coordinator_secret)
        self._preview = (coordinator_secret, result)
        return result[0]

    def process_messages(
        self, coordinator_secret: DecryptionKey
    ) -> tuple[tuple[VoterFinalState, ...], AuditTranscript]:
        if not self.closed:
            raise WrongState("process requires a closed poll")
        if self._processed is None:
            preview = self._preview
            reusable = preview is not None and preview[0] == coordinator_secret
            self._processed = preview[1] if reusable else self._run(coordinator_secret)
            for voter, state in zip(self.voters, self._processed[0]):
                voter.current_key = PublicKey.decode(state.current_key_bytes)
        return self._processed

    def _run(
        self, coordinator_secret: DecryptionKey
    ) -> tuple[tuple[VoterFinalState, ...], AuditTranscript]:
        ciphertexts = [message.ciphertext for message in self.messages]
        digests = [ciphertext_digest(ct) for ct in ciphertexts]
        plaintexts = [_open(coordinator_secret, ct) for ct in ciphertexts]
        initial_voters = tuple(
            (v.registration_index, v.registered_key.encode(), v.voice_credits)
            for v in self.voters
        )
        verdicts, final_states = replay_ballots(
            self.cost_rule, self.options, initial_voters, plaintexts
        )
        transcript = AuditTranscript(
            poll_id=self.poll_id,
            cost_rule=self.cost_rule,
            options=self.options,
            initial_voters=initial_voters,
            entries=tuple(
                TranscriptEntry(message.arrival_index, digest, plaintext, valid, reason)
                for message, digest, plaintext, (valid, reason) in zip(
                    self.messages, digests, plaintexts, verdicts
                )
            ),
            final_states=final_states,
            message_set_digest=digest_over_entries(digests),
            tally=_aggregate(final_states),
            salt=b"",  # filled at publish time; commitments carry their own salt
        )
        return final_states, transcript

    @property
    def tally(self) -> dict[int, int]:
        if self._processed is None:
            raise CommitBeforeProcessing("no processing result yet")
        return dict(self._processed[1].tally)

    # -- commitment ----------------------------------------------------------

    def commit_tally(self, tally: Mapping[int, int], rng: random.Random) -> TallyCommitment:
        if self._processed is None:
            raise CommitBeforeProcessing("commit requires processed messages")
        if self.commitment is not None:
            raise AlreadyCommitted("a tally commitment already exists")
        self._salt = random_bytes(32, rng)
        self._committed_tally = dict(tally)
        self.commitment = TallyCommitment(
            commitment_digest(self.poll_id, tally, self._salt)
        )
        return self.commitment

    def publish_tally(self) -> tuple[dict[int, int], bytes]:
        if self.commitment is None or self._committed_tally is None or self._salt is None:
            raise WrongState("publish requires a commitment")
        return dict(self._committed_tally), self._salt

    def audit_transcript(self) -> AuditTranscript:
        """Transcript with the commitment salt attached (post-publication)."""
        if self._processed is None:
            raise CommitBeforeProcessing("no processing result yet")
        if self._salt is None:
            raise WrongState("transcript is published together with the salt")
        return dataclasses.replace(self._processed[1], salt=self._salt)


def _open(coordinator_secret: DecryptionKey, ct: Ciphertext) -> Optional[bytes]:
    """One key agreement with the message's own point, one decryption; None
    when the point is malformed or of low order, or the tag fails."""
    try:
        return decrypt(key_agree(coordinator_secret, ct.ephemeral), ct)
    except (InvalidKey, AuthFailure):
        return None


# The replay makes no more voter ranges than one per this many commands. On
# a 2-core host, a fork round trip (fork, pipe, marshal, wait) took about
# 2.6 ms at 57 MB RSS, the time of about 23 Ed25519 checks at about 115 us
# each. A range of 200 commands holds 200 checks, about 23 ms, so its fork
# costs about a ninth of the work it moves off this process's core, and a
# poll of fewer than 400 commands to fold forks nothing.
MIN_FORKED_COMMANDS = 200

# (arrival index, command, signed bytes, signature)
_Signed = tuple[int, Command, bytes, bytes]
# (final key bytes, each command's reason or None when valid,
#  last valid vote as (options, amounts, memo, arrival) or None)
_Folded = tuple[bytes, list, Optional[tuple]]


def _stateless_verdict(
    plaintext: Optional[bytes], voter_count: int
) -> tuple[Optional[str], Optional[tuple[Command, bytes, bytes]]]:
    """The reason a plaintext is invalid whatever any voter's state, or None
    with the decoded command, its signed bytes and its signature."""
    if plaintext is None:
        return REASON_AUTH_FAILURE, None
    try:
        command, body, signature = decode_signed_command(plaintext)
    except (DecodeError, InvalidKey):
        return REASON_DECODE_ERROR, None
    if len(command.vote_option) != len(command.vote_amount):
        return REASON_DECODE_ERROR, None
    if any(
        b <= a for a, b in zip(command.vote_option, command.vote_option[1:])
    ):
        return REASON_DECODE_ERROR, None  # non-canonical option order
    if not 0 <= command.voter_registration_index < voter_count:
        return REASON_UNKNOWN_VOTER, None
    return None, (command, SIGNING_LABEL + body, signature)


def _fold_voter(
    key: PublicKey,
    credits: int,
    chain: Sequence[_Signed],
    options: int,
    cost: Callable[[Sequence[int]], int],
    negatives_ok: bool,
) -> _Folded:
    """One voter's commands in arrival order, from the registered key: each
    must be signed with the key as it stands, then name only the poll's
    options, then hold no negative amount the cost rule forbids, then spend
    within the budget. A valid command sets the key and becomes the vote.
    Returns plain values only, so a forked child can send them."""
    reasons: list[Optional[str]] = []
    vote = None
    for arrival, command, signed, signature in chain:
        if not verify_sig(key, signed, signature):
            reason = REASON_BAD_SIGNATURE
        elif any(not 0 <= option < options for option in command.vote_option):
            reason = REASON_BAD_OPTION
        elif not negatives_ok and any(a < 0 for a in command.vote_amount):
            reason = REASON_BAD_AMOUNT
        elif cost(command.vote_amount) > credits:
            reason = REASON_OVER_BUDGET
        else:
            reason = None
            key = command.new_public_key
            vote = (command.vote_option, command.vote_amount, command.memo, arrival)
        reasons.append(reason)
    return key.encode(), reasons, vote


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


def _fork(
    fold: Callable[[range], list[_Folded]], voters: range
) -> Optional[tuple[int, int]]:
    """(pid, pipe read end) of a child that writes ``fold(voters)`` to the
    pipe with marshal and exits; None when no child could be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child: never returns into the caller
        status = 1
        try:
            os.close(read_fd)
            data = memoryview(marshal.dumps(fold(voters)))
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int) -> Optional[list[_Folded]]:
    """A child's folded range, or None when it exited non-zero or wrote
    nothing. A child exits 0 only after writing its whole range."""
    chunks = []
    try:
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not chunks:
        return None
    return marshal.loads(b"".join(chunks))


def _fold_ranges(
    fold: Callable[[range], list[_Folded]], ranges: Sequence[range]
) -> list[_Folded]:
    """``fold`` over every range, concatenated in order. The first range is
    folded here, each other one in a forked child; a range whose child could
    not be made or failed is folded here too."""
    children = [(voters, _fork(fold, voters)) for voters in ranges[1:]]
    try:
        folded = fold(ranges[0])
        while children:
            voters, child = children.pop(0)
            result = None if child is None else _collect(*child)
            folded.extend(fold(voters) if result is None else result)
    finally:
        for _, child in children:  # left by an exception: reap them
            if child is not None:
                _collect(*child)
    return folded


def replay_ballots(
    cost_rule: str,
    options: int,
    initial_voters: Sequence[tuple[int, bytes, int]],
    plaintexts: Sequence[Optional[bytes]],
) -> tuple[list[tuple[bool, Optional[str]]], tuple[VoterFinalState, ...]]:
    """The ballot-replay rule, run by processing and by the audit alike.

    Each plaintext is judged against its voter's key as it stands at that
    arrival; each valid command becomes its voter's vote and sets the
    voter's key. The replay runs in two steps:

    1. a stateless pass in arrival order: a ``None`` plaintext
       (undecryptable) is an AuthFailure; a plaintext that is not one
       canonical command is a DecodeError; an index outside the voters is an
       UnknownVoter. The rest are grouped by voter;
    2. one fold per voter (``_fold_voter``): signature, then an option
       outside ``0 .. options-1`` (BadOption), then a negative amount where
       the cost rule forbids it (BadAmount), then the budget (OverBudget).

    Nothing in the rule crosses voters (keys and votes are per voter, and
    credits never change), so the folds are independent. The voters are
    split into contiguous ranges of about equal command counts, one per
    usable core but no more than one per MIN_FORKED_COMMANDS commands; each
    range after the first is folded in a forked child. One range is the
    same fold, run here.

    ``initial_voters`` holds (index, key bytes, credits); a malformed key
    raises InvalidKey. Returns each plaintext's (valid, reason) and the
    final voter states.
    """
    cost = COST_RULES[cost_rule]
    negatives_ok = NEGATIVES_ALLOWED[cost_rule]
    keys = [PublicKey.decode(key) for _, key, _ in initial_voters]
    credits = [credit for _, _, credit in initial_voters]
    verdicts: list[tuple[bool, Optional[str]]] = []
    chains: list[list[_Signed]] = [[] for _ in keys]
    for arrival, plaintext in enumerate(plaintexts):
        reason, signed = _stateless_verdict(plaintext, len(keys))
        verdicts.append((False, reason))
        if signed is not None:
            command = signed[0]
            chains[command.voter_registration_index].append((arrival, *signed))

    def fold(voters: range) -> list[_Folded]:
        return [
            _fold_voter(keys[i], credits[i], chains[i], options, cost, negatives_ok)
            for i in voters
        ]

    folded = _fold_ranges(fold, _split(chains))
    final_states = []
    for (index, _, credit), chain, (key, reasons, vote) in zip(
        initial_voters, chains, folded
    ):
        for (arrival, _, _, _), reason in zip(chain, reasons):
            verdicts[arrival] = (reason is None, reason)
        vote = None if vote is None else FinalVote(*vote)
        final_states.append(VoterFinalState(index, key, credit, vote))
    return verdicts, tuple(final_states)


def _aggregate(final_states: Sequence[VoterFinalState]) -> dict[int, int]:
    tally: dict[int, int] = {}
    for state in final_states:
        if state.vote is None:
            continue
        for option, amount in zip(state.vote.vote_option, state.vote.vote_amount):
            tally[option] = tally.get(option, 0) + amount
    return tally


# ---- transparent audit -------------------------------------------------------


def verify_audit(
    transcript: AuditTranscript,
    intake_digest: bytes,
    commitment: TallyCommitment,
) -> Verdict:
    """Re-derive everything the coordinator claimed; reject on the first
    check that fails. The checks run cheapest first:

    1. the transcript covers exactly the observed message set;
    2. aggregating the claimed final votes reproduces the tally;
    3. the published commitment opens to (poll id, tally, salt), so a
       transcript relabelled to another poll opens nothing;
    4. the entries and the voters are labelled by position (arrival
       indices and voter indices ``0 .. V-1``), and ``replay_ballots``, the
       rule processing ran, reproduces every verdict and the claimed final
       voter states from the published plaintexts — the O(M) signature
       replay.

    Checks 2 and 3 read only the claims, so they cost O(V). The accept set
    is that of any order: 4 pins the claimed states to the replayed ones,
    so 2 then holds of the replayed states too. Only a transcript that
    fails more than one check can be named by a different check than in
    another order (an edited final vote fails 2 and 4, and reads 2).
    """
    if transcript.message_set_digest != intake_digest:
        return Verdict.reject(REASON_MESSAGE_SET_MISMATCH)
    derived_set = digest_over_entries(
        entry.ciphertext_digest for entry in transcript.entries
    )
    if derived_set != intake_digest:
        return Verdict.reject(REASON_MESSAGE_SET_MISMATCH)

    if _aggregate(transcript.final_states) != dict(transcript.tally):
        return Verdict.reject(REASON_TALLY_MISMATCH)

    try:
        opened = commitment.digest == commitment_digest(
            transcript.poll_id, transcript.tally, transcript.salt
        )
    except DecodeError:
        # a poll id or tally past int64 has no canonical encoding, so it
        # opens nothing
        opened = False
    if not opened:
        return Verdict.reject(REASON_COMMITMENT_MISMATCH)

    if (
        transcript.cost_rule not in COST_RULES
        or any(
            entry.arrival_index != position
            for position, entry in enumerate(transcript.entries)
        )
        # the replay finds each voter's key by position, so its label must
        # be that position
        or any(
            voter[0] != position
            for position, voter in enumerate(transcript.initial_voters)
        )
    ):
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    try:
        verdicts, derived_states = replay_ballots(
            transcript.cost_rule,
            transcript.options,
            transcript.initial_voters,
            [entry.plaintext for entry in transcript.entries],
        )
    except InvalidKey:
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    claimed = [(entry.valid, entry.reason) for entry in transcript.entries]
    if verdicts != claimed or derived_states != transcript.final_states:
        return Verdict.reject(REASON_REPLAY_MISMATCH)
    return Verdict.accept()
