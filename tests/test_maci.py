"""Coordinator pipeline: intake, last-message-valid processing, key
switching, budgets, commitments, and the transparent audit."""
from __future__ import annotations

import marshal
import os
import random
import signal
import sys
import threading
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    REPLAY_REASONS,
    naive_claimed_tally,
    naive_entries_match,
    naive_opens,
    naive_process,
    naive_replay,
    naive_verify_audit,
)

from disputekit import maci

from disputekit.canonical import encode_bytes
from disputekit.errors import (
    AlreadyCommitted,
    CommitBeforeProcessing,
    DecodeError,
    DuplicateKey,
    InvalidKey,
    PollClosed,
    TooEarly,
    Verdict,
    WrongState,
)
from disputekit.maci import (
    COST_RULES,
    SIGNING_LABEL,
    Command,
    MaciPoll,
    TranscriptEntry,
    build_message,
    ciphertext_digest,
    commitment_digest,
    decode_signed_command,
    message_set_digest,
    _command_body,
    sign_command,
    verify_audit,
)
from disputekit.primitives import (
    DecryptionKey,
    KeyPair,
    encrypt,
)
from disputekit.scenario import World


@pytest.fixture
def rng() -> random.Random:
    return random.Random(2024)


def make_poll(rng, *, cost_rule="linear", credits=(1, 1, 1), deadline=100, options=3):
    coordinator = DecryptionKey.generate(rng)
    poll = MaciPoll(0, coordinator.public, deadline, cost_rule, options)
    voters = [KeyPair.generate(rng) for _ in credits]
    for pair, credit in zip(voters, credits):
        poll.register_voter(pair.public, credit)
    return poll, coordinator, voters


def cast(poll, rng, signer, index, votes, *, now=0, new_key=None, memo=b""):
    ct = build_message(
        signer=signer,
        coordinator_public=poll.coordinator_public,
        voter_registration_index=index,
        votes=votes,
        new_public_key=new_key,
        memo=memo,
        rng=rng,
    )
    return poll.submit_message(ct, now)


def finish(poll, coordinator, rng, *, now=100):
    poll.close(now)
    poll.process_messages(coordinator)
    poll.commit_tally(rng)
    tally, salt = poll.publish_tally()
    # each voter's counted vote: the memoised run processing read
    return poll.preview_valid_votes(coordinator), tally, salt


# ---- registration and intake -----------------------------------------------------


def test_registration_indices_are_dense(rng) -> None:
    """A voter's index is its position in the poll's voters."""
    poll, _, voters = make_poll(rng)
    late = KeyPair.generate(rng)
    assert poll.register_voter(late.public, 1) == 3
    assert [key for key, _ in poll.voters] == [
        pair.public for pair in (*voters, late)
    ]


def test_duplicate_key_rejected(rng) -> None:
    poll, _, voters = make_poll(rng)
    with pytest.raises(DuplicateKey):
        poll.register_voter(voters[0].public, 1)


def test_submit_at_deadline_is_closed(rng) -> None:
    poll, _, voters = make_poll(rng, deadline=10)
    assert cast(poll, rng, voters[0], 0, {0: 1}, now=9) == 0
    with pytest.raises(PollClosed):
        cast(poll, rng, voters[0], 0, {0: 1}, now=10)


def not_ballots(ballot: bytes) -> list[bytes]:
    """Byte strings that open for no coordinator: every prefix of the real
    `ballot` up to 60 bytes (a short point, then a point with a short nonce,
    then a short AEAD output), and `ballot` one byte short or one byte long."""
    return [ballot[:length] for length in range(61)] + [ballot[:-1], ballot + b"\x00"]


def test_intake_is_content_blind(rng) -> None:
    poll, _, voters = make_poll(rng)
    garbage = bytes(32) + bytes(12) + b"not a ballot" + bytes(16)
    assert poll.submit_message(garbage, now=0) == 0
    assert cast(poll, rng, voters[0], 0, {0: 1}) == 1
    for index, junk in enumerate(not_ballots(poll.messages[1].ciphertext), start=2):
        assert poll.submit_message(junk, now=0) == index


def test_close_before_deadline_too_early(rng) -> None:
    poll, _, _ = make_poll(rng, deadline=10)
    with pytest.raises(TooEarly):
        poll.close(now=9)


def test_process_requires_close(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    with pytest.raises(WrongState):
        poll.process_messages(coordinator)


# ---- processing semantics ---------------------------------------------------------


def test_single_vote_tallies(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {1: 1})
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}


def test_last_message_wins(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[0], 0, {1: 1}, now=5)
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}
    assert counted[0] is not None
    assert counted[0][0] == 1


def test_key_switch_invalidates_stale_key(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    fresh = KeyPair.generate(rng)
    # switch to `fresh`, voting option 0
    cast(poll, rng, voters[0], 0, {0: 1}, new_key=fresh.public)
    # stale: still signed with the registration key
    cast(poll, rng, voters[0], 0, {1: 1})
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    assert [e.valid for e in transcript.entries] == [True, False]
    assert transcript.entries[1].reason == "BadSignature"
    # and a message signed with the fresh key would have counted
    assert counted[0][1].new_public_key == fresh.public


def test_key_switch_then_new_key_message_counts(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    fresh = KeyPair.generate(rng)
    cast(poll, rng, voters[0], 0, {0: 1}, new_key=fresh.public)
    cast(poll, rng, fresh, 0, {1: 1})  # same slot, new signer
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}


def test_over_budget_message_is_discarded(rng) -> None:
    poll, coordinator, voters = make_poll(
        rng, cost_rule="quadratic", credits=(9, 9)
    )
    cast(poll, rng, voters[0], 0, {0: 3})  # cost 9: fits
    cast(poll, rng, voters[1], 1, {0: 4})  # cost 16: over
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 3}
    transcript = poll.audit_transcript()
    assert transcript.entries[1].reason == "OverBudget"


def test_budget_is_aggregate_across_options(rng) -> None:
    poll, coordinator, voters = make_poll(
        rng, cost_rule="quadratic", credits=(8,)
    )
    cast(poll, rng, voters[0], 0, {0: 2, 1: 2})  # 4 + 4 = 8
    cast(poll, rng, voters[0], 0, {0: 2, 1: -3})  # 4 + 9 = 13
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 2, 1: 2}  # second message over budget, first stands


def test_negative_amounts_forbidden_on_linear_poll(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: -1})
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {}
    assert poll.audit_transcript().entries[0].reason == "BadAmount"


@pytest.mark.parametrize(
    "index", [-1, -(2**63), 3, 2**63 - 1],
    ids=["minus_one", "int64_min", "voter_count", "int64_max"],
)
def test_unknown_registration_index(rng, index) -> None:
    """An index below 0 or at or past the poll's three voters names no
    voter, processed as the reference replays it and as the audit does."""
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], index, {0: 1})
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {} and list(counted) == [None] * 3
    transcript = poll.audit_transcript()
    assert transcript.entries[0].reason == "UnknownVoter"
    plaintexts = [entry.plaintext for entry in transcript.entries]
    verdicts, _, naive_tally = naive_replay("linear", 3, poll.voters, plaintexts)
    assert verdicts == [(e.valid, e.reason) for e in transcript.entries]
    assert naive_tally == tally
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok


@pytest.mark.parametrize("option", [-1, 3, 2**40])
def test_an_option_outside_the_poll_is_a_bad_option(rng, option) -> None:
    """A command naming an option outside 0 .. options-1 is invalid, so the
    voter's earlier valid vote stands and the tally never names it."""
    poll, coordinator, voters = make_poll(rng, cost_rule="quadratic", credits=(9, 9))
    cast(poll, rng, voters[0], 0, {0: 2}, now=0)
    cast(poll, rng, voters[0], 0, {1: 1, option: 1}, now=1)
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 2}
    assert counted[0][0] == 0
    transcript = poll.audit_transcript()
    assert [(e.valid, e.reason) for e in transcript.entries] == [
        (True, None), (False, "BadOption")
    ]
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    if option > 0:  # the bound is part of the rule the audit replays
        wider = transcript._replace(options=option + 1)
        assert verify_audit(wider, intake, poll.commitment).reason == "ReplayMismatch"


def test_bad_option_is_judged_after_the_signature_and_before_the_spend(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    fresh = KeyPair.generate(rng)
    cast(poll, rng, voters[0], 0, {5: 1}, new_key=fresh.public)  # BadOption: no rotation
    cast(poll, rng, fresh, 0, {5: 1})  # signed by a key never taken up
    cast(poll, rng, voters[1], 1, {7: -1})  # negative on a linear poll, too
    cast(poll, rng, voters[2], 2, {7: 9})  # over budget, too
    finish(poll, coordinator, rng)
    assert [e.reason for e in poll.audit_transcript().entries] == [
        "BadOption", "BadSignature", "BadOption", "BadOption"
    ]


def test_undecryptable_message_marked_auth_failure(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    poll.submit_message(bytes(32) + bytes(12) + b"junk" + bytes(16), now=0)
    cast(poll, rng, voters[1], 1, {0: 1})
    for junk in not_ballots(poll.messages[1].ciphertext):
        poll.submit_message(junk, now=0)
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    entry = transcript.entries[0]
    assert (entry.valid, entry.reason, entry.plaintext) == (False, "AuthFailure", None)
    assert [(e.valid, e.reason, e.plaintext) for e in transcript.entries[2:]] == [
        (False, "AuthFailure", None)
    ] * 63
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    for valid, reason in [(True, None), (True, "AuthFailure"), (False, "DecodeError")]:
        junk = entry._replace(valid=valid, reason=reason)
        mutated = transcript._replace(entries=(junk, *transcript.entries[1:]))
        verdict = verify_audit(mutated, intake, poll.commitment)
        assert (verdict.ok, verdict.reason) == (False, "ReplayMismatch")


def test_zero_messages_zero_tally(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {}
    assert all(vote is None for vote in counted)


# ---- the ballot envelope ------------------------------------------------------------

# X25519 points of small order (libsodium's blocklist): 0, 1, the two points
# of order 8, p - 1, and p and p + 1 (non-canonical encodings of 0 and 1)
LOW_ORDER_POINTS = [
    bytes.fromhex(h)
    for h in (
        "00" * 32,
        "01" + "00" * 31,
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ec" + "ff" * 30 + "7f",
        "ed" + "ff" * 30 + "7f",
        "ee" + "ff" * 30 + "7f",
    )
]


@pytest.mark.parametrize("point", [b"", b"\x09" * 31, *LOW_ORDER_POINTS])
def test_a_bad_envelope_point_is_an_auth_failure(rng, point) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1})
    bad = point + poll.messages[0].ciphertext[32:]
    poll.submit_message(bad, now=1)
    poll.preview_valid_votes(coordinator)
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    entry = transcript.entries[1]
    assert (entry.valid, entry.reason, entry.plaintext) == (False, "AuthFailure", None)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok


@pytest.mark.parametrize("length", [31, 33])
def test_a_new_key_of_another_length_is_a_decode_error(rng, length) -> None:
    """A command's new key is read as a 32-byte point, so a plaintext whose
    key has another length does not decode, in processing and in the
    audit's replay alike."""
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[0], 0, {1: 1}, now=1, new_key=b"\x01" * length)
    counted, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    assert counted[0][0] == 0
    assert counted[0][1].new_public_key == voters[0].public
    transcript = poll.audit_transcript()
    assert [(e.valid, e.reason) for e in transcript.entries] == [
        (True, None), (False, "DecodeError")
    ]
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    first, second = transcript.entries
    claimed = second._replace(reason="BadSignature")
    mutated = transcript._replace(entries=(first, claimed))
    assert verify_audit(mutated, intake, poll.commitment).reason == "ReplayMismatch"


def test_envelopes_are_one_time_and_one_size() -> None:
    """Every Phase-1 ballot carries its own point, which is no participant's
    key, and every ballot of one shape has the same public size."""
    world = World(5, genesis_humans=[f"j{i}" for i in range(4)], tree_depth=4)
    for i in range(4):
        world.group_join(f"j{i}")
    d = world.open_dispute("alice", ["bob"], 10, t1=100, t2=200, min_judges=3, now=0)
    world.join_dispute(d, "bob", 10, now=1)
    for i in range(4):
        world.enroll_judge(d, f"j{i}", now=10)
    world.phase1_vote(d, "j0", "alice", "first", 150)
    world.phase1_vote(d, "j0", "bob", "second thoughts", 151, rotate_key=True)
    world.phase1_vote(d, "j0", "bob", "third", 152)
    for i in range(1, 4):
        world.phase1_vote(d, f"j{i}", ("alice", "bob")[i % 2], "x" * 100 * i, 153 + i)
    poll = world.engine.disputes[d].phase1_poll
    ballots = [event.payload["ciphertext"] for event in world.view.of_kind("ballot")]
    assert ballots == [message.ciphertext for message in poll.messages]
    points = [ballot[:32] for ballot in ballots]  # the public record has them
    assert len(set(points)) == len(points) == 6
    keys = [key for key, _ in poll.voters]
    keys += [pair.public for seats in world.jurors.values() for _, pair in seats.values()]
    known = set(keys) | {world.coordinator.public}
    assert not known & set(points)
    assert len({len(ballot) for ballot in ballots}) == 1
    # the point is part of what the intake digest commits to
    first = poll.messages[0].ciphertext
    moved = points[1] + first[32:]
    assert ciphertext_digest(moved) != ciphertext_digest(first)


_INT64 = st.integers(-(2**63), 2**63 - 1)
_INT64S = st.lists(_INT64, max_size=4).map(tuple)
# (options, amounts): a canonical vote, or both lists drawn freely
_VOTES = st.one_of(
    st.dictionaries(_INT64, _INT64, max_size=4).map(
        lambda votes: (tuple(sorted(votes)), tuple(votes[o] for o in sorted(votes)))
    ),
    st.tuples(_INT64S, _INT64S),
)
_BODY = st.builds(
    lambda key, votes, memo, index: Command(key, *votes, memo, index),
    st.binary(min_size=32, max_size=32),
    _VOTES,
    st.binary(max_size=40),
    _INT64,
)


@settings(max_examples=150, deadline=None)
@given(
    command=_BODY,
    signature=st.binary(max_size=70),
    cut=st.integers(0, 12),
    tail=st.binary(max_size=4),
)
def test_the_signed_slice_is_the_command_body(command, signature, cut, tail) -> None:
    """The replay verifies a signature over the bytes the decoder returns;
    for every plaintext that decodes, they are the bytes the client signed.
    A command decodes only with one amount per option and its options
    strictly increasing, and truncated or extended plaintexts must not
    decode."""
    plaintext = _command_body(command) + encode_bytes(signature)
    options = command.vote_option
    canonical = len(options) == len(command.vote_amount) and all(
        a < b for a, b in zip(options, options[1:])
    )
    for variant in (plaintext, plaintext[: len(plaintext) - cut - 1], plaintext + tail):
        try:
            decoded, signed, got_signature = decode_signed_command(variant)
        except (DecodeError, InvalidKey):
            assert variant != plaintext or not canonical
            continue
        assert signed == SIGNING_LABEL + _command_body(decoded)
        if variant == plaintext:
            assert canonical and (decoded, got_signature) == (command, signature)


@pytest.mark.parametrize(
    "options, amounts",
    [((2, 1), (1, 1)), ((1, 1), (1, 1)), ((0, 1), (1,))],
    ids=["unsorted", "repeated", "fewer_amounts"],
)
def test_the_decoder_refuses_a_non_canonical_command(options, amounts) -> None:
    """The decoder alone holds the command's wire rule: a plaintext whose
    options do not strictly increase, or that has fewer amounts than
    options, does not decode, however well its fields parse."""
    signer = KeyPair.generate(random.Random(7))
    command = Command(signer.public, options, amounts, b"", 0)
    plaintext = sign_command(signer, command)
    with pytest.raises(DecodeError):
        decode_signed_command(plaintext)


_MOVES = [
    "vote", "rotate", "stranger", "unknown_index", "late_voter", "junk",
    "garbled", "unsorted", "wrong_coordinator", "low_order", "truncated", "replay",
]


def register(rng, poll, signers: list, credit: int) -> None:
    signers.append(KeyPair.generate(rng))
    poll.register_voter(signers[-1].public, credit)


def intake_move(rng, poll, coordinator, stranger, signers, move, pick, amount, option):
    """One move of a random intake: the ciphertext it submits, or None for
    a move that registers a voter (`late_voter`). A rotation changes the
    voter's key in `signers`."""
    index = pick % len(signers)
    signer = signers[index]
    if move == "late_voter":
        register(rng, poll, signers, pick % 13)
        return None
    if move == "replay" and poll.messages:
        return poll.messages[pick % len(poll.messages)].ciphertext
    if move == "junk":
        return b"".join(rng.randbytes(n) for n in (32, 12, pick, 16))
    if move == "garbled":
        return encrypt(coordinator.public, rng.randbytes(pick), rng)
    if move == "unsorted":
        # descending, or a repeat: never strictly ascending
        command = Command(signer.public, (option, option - pick % 2), (1, 1), b"", index)
        return encrypt(coordinator.public, sign_command(signer, command), rng)
    fresh = KeyPair.generate(rng) if move == "rotate" else None
    ct = build_message(
        signer=KeyPair.generate(rng) if move == "stranger" else signer,
        coordinator_public=(stranger if move == "wrong_coordinator" else coordinator).public,
        voter_registration_index=(
            -1 - pick if move == "negative_index" else index + 9 * (move == "unknown_index")
        ),
        votes={option: amount},
        new_public_key=fresh.public if fresh else None,
        memo=rng.randbytes(abs(option) * 16),
        rng=rng,
    )
    if move == "low_order":
        point = LOW_ORDER_POINTS[pick % len(LOW_ORDER_POINTS)]
        ct = point + ct[32:]
    elif move == "truncated":  # the point cut short
        ct = ct[: pick % 32] + ct[32:]
    elif move == "cut":  # the tag or more cut off
        ct = ct[: max(0, len(ct) - 1 - pick)]
    if fresh is not None:
        signers[index] = fresh
    return ct


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cost_rule=st.sampled_from(sorted(COST_RULES)),
    options=st.integers(1, 3),
    credits=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    moves=st.lists(
        st.tuples(
            st.sampled_from(_MOVES), st.integers(0, 40), st.integers(-3, 4),
            st.integers(-1, 3),
        ),
        max_size=12,
    ),
)
def test_processing_matches_an_independent_reference(
    seed, cost_rule, options, credits, moves
) -> None:
    """Differential check of processing against `support.naive_process`,
    which opens each envelope with the curve and AEAD library directly and
    applies the rules with its own parser: the plaintexts, verdicts, final
    voter states and tally must all agree, on polls with late voters, key
    rotations, stale and stranger signers, junk, undecodable plaintexts,
    options outside the poll, envelopes for another coordinator, and bad
    envelope points."""
    rng = random.Random(seed)
    coordinator, stranger = DecryptionKey.generate(rng), DecryptionKey.generate(rng)
    poll = MaciPoll(0, coordinator.public, 100, cost_rule, options)
    signers: list[KeyPair] = []
    for credit in credits:
        register(rng, poll, signers, credit)
    for move in moves:
        ct = intake_move(rng, poll, coordinator, stranger, signers, *move)
        if ct is not None:
            poll.submit_message(ct, now=0)
    poll.close(100)
    transcript = poll.process_messages(coordinator)

    plaintexts, verdicts, finals, tally = naive_process(
        coordinator.seed,
        cost_rule,
        options,
        poll.voters,
        [message.ciphertext for message in poll.messages],
    )
    assert [entry.plaintext for entry in transcript.entries] == plaintexts
    assert [(entry.valid, entry.reason) for entry in transcript.entries] == verdicts
    counted = poll.preview_valid_votes(coordinator)  # processing's memoised run
    assert as_naive(verdicts, counted) == naive_counted((verdicts, finals, tally))
    assert poll.tally == tally


# ---- the per-voter fold, split across cores ----------------------------------------


def long_replay(seed: int, cost_rule: str, options: int, voter_count: int, commands: int):
    """Replay inputs (cost rule, options, initial voters, plaintexts) of
    `commands` plaintexts over a handful of voters, so each voter has a long
    chain: votes, rotations, stale-key and stranger signers, options outside
    the poll, negative amounts, overspends, garbage, unknown indices and
    messages that did not open. Only a rotation changes a voter's key."""
    rng = random.Random(seed)
    current = [KeyPair.generate(rng) for _ in range(voter_count)]
    held = [[pair] for pair in current]
    credits = [rng.randint(1, 9) for _ in current]
    moves = ["vote"] * 4 + ["rotate"] * 2 + [
        "stale", "bad_option", "bad_amount", "over_budget", "garbage", "unknown", "unopened"
    ]
    plaintexts: list = []
    for _ in range(commands):
        move, index = rng.choice(moves), rng.randrange(voter_count)
        if move == "unopened":
            plaintexts.append(None)
            continue
        if move == "garbage":
            plaintexts.append(rng.randbytes(rng.randrange(120)))
            continue
        signer, new_key, option, amount = current[index], current[index], 0, 1
        if move == "rotate":
            new_key = KeyPair.generate(rng)
        elif move == "stale":  # a stale signature outranks every other fault
            stale = [pair for pair in held[index] if pair is not signer]
            signer = rng.choice(stale) if stale else KeyPair.generate(rng)
            option, amount = rng.choice(
                ((0, 1), (options, 1), (0, -1), (0, credits[index] + 1))
            )
        elif move == "bad_option":  # and a bad option outranks the amount
            option, amount = rng.choice((-1, options)), rng.choice((1, -1, 99))
        elif move == "bad_amount":
            amount = -1
        elif move == "over_budget":
            amount = credits[index] + 1
        option = rng.randrange(options) if move in ("vote", "rotate") else option
        command = Command(
            new_key.public, (option,), (amount,), rng.randbytes(rng.randrange(3)),
            index + voter_count * (move == "unknown"),
        )
        plaintexts.append(sign_command(signer, command))
        if move == "rotate":
            current[index] = new_key
            held[index].append(new_key)
    initial = tuple((keys[0].public, c) for keys, c in zip(held, credits))
    return cost_rule, options, initial, plaintexts


def as_naive(verdicts, votes):
    """A replay's result in `naive_counted`'s terms. Each vote is None, or
    (arrival, `Command`) as `MaciPoll.preview_valid_votes` gives it, or a
    replay's plain (arrival, *command); its command names its own voter."""
    finals = []
    for voter, vote in enumerate(votes):
        if vote is None:
            finals.append(None)
            continue
        arrival, key, options, amounts, memo, index = (
            (vote[0], *vote[1]) if len(vote) == 2 else vote
        )
        assert index == voter
        finals.append((key, (options, amounts, memo, arrival)))
    tally: dict[int, int] = {}
    for final in finals:
        if final is not None:
            for option, amount in zip(final[1][0], final[1][1]):
                tally[option] = tally.get(option, 0) + amount
    return list(verdicts), finals, tally


def naive_counted(expected):
    """`support.naive_replay`'s result with each voter's final (key, vote)
    kept only for a voter with a counted vote, else None: the key of a
    voter with no vote is the registered one, which no replay restates."""
    verdicts, finals, *rest = expected
    return (verdicts, [vote and (key, vote) for key, vote in finals], *rest)


def replay_whole(cost_rule, options, voters, plaintexts):
    """`maci._Replay` sent the voters, then every plaintext, and folded
    once, as the audit folds: its result in `naive_counted`'s terms."""
    replay = maci._Replay(cost_rule, options)
    for key, credits in voters:
        replay.add_voter(key, credits)
    for plaintext in plaintexts:
        replay.add(plaintext)
    _, verdicts, votes = replay.result()
    return as_naive(verdicts, votes)


def fork_spy(monkeypatch, child=None):
    """Count calls of `os.fork`, which delegates to the real one; `child`,
    when given, runs in the child in place of the rest of the fold."""
    real_fork, calls = os.fork, []

    def spy() -> int:
        calls.append(1)
        pid = real_fork()
        if pid == 0 and child is not None:
            child()
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return calls


@settings(max_examples=12, deadline=None)
@example(seed=0, cost_rule="quadratic", options=2, voter_count=5, commands=600)
@given(
    seed=st.integers(0, 2**32 - 1),
    cost_rule=st.sampled_from(sorted(COST_RULES)),
    options=st.integers(1, 3),
    voter_count=st.integers(2, 6),
    commands=st.integers(200, 600),
)
def test_the_split_replay_matches_a_serial_reference(
    seed, cost_rule, options, voter_count, commands
) -> None:
    """Differential check of `maci._Replay` folding a whole intake, which
    folds each voter's chain separately and folds voter ranges in forked
    children, against `support.naive_replay`, one serial pass in arrival
    order with its own parser and curve calls. A child folds a range
    whenever two or more cores are usable and the poll holds enough
    commands to split."""
    inputs = long_replay(seed, cost_rule, options, voter_count, commands)
    expected = naive_counted(naive_replay(*inputs))
    with pytest.MonkeyPatch.context() as patch:
        forks = fork_spy(patch)
        result = replay_whole(*inputs)
    assert result == expected
    reasons = [reason for _, reason in expected[0]]
    folded = sum(r not in ("AuthFailure", "DecodeError", "UnknownVoter") for r in reasons)
    splits = (
        folded >= 2 * maci.MIN_FORKED_COMMANDS
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )
    assert bool(forks) == splits


@pytest.mark.parametrize(
    "lengths, cores, expected",
    [
        ([], 2, [range(0)]),
        ([100] * 3 + [99], 2, [range(4)]),  # 399 commands: too few for two
        ([100] * 8, 2, [range(4), range(4, 8)]),
        ([100] * 8, 1, [range(8)]),
        # a voter goes to the range holding the middle of its chain
        ([50, 300, 60], 2, [range(2), range(2, 3)]),
        ([60, 300, 50], 2, [range(1), range(1, 3)]),
        ([1000], 2, [range(1)]),  # one voter's chain is never split
        ([250] * 4, 4, [range(1), range(1, 2), range(2, 3), range(3, 4)]),
        ([100] * 8, 8, [range(2), range(2, 4), range(4, 6), range(6, 8)]),  # 800 / 200
    ],
)
def test_voters_split_into_ranges_of_about_equal_command_counts(
    monkeypatch, lengths, cores, expected
) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    chains = [[None] * length for length in lengths]
    assert maci._split(chains) == expected


@pytest.fixture(scope="module")
def split_replay():
    """Replay inputs above the split size, and the serial reference's result."""
    inputs = long_replay(7, "linear", 2, 4, 3 * maci.MIN_FORKED_COMMANDS)
    return inputs, naive_counted(naive_replay(*inputs))


def _raise_os_error() -> int:
    raise OSError("no more processes")


def _fail_to_send(value) -> bytes:
    raise MemoryError("cannot marshal the range")


@pytest.mark.parametrize("failure", ["fork raises", "child raises", "child is silent"])
def test_a_range_whose_child_fails_is_folded_here(
    monkeypatch, split_replay, failure
) -> None:
    """Two usable cores, and the fork raises, or the child's fold raises (so
    it exits non-zero, never returning into the caller), or the child exits
    0 having written nothing: the verdicts and states are those of the serial
    reference, and no exception escapes."""
    inputs, expected = split_replay
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if failure == "fork raises":
        calls = []
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or _raise_os_error())
    elif failure == "child raises":
        monkeypatch.setattr(
            maci, "marshal", types.SimpleNamespace(dumps=_fail_to_send, loads=marshal.loads)
        )
        calls = fork_spy(monkeypatch)
    else:
        calls = fork_spy(monkeypatch, child=lambda: os._exit(0))
    assert replay_whole(*inputs) == expected
    assert calls


def test_one_usable_core_forks_nothing(monkeypatch, split_replay) -> None:
    inputs, expected = split_replay
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = fork_spy(monkeypatch)
    assert replay_whole(*inputs) == expected
    assert forks == []


def test_no_fork_while_another_thread_runs(monkeypatch, split_replay) -> None:
    """A forked child would inherit a copy of every lock another thread
    holds, so with a second thread running the replay folds every range here."""
    inputs, expected = split_replay
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = fork_spy(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert replay_whole(*inputs) == expected
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert forks == []


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def test_a_range_fold_child_holds_no_worker_pipe(
    monkeypatch, split_replay, tmp_path
) -> None:
    """A replay forks its range folds while a poll's worker runs: each fold
    child closes its copies of the worker's pipe ends before it folds, as a
    worker does, so the worker reads the end of its requests whenever the
    coordinator stops it."""
    inputs, expected = split_replay
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    rng = random.Random(9)
    poll, secret, voters = make_poll(rng)
    coord = maci.Coordinator(secret, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maci, "MIN_FORKED_COMMANDS", 1)
        cast(poll, rng, voters[0], 0, {0: 1})
        coord.intake(poll)
    worker = poll._replay.child
    ends = (worker.requests, worker.answers.fileno())
    parent, held = os.getpid(), tmp_path / "held"
    fold_voter = maci._fold_voter

    def fold_noting_open_ends(*args):
        if os.getpid() != parent and not held.exists():
            held.write_text(repr([fd for fd in ends if _is_open(fd)]))
        return fold_voter(*args)

    monkeypatch.setattr(maci, "_fold_voter", fold_noting_open_ends)
    forks = fork_spy(monkeypatch)
    assert replay_whole(*inputs) == expected
    assert forks and held.read_text() == "[]"
    poll.close(100)
    assert coord.commit(poll)[0] == {0: 1}


def test_a_poll_processed_here_folds_its_voters_in_ranges(monkeypatch, split_replay) -> None:
    """A poll of 3 x MIN_FORKED_COMMANDS commands processed with no worker
    (no coordinator was told of its ballots) folds them at once, in two
    voter ranges, the second in a forked child; its verdicts and final
    states equal `support.naive_replay`'s."""
    (cost_rule, options, initial, plaintexts), expected = split_replay
    rng = random.Random(11)
    coordinator = DecryptionKey.generate(rng)
    poll = MaciPoll(0, coordinator.public, 100, cost_rule, options)
    for key, credits in initial:
        poll.register_voter(key, credits)
    for plaintext in plaintexts:
        sealed = rng.randbytes(80) if plaintext is None else encrypt(
            coordinator.public, plaintext, rng
        )
        poll.submit_message(sealed, now=0)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    forks = fork_spy(monkeypatch)
    poll.close(100)
    entries = poll.process_messages(coordinator).entries
    assert [entry.plaintext for entry in entries] == plaintexts
    verdicts = [(entry.valid, entry.reason) for entry in entries]
    assert as_naive(verdicts, poll.preview_valid_votes(coordinator)) == expected
    assert len(forks) == 1


# ---- a large poll processed as it arrives ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cost_rule=st.sampled_from(sorted(COST_RULES)),
    options=st.integers(1, 3),
    voter_count=st.integers(1, 6),
    commands=st.integers(0, 80),
)
def test_the_growing_replay_is_the_replay_of_what_was_added(
    seed, cost_rule, options, voter_count, commands
) -> None:
    """`maci._Replay`, which a poll's processing runs, against
    `support.naive_replay`: voters and plaintexts are added in a random
    interleaving, so some voters are registered after their own commands;
    at random points the replay folds what was added, as processing does
    after each intake, and at others (and at the end) its result must be
    the naive replay of what was added so far. The
    plaintexts are `long_replay`'s (rotations, stale and stranger signers,
    bad options and amounts, overspends, garbage, unknown indexes, messages
    that did not open), some cut short and some naming a negative index."""
    cost_rule, options, initial, plaintexts = long_replay(
        seed, cost_rule, options, voter_count, commands
    )
    rng = random.Random(seed)
    stranger = KeyPair.generate(rng)
    for at, plaintext in enumerate(plaintexts):
        roll = rng.random()
        if plaintext and roll < 0.05:
            plaintexts[at] = plaintext[: rng.randrange(len(plaintext))]
        elif roll < 0.1:
            negative = Command(stranger.public, (0,), (1,), b"", -rng.randint(1, 2**63))
            plaintexts[at] = sign_command(stranger, negative)
    order = ["voter"] * len(initial) + ["plaintext"] * len(plaintexts)
    rng.shuffle(order)
    replay = maci._Replay(cost_rule, options)
    voters, added = [], []
    for kind in order:
        if kind == "voter":
            voters.append(initial[len(voters)])
            replay.add_voter(*voters[-1])
        else:
            added.append(plaintexts[len(added)])
            replay.add(added[-1])
        roll = rng.random()
        if roll < 0.05 or len(voters) + len(added) == len(order):
            expected = naive_counted(naive_replay(cost_rule, options, voters, added))
            got_plaintexts, *got = replay.result()
            assert got_plaintexts == added
            assert as_naive(*got) == expected
        elif roll < 0.3:
            replay.fold()


_WORKER_MOVES = [*_MOVES, "negative_index", "cut", "preview"]


@settings(max_examples=40, deadline=None)
# a ballot, a voter, then the ballot that starts the worker with that backlog
@example(
    seed=1, cost_rule="linear", options=2, credits=[3], threshold=2,
    moves=[("vote", 0, 1, 0), ("late_voter", 1, 0, 0), ("vote", 0, 1, 1)],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    cost_rule=st.sampled_from(sorted(COST_RULES)),
    options=st.integers(1, 3),
    credits=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    threshold=st.integers(1, 4),
    moves=st.lists(
        st.tuples(
            st.sampled_from(_WORKER_MOVES), st.integers(0, 40), st.integers(-3, 4),
            st.integers(-1, 3),
        ),
        max_size=14,
    ),
)
def test_a_poll_worker_answers_the_replay_of_the_intake_so_far(
    seed, cost_rule, options, credits, threshold, moves
) -> None:
    """A poll takes its worker at the first ballot it takes while holding
    `MIN_FORKED_COMMANDS` voters, drawn here from 1 to 4 (two usable
    cores), so it may first take ballots and register voters, which the new
    worker is sent at once; then each ballot as the engine sends it. A poll
    previewed before its worker starts replays here instead. Each preview
    (which then extends the deadline, so more ballots follow) and the
    processing read the run the replay streamed; it must equal the opening
    and `support.naive_replay` of the intake so far, here, over random
    intakes: late voters, rotations, stale and stranger signers, garbage,
    cut and truncated envelopes, negative and unknown indexes. The worker
    is reaped when the poll commits."""
    rng = random.Random(seed)
    coordinator, stranger = DecryptionKey.generate(rng), DecryptionKey.generate(rng)
    coord = maci.Coordinator(coordinator, random.Random(seed))
    poll = MaciPoll(0, coordinator.public, 100, cost_rule, options)
    signers: list[KeyPair] = []
    for credit in credits:
        register(rng, poll, signers, credit)

    def replayed_here():
        plaintexts = [maci._open(coordinator, m.ciphertext) for m in poll.messages]
        naive = naive_replay(cost_rule, options, poll.voters, plaintexts)
        return plaintexts, naive_counted(naive)

    def worker_run():
        run = poll._result(coordinator)
        entries = run.transcript.entries
        verdicts = [(entry.valid, entry.reason) for entry in entries]
        return [entry.plaintext for entry in entries], (
            *as_naive(verdicts, run.counted)[:2], dict(run.transcript.tally)
        )

    def read(step) -> None:
        """`step` reads the worker's run, where a worker runs: this process
        feeds no replay."""
        ran, worked = len(runs), poll in coord._forked
        step(poll)
        assert worker_run() == replayed_here()
        assert len(runs) == ran or not worked

    now, pids, runs = 0, set(), []
    real_take = maci._Driver.take
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maci, "MIN_FORKED_COMMANDS", threshold)
        patch.setattr(maci, "_usable_cores", lambda: 2)
        patch.setattr(
            maci._Driver, "take", lambda *args: runs.append(1) or real_take(*args)
        )
        for move in moves:
            if move[0] == "preview":
                read(coord.proposals)
                now = poll.deadline
                poll.extend_deadline(now + 100)
                continue
            ct = intake_move(rng, poll, coordinator, stranger, signers, *move)
            if ct is not None:
                poll.submit_message(ct, now)
                coord.intake(poll)
                if poll in coord._forked:
                    assert len(poll.voters) >= threshold
                    pids.add(poll._replay.child.pid)
        poll.close(poll.deadline)
        read(coord.commit)
    assert len(pids) <= 1
    assert coord._forked == set() and poll._replay is None
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _hung(signum, frame) -> None:
    raise TimeoutError("stopping the earlier worker hung")


def test_a_worker_stops_while_a_later_one_runs(monkeypatch) -> None:
    """Two polls open at once, each with a worker. The later worker closes
    its copies of the earlier one's pipes, so stopping the earlier worker at
    its poll's commit does not wait on the later one (it would hang), and
    each poll reads its own run."""
    monkeypatch.setattr(maci, "MIN_FORKED_COMMANDS", 1)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    rng = random.Random(5)
    first, secret, voters = make_poll(rng)
    coord = maci.Coordinator(secret, rng)
    second = MaciPoll(1, secret.public, 100, "linear", 3)
    for pair in voters:
        second.register_voter(pair.public, 1)
    for poll, n in ((first, 0), (second, 1), (first, 2)):
        cast(poll, rng, voters[n], n, {n: 1})
        coord.intake(poll)
    later = second._replay.child.pid
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        first.close(100)
        assert coord.commit(first)[0] == {0: 1, 2: 1}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert coord._forked == {second}
    os.kill(later, 0)  # still running
    second.close(100)
    assert coord.commit(second)[0] == {1: 1}
    assert coord._forked == set()


def test_a_worker_forks_its_own_range_folds_while_another_worker_runs(
    monkeypatch, tmp_path
) -> None:
    """A worker forked while another runs holds that one's pipe ends closed.
    Its fold of voters registered after their commands splits in two, and
    the range child it forks closes only live pipe ends, so the child folds
    its range: a fold runs in a process that is neither this one nor a
    worker."""
    monkeypatch.setattr(maci, "MIN_FORKED_COMMANDS", 1)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    folds, fold_voter = tmp_path / "folds", maci._fold_voter

    def fold_noting_its_process(*args):
        with open(folds, "a") as out:
            out.write(f"{os.getpid()}\n")
        return fold_voter(*args)

    monkeypatch.setattr(maci, "_fold_voter", fold_noting_its_process)
    rng = random.Random(6)
    first, secret, voters = make_poll(rng, credits=(1,))
    coord = maci.Coordinator(secret, rng)
    cast(first, rng, voters[0], 0, {0: 1})
    coord.intake(first)
    late = [KeyPair.generate(rng) for _ in range(2)]
    second = MaciPoll(1, secret.public, 100, "linear", 3)
    second.register_voter(voters[0].public, 1)
    for index, pair in enumerate(late, 1):  # each names a voter not yet registered
        cast(second, rng, pair, index, {index: 1})
        coord.intake(second)
    for pair in late:
        second.register_voter(pair.public, 1)
    cast(second, rng, voters[0], 0, {0: 1})
    coord.intake(second)  # the worker folds three voters' commands at once
    workers = {first._replay.child.pid, second._replay.child.pid}
    for poll in (first, second):
        poll.close(100)
    assert coord.commit(second)[0] == {0: 1, 1: 1, 2: 1}
    assert coord.commit(first)[0] == {0: 1}
    folded_in = set(map(int, folds.read_text().split()))
    assert folded_in - workers - {os.getpid()}


# ---- the quorum preview and processing ----------------------------------------------


@pytest.mark.parametrize(
    "preview_by, late_intake",
    [
        ("coordinator", None),
        ("coordinator", "ballot"),
        ("coordinator", "voter"),
        ("stranger", None),
    ],
)
def test_processing_after_a_preview_equals_a_fresh_poll(preview_by, late_intake) -> None:
    """A preview may stand in for processing only while the intake is the one
    it saw; a stranger's preview raises InvalidKey and changes nothing."""

    def processed(preview: bool):
        r = random.Random(31)
        poll, coordinator, voters = make_poll(r)
        keys = {"coordinator": coordinator, "stranger": DecryptionKey.generate(r)}
        cast(poll, r, voters[0], 0, {0: 1})
        cast(poll, r, voters[2], 2, {2: 1}, now=1)
        if preview and preview_by == "stranger":
            with pytest.raises(InvalidKey):
                poll.preview_valid_votes(keys[preview_by])
        elif preview:
            poll.preview_valid_votes(keys[preview_by])
        if late_intake == "ballot":
            cast(poll, r, voters[1], 1, {1: 1}, now=5)
        elif late_intake == "voter":
            poll.register_voter(KeyPair.generate(r).public, 1)
        poll.close(100)
        transcript = poll.process_messages(coordinator)
        return poll.tally, transcript, poll.preview_valid_votes(coordinator)

    assert processed(preview=True) == processed(preview=False)


def test_a_preview_alone_is_not_processing(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1})
    assert poll.preview_valid_votes(coordinator)[0] is not None
    poll.close(100)
    with pytest.raises(CommitBeforeProcessing):
        poll.tally
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally(rng)
    with pytest.raises(CommitBeforeProcessing):
        poll.audit_transcript()


def test_an_unchanged_intake_is_opened_once(monkeypatch, rng) -> None:
    """The poll's one replay is sent only what it has not seen: a preview
    and the processing of an unchanged intake open nothing again, and an
    intake after a preview opens only what is new. Another key's preview
    raises InvalidKey, opens nothing and leaves the coordinator's replay as
    it was."""
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1})
    cast(poll, rng, voters[1], 1, {1: 1}, now=1)
    opened = []
    real_open = maci._open
    monkeypatch.setattr(
        maci, "_open", lambda key, ct: opened.append(key) or real_open(key, ct)
    )

    first = poll.preview_valid_votes(coordinator)
    assert len(opened) == 2
    assert poll.preview_valid_votes(coordinator) == first
    assert len(opened) == 2

    stranger = DecryptionKey.generate(rng)
    with pytest.raises(InvalidKey):
        poll.preview_valid_votes(stranger)
    assert len(opened) == 2
    assert poll.preview_valid_votes(coordinator) == first
    assert len(opened) == 2

    poll.register_voter(KeyPair.generate(rng).public, 1)
    poll.preview_valid_votes(coordinator)
    assert len(opened) == 2
    cast(poll, rng, voters[2], 2, {2: 1}, now=2)
    previewed = poll.preview_valid_votes(coordinator)
    assert opened[2:] == [coordinator]

    poll.close(100)
    transcript = poll.process_messages(coordinator)
    assert poll.preview_valid_votes(coordinator) == previewed
    assert poll.process_messages(coordinator) is transcript
    assert len(opened) == 3


def test_a_poll_is_processed_only_under_its_own_key(monkeypatch, rng) -> None:
    """Any key but the poll's coordinator's raises InvalidKey from both
    processing methods, before or after processing, and from a preview of
    the open poll, before any ballot is opened; it leaves nothing behind
    that the coordinator's processing, commitment and publication read."""
    poll, coordinator, voters = make_poll(rng)
    for index, option in enumerate((0, 2, 0)):
        cast(poll, rng, voters[index], index, {option: 1}, now=index)
    opened = []
    real_open = maci._open
    monkeypatch.setattr(
        maci, "_open", lambda key, ct: opened.append(key) or real_open(key, ct)
    )
    stranger = DecryptionKey.generate(rng)
    with pytest.raises(InvalidKey):
        poll.preview_valid_votes(stranger)
    poll.close(100)
    with pytest.raises(InvalidKey):
        poll.preview_valid_votes(stranger)
    with pytest.raises(InvalidKey):
        poll.process_messages(stranger)
    assert opened == []
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally(rng)

    poll.process_messages(coordinator)
    poll.commit_tally(rng)
    assert poll.publish_tally()[0] == {0: 2, 2: 1}
    assert len(opened) == 3
    with pytest.raises(InvalidKey):
        poll.preview_valid_votes(stranger)
    with pytest.raises(InvalidKey):
        poll.process_messages(stranger)
    assert len(opened) == 3


def test_the_published_salt_is_the_transcripts(rng) -> None:
    """The salt is drawn once, kept in the processed transcript, and is what
    ``publish_tally`` reveals; the transcript is not copied per call."""
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {1: 1})
    poll.close(100)
    processed = poll.process_messages(coordinator)
    with pytest.raises(WrongState):
        poll.audit_transcript()
    with pytest.raises(WrongState):
        poll.publish_tally()
    commitment = poll.commit_tally(rng)
    transcript = poll.audit_transcript()
    tally, salt = poll.publish_tally()
    assert processed.salt == b"" and len(salt) == 32
    assert transcript.salt == salt
    assert transcript.tally == tally == {1: 1}
    assert commitment_digest(poll.poll_id, tally, transcript.salt) == commitment
    assert poll.audit_transcript() is transcript


# ---- commitments -------------------------------------------------------------------


def test_commit_before_processing_rejected(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    poll.close(100)
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally(rng)


def test_single_commitment_rule(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    poll.close(100)
    poll.process_messages(coordinator)
    poll.commit_tally(rng)
    with pytest.raises(AlreadyCommitted):
        poll.commit_tally(rng)


def test_publish_opens_commitment(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {1: 1})
    finish(poll, coordinator, rng)
    tally, salt = poll.publish_tally()
    assert commitment_digest(poll.poll_id, tally, salt) == poll.commitment
    # an altered tally does not open the commitment, nor does another poll's id
    altered = dict(tally)
    altered[1] = altered.get(1, 0) + 1
    assert commitment_digest(poll.poll_id, altered, salt) != poll.commitment
    assert commitment_digest(poll.poll_id + 1, tally, salt) != poll.commitment


# ---- audit -----------------------------------------------------------------------


def audited_poll(rng, *, tamper_commit=False):
    poll, coordinator, voters = make_poll(rng, credits=(1, 1, 1))
    cast(poll, rng, voters[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[1], 1, {1: 1}, now=1)
    cast(poll, rng, voters[2], 2, {1: 2}, now=2)  # over budget
    poll.close(100)
    poll.process_messages(coordinator)
    poll.commit_tally(rng)
    committed, salt = poll.publish_tally()
    commitment = poll.commitment
    if tamper_commit:  # a commitment to another tally under the same salt
        committed[0] = committed.get(0, 0) + 1
        commitment = commitment_digest(poll.poll_id, committed, salt)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return poll.audit_transcript(), intake, commitment


def test_honest_transcript_accepted(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    assert verify_audit(transcript, intake, commitment).ok


def test_verdict_flip_detected(rng) -> None:
    """A flip of a counted vote moves the tally the claims derive, so the
    tally check names it; a reason swapped for another the folds give moves
    nothing and only the replay names it."""
    transcript, intake, commitment = audited_poll(rng)
    entries = list(transcript.entries)
    entries[0] = entries[0]._replace(valid=False, reason="OverBudget")
    mutated = transcript._replace(entries=tuple(entries))
    verdict = verify_audit(mutated, intake, commitment)
    assert (verdict.ok, verdict.reason) == (False, "TallyMismatch")
    entries = list(transcript.entries)
    entries[2] = entries[2]._replace(reason="BadAmount")
    mutated = transcript._replace(entries=tuple(entries))
    verdict = verify_audit(mutated, intake, commitment)
    assert (verdict.ok, verdict.reason) == (False, "ReplayMismatch")


def test_invalid_to_valid_flip_detected(rng) -> None:
    """Voter 2's over-budget vote, claimed valid, would be counted: the
    claimed verdicts no longer derive the tally."""
    transcript, intake, commitment = audited_poll(rng)
    entries = list(transcript.entries)
    entries[2] = entries[2]._replace(valid=True, reason=None)
    mutated = transcript._replace(entries=tuple(entries))
    assert verify_audit(mutated, intake, commitment).reason == "TallyMismatch"


def test_tally_increment_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    tally = dict(transcript.tally)
    tally[0] = tally.get(0, 0) + 1
    mutated = transcript._replace(tally=tally)
    assert verify_audit(mutated, intake, commitment).reason == "TallyMismatch"


def test_message_set_substitution_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    other = message_set_digest([bytes(32) + bytes(12) + b"x" + bytes(16)])
    assert verify_audit(transcript, other, commitment).reason == "MessageSetMismatch"
    # or an entry's digest is substituted: the digest derived from the
    # entries no longer matches the intake
    entries = list(transcript.entries)
    entries[1] = entries[1]._replace(ciphertext_digest=other)
    mutated = transcript._replace(entries=tuple(entries))
    assert verify_audit(mutated, intake, commitment).reason == "MessageSetMismatch"


def test_final_state_mutation_detected(rng) -> None:
    """A voter's credits are stated once, in the starting voters: voter 0's
    vote costs its one credit, so with none the replay refuses it."""
    transcript, intake, commitment = audited_poll(rng)
    (key, credits), *others = transcript.initial_voters
    assert credits == 1 and transcript.entries[0].valid
    mutated = transcript._replace(initial_voters=((key, 0), *others))
    assert verify_audit(mutated, intake, commitment).reason == "ReplayMismatch"


@pytest.mark.parametrize("voter", [0, 2], ids=["sent_a_command", "sent_nothing"])
def test_a_31_byte_starting_key_reads_replay_mismatch(rng, voter) -> None:
    """Every starting key is checked when the audit folds, whether or not
    its voter sent a command: voters 0 and 1 vote, voter 2 sends nothing,
    and the transcript states one voter's key cut to 31 bytes."""
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[1], 1, {1: 1}, now=1)
    finish(poll, coordinator, rng)
    transcript = poll.audit_transcript()
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    initial = list(transcript.initial_voters)
    key, credits = initial[voter]
    initial[voter] = (key[:31], credits)
    cut = transcript._replace(initial_voters=tuple(initial))
    assert verify_audit(cut, intake, poll.commitment).reason == "ReplayMismatch"


def test_commitment_to_different_tally_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng, tamper_commit=True)
    assert verify_audit(transcript, intake, commitment).reason == "CommitmentMismatch"


@pytest.mark.parametrize("poll_id", [1, 2**63 - 1, 2**70])
def test_relabelled_transcript_detected(rng, poll_id) -> None:
    """The commitment binds its poll: the same transcript under another
    poll's id opens nothing, and an id past int64 has no encoding."""
    transcript, intake, commitment = audited_poll(rng)
    mutated = transcript._replace(poll_id=poll_id)
    assert verify_audit(mutated, intake, commitment).reason == "CommitmentMismatch"


def test_dropped_entry_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    mutated = transcript._replace(entries=transcript.entries[:-1])
    assert not verify_audit(mutated, intake, commitment).ok


# ---- the audit's check order against a naive reference ---------------------------


def _replay_agrees(transcript) -> bool:
    """Check 4 run whole: the cost rule is known, and the full replay gives
    every claimed verdict."""
    if transcript.cost_rule not in COST_RULES:
        return False
    try:
        verdicts, _, _ = replay_whole(
            transcript.cost_rule,
            transcript.options,
            transcript.initial_voters,
            [entry.plaintext for entry in transcript.entries],
        )
    except InvalidKey:
        return False
    return verdicts == [(entry.valid, entry.reason) for entry in transcript.entries]


def whole_replay_verify_audit(transcript, intake_digest, commitment) -> Verdict:
    """`verify_audit` with check 4 run whole: the message set, the claims'
    shapes, the tally of the votes the claimed verdicts leave, the
    commitment, then the full replay, with no check of the claims against
    the stateless step first. Checks 1-3 are `support`'s own."""
    if not naive_entries_match(transcript.entries, intake_digest):
        return Verdict.reject("MessageSetMismatch")
    shapes = {(True, None)} | {(False, reason) for reason in REPLAY_REASONS}
    if any((entry.valid, entry.reason) not in shapes for entry in transcript.entries):
        return Verdict.reject("ReplayMismatch")
    voters = len(transcript.initial_voters)
    if naive_claimed_tally(voters, transcript.entries) != dict(transcript.tally):
        return Verdict.reject("TallyMismatch")
    if not naive_opens(transcript.poll_id, transcript.tally, transcript.salt, commitment):
        return Verdict.reject("CommitmentMismatch")
    if not _replay_agrees(transcript):
        return Verdict.reject("ReplayMismatch")
    return Verdict.accept()


def honest_audit(seed, ballots=8):
    """A small published poll: three voters, `ballots` ballots that rotate
    keys and are signed by a random key the voter has held, so some are
    stale or over budget, and one undecryptable message."""
    rng = random.Random(seed)
    deadline = ballots + 100
    poll, coordinator, voters = make_poll(rng, credits=(1, 2, 4), deadline=deadline)
    held = [[voter] for voter in voters]
    poll.submit_message(bytes(32) + bytes(12) + b"junk" + bytes(16), now=0)
    for now in range(ballots):
        index = rng.randrange(len(held))
        fresh = KeyPair.generate(rng)
        cast(poll, rng, rng.choice(held[index]), index,
             {rng.randrange(3): rng.randint(1, 3)}, now=now, new_key=fresh.public)
        held[index].append(fresh)
    finish(poll, coordinator, rng, now=deadline)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return poll.audit_transcript(), intake, poll.commitment


def _other_bytes(value: bytes, at: int) -> bytes:
    at %= len(value)
    return value[:at] + bytes([value[at] ^ 1]) + value[at + 1:]


FAULTS = (
    "flip", "tally", "salt", "digest", "credits", "key", "vote", "relabel", "recommit",
    "voter_swap", "bare_flip", "reason_on_valid", "stateless_lie", "vote_elsewhere",
)


def _voter_of(entry):
    """The voter index an entry's command names, or None when it has none."""
    if entry.plaintext is None:
        return None
    try:
        return decode_signed_command(entry.plaintext)[0].voter_registration_index
    except (DecodeError, InvalidKey):
        return None


def _vote_of(entry):
    command = decode_signed_command(entry.plaintext)[0]
    return command.vote_option, command.vote_amount


def apply_fault(transcript, kind: str, pick: int, amount: int):
    entries, voters = list(transcript.entries), list(transcript.initial_voters)
    entry, voter = entries[pick % len(entries)], pick % len(voters)
    # the entries of this voter's commands, and which of them is counted
    mine = [j for j, e in enumerate(entries) if _voter_of(e) == voter]
    counted = max((j for j in mine if entries[j].valid), default=None)
    if kind == "flip":
        entries[pick % len(entries)] = entry._replace(
            valid=not entry.valid, reason="OverBudget" if entry.valid else None
        )
    elif kind == "bare_flip":  # invalid, with no reason
        entries[pick % len(entries)] = entry._replace(valid=False, reason=None)
    elif kind == "reason_on_valid":
        entries[pick % len(entries)] = entry._replace(valid=True, reason="BadSignature")
    elif kind == "stateless_lie":  # an entry with a plaintext claimed undecryptable
        opened = [j for j, e in enumerate(entries) if e.plaintext is not None]
        if opened:
            at = opened[pick % len(opened)]
            entries[at] = entries[at]._replace(valid=False, reason="AuthFailure")
    elif kind == "vote_elsewhere":
        # the counted vote moved to a later command of its voter that votes
        # otherwise: the two exchange their verdicts
        later = [] if counted is None else [
            j for j in mine if j > counted and _vote_of(entries[j]) != _vote_of(entries[counted])
        ]
        if later:
            at = later[pick % len(later)]
            entries[at], entries[counted] = (
                entries[at]._replace(valid=True, reason=None),
                entries[counted]._replace(valid=False, reason=entries[at].reason),
            )
    elif kind == "vote":  # drop a voter's counted vote, or count another
        if amount > 0:
            invalid = [j for j in mine if not entries[j].valid]
            if invalid:
                at = invalid[-1]
                entries[at] = entries[at]._replace(valid=True, reason=None)
        else:
            for j in mine:
                if entries[j].valid:
                    entries[j] = entries[j]._replace(valid=False, reason="OverBudget")
    elif kind == "tally":
        tally = dict(transcript.tally)
        tally[pick % 4] = tally.get(pick % 4, 0) + amount
        return transcript._replace(tally=tally)
    elif kind == "salt":
        return transcript._replace(salt=_other_bytes(transcript.salt, pick))
    elif kind == "relabel":
        return transcript._replace(poll_id=transcript.poll_id + pick + 1)
    elif kind == "digest":
        entries[pick % len(entries)] = entry._replace(
            ciphertext_digest=_other_bytes(entry.ciphertext_digest, pick)
        )
    elif kind == "voter_swap":  # two starting voters
        to = (voter + 1) % len(voters)
        voters[voter], voters[to] = voters[to], voters[voter]
    elif kind == "credits":  # a starting voter's budget
        key, credits = voters[voter]
        voters[voter] = (key, credits + amount)
    else:  # "key": a starting voter registered under the next voter's key
        voters[voter] = (voters[(voter + 1) % len(voters)][0], voters[voter][1])
    return transcript._replace(initial_voters=tuple(voters), entries=tuple(entries))


def with_faults(audit, faults):
    transcript, intake, commitment = audit
    for kind, pick, amount in faults:
        if kind == "recommit":  # a coordinator that commits to what it publishes
            commitment = commitment_digest(
                transcript.poll_id, transcript.tally, transcript.salt
            )
        else:
            transcript = apply_fault(transcript, kind, pick, amount)
    return transcript, intake, commitment


@pytest.fixture(scope="module")
def honest_audits():
    return [honest_audit(seed) for seed in range(3)]


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 2),
    faults=st.lists(
        st.tuples(st.sampled_from(FAULTS), st.integers(0, 20), st.integers(-1, 2)),
        min_size=2,
        max_size=4,
    ),
)
def test_check_order_keeps_the_accept_set(honest_audits, which, faults) -> None:
    """Differential check of `verify_audit`, which runs its claim-only
    checks before the replay, against `support.naive_verify_audit`, which
    replays first with its own parser, signature checks and tally: on
    honest transcripts with 2-4 faults, they accept exactly the same."""
    assert verify_audit(*honest_audits[which]).ok
    assert naive_verify_audit(*honest_audits[which]).ok
    faulted = with_faults(honest_audits[which], faults)
    assert verify_audit(*faulted).ok == naive_verify_audit(*faulted).ok


@pytest.mark.parametrize("kind", FAULTS)
def test_every_single_fault_reads_as_with_check_4_whole(honest_audits, kind) -> None:
    """Differential check of the split check 4: on every honest transcript,
    each single fault of this kind at every pick reads the same verdict,
    reason included, as checks 1-3 followed by the whole replay."""
    for audit in honest_audits:
        for pick in range(len(audit[0].entries)):
            for amount in (-1, 0, 2):
                faulted = with_faults(audit, [(kind, pick, amount)])
                assert verify_audit(*faulted) == whole_replay_verify_audit(*faulted)


def signature_checks(monkeypatch) -> list:
    """Count calls of `verify_sig` made by the replay's folds in this
    process. A forked child's calls are not seen, so the replay is kept
    to one range."""
    real, calls = maci.verify_sig, []

    def spy(*args) -> bool:
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(maci, "verify_sig", spy)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 1)
    return calls


def decodes(monkeypatch) -> list:
    """Count calls of `decode_signed_command` made by the audit."""
    real, calls = maci.decode_signed_command, []

    def spy(plaintext: bytes):
        calls.append(1)
        return real(plaintext)

    monkeypatch.setattr(maci, "decode_signed_command", spy)
    return calls


def test_an_honest_audit_checks_each_surviving_command_once(
    monkeypatch, honest_audits
) -> None:
    calls = signature_checks(monkeypatch)
    for transcript, intake, commitment in honest_audits:
        stateless = ("AuthFailure", "DecodeError", "UnknownVoter")
        survivors = sum(entry.reason not in stateless for entry in transcript.entries)
        calls.clear()
        assert verify_audit(transcript, intake, commitment).ok
        assert len(calls) == survivors


@pytest.mark.parametrize("ballots", [8, 60, 240])
def test_the_audit_decodes_and_checks_only_what_each_check_needs(
    monkeypatch, ballots
) -> None:
    """Exact counts of decodes and signature checks, at three poll sizes: a
    claim of no known shape is rejected from the claims alone; a tampered
    tally or salt after one decode per plaintext and no signature check; an
    honest transcript after one signature check per command that survives
    the stateless step."""
    transcript, intake, commitment = honest_audit(ballots, ballots)
    checked, decoded = signature_checks(monkeypatch), decodes(monkeypatch)
    plaintexts = sum(entry.plaintext is not None for entry in transcript.entries)
    stateless = ("AuthFailure", "DecodeError", "UnknownVoter")
    survivors = sum(entry.reason not in stateless for entry in transcript.entries)

    def audit(faulted, commitment=commitment):
        checked.clear()
        decoded.clear()
        return verify_audit(faulted, intake, commitment).reason, len(decoded), len(checked)

    last = len(transcript.entries) - 1
    for valid, reason in ((False, None), (True, "BadSignature"), (False, "Coerced")):
        entries = list(transcript.entries)
        entries[last] = entries[last]._replace(valid=valid, reason=reason)
        misshaped = transcript._replace(entries=tuple(entries))
        assert audit(misshaped) == ("ReplayMismatch", 0, 0)
    tally = dict(transcript.tally)
    tally[0] = tally.get(0, 0) + 1
    tampered = transcript._replace(tally=tally)
    assert audit(tampered) == ("TallyMismatch", plaintexts, 0)
    resalted = transcript._replace(salt=_other_bytes(transcript.salt, 0))
    assert audit(resalted) == ("CommitmentMismatch", plaintexts, 0)
    assert audit(transcript) == (None, plaintexts, survivors)


def transcribed_commands(monkeypatch) -> list:
    """Record every `Command` that `MaciPoll._transcribed` builds again from
    a replay's plain answer, directly or in an expression it runs; a decode's
    `Command` is not recorded."""
    real, built = maci.Command, []

    def spy(*args, **kwargs):
        caller = sys._getframe(1)
        if "_transcribed" in (caller.f_code.co_name, caller.f_back.f_code.co_name):
            built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(maci, "Command", spy)
    return built


@pytest.mark.parametrize("ballots", [8, 60, 240])
def test_the_audit_sums_votes_without_final_state_records(monkeypatch, ballots) -> None:
    """Exact counts: check 2 sums each voter's last claimed-valid command
    off the decoded chains, so an audit, honest or rejected at check 2 or
    3, builds no command again (`MaciPoll._transcribed`), and decodes each
    plaintext once. Processing the same ballots builds one command again
    per voter who voted, by `support.naive_replay`."""
    signature_checks(monkeypatch)  # one range: nothing is built in a child
    built = transcribed_commands(monkeypatch)
    transcript, intake, commitment = honest_audit(ballots, ballots)
    plaintexts = [entry.plaintext for entry in transcript.entries]
    _, finals, _ = naive_replay(
        transcript.cost_rule, transcript.options, transcript.initial_voters, plaintexts
    )
    assert len(built) == sum(vote is not None for _, vote in finals) > 0
    decoded = decodes(monkeypatch)
    opened = sum(plaintext is not None for plaintext in plaintexts)
    tally = dict(transcript.tally)
    tally[0] = tally.get(0, 0) + 1
    for audit, reason in (
        (transcript, None),
        (transcript._replace(tally=tally), "TallyMismatch"),
        (transcript._replace(salt=_other_bytes(transcript.salt, 0)), "CommitmentMismatch"),
    ):
        built.clear()
        decoded.clear()
        assert verify_audit(audit, intake, commitment).reason == reason
        assert (built, len(decoded)) == ([], opened)


@pytest.mark.parametrize(
    "kind", ["bare_flip", "reason_on_valid", "stateless_lie", "vote_elsewhere"]
)
def test_contradicting_claims_are_rejected_before_a_signature_check(
    monkeypatch, honest_audits, kind
) -> None:
    """A fault that leaves the claims at odds with each other, with the
    decoded plaintexts or with the tally is rejected after zero signature
    checks, with the reason the whole replay gives: ReplayMismatch, or
    TallyMismatch where it moves a counted vote."""
    calls = signature_checks(monkeypatch)
    applied = 0
    for audit in honest_audits:
        for pick in range(len(audit[0].entries)):
            faulted = with_faults(audit, [(kind, pick, 1)])
            if faulted[0] == audit[0]:
                continue  # nothing to fault at this pick
            applied += 1
            calls.clear()
            verdict = verify_audit(*faulted)
            assert (verdict.ok, calls) == (False, [])
            assert verdict.reason in ("ReplayMismatch", "TallyMismatch")
            assert verdict == whole_replay_verify_audit(*faulted)
    assert applied
