"""Coordinator pipeline: intake, last-message-valid processing, key
switching, budgets, commitments, and the transparent audit."""
from __future__ import annotations

import dataclasses
import marshal
import os
import random
import threading
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import naive_process, naive_replay

from disputekit import maci

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
    Command,
    FinalVote,
    MaciPoll,
    TallyCommitment,
    TranscriptEntry,
    build_message,
    ciphertext_digest,
    commitment_digest,
    decode_signed_command,
    digest_over_entries,
    message_set_digest,
    replay_ballots,
    verify_audit,
)
from disputekit.primitives import (
    Ciphertext,
    DecryptionKey,
    KeyPair,
    PublicKey,
    encrypt,
    sign,
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
    final_states, _ = poll.process_messages(coordinator)
    poll.commit_tally(poll.tally, rng)
    tally, salt = poll.publish_tally()
    return final_states, tally, salt


# ---- registration and intake -----------------------------------------------------


def test_registration_indices_are_dense(rng) -> None:
    poll, _, _ = make_poll(rng)
    assert [v.registration_index for v in poll.voters] == [0, 1, 2]


def test_duplicate_key_rejected(rng) -> None:
    poll, _, voters = make_poll(rng)
    with pytest.raises(DuplicateKey):
        poll.register_voter(voters[0].public, 1)


def test_submit_at_deadline_is_closed(rng) -> None:
    poll, _, voters = make_poll(rng, deadline=10)
    assert cast(poll, rng, voters[0], 0, {0: 1}, now=9) == 0
    with pytest.raises(PollClosed):
        cast(poll, rng, voters[0], 0, {0: 1}, now=10)


def test_intake_is_content_blind(rng) -> None:
    poll, _, _ = make_poll(rng)
    garbage = Ciphertext(bytes(32), bytes(12), b"not a ballot", bytes(16))
    assert poll.submit_message(garbage, now=0) == 0


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
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}
    assert final_states[0].vote is not None
    assert final_states[0].vote.arrival_index == 1


def test_key_switch_invalidates_stale_key(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    fresh = KeyPair.generate(rng)
    # switch to `fresh`, voting option 0
    cast(poll, rng, voters[0], 0, {0: 1}, new_key=fresh.public)
    # stale: still signed with the registration key
    cast(poll, rng, voters[0], 0, {1: 1})
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    assert [e.valid for e in transcript.entries] == [True, False]
    assert transcript.entries[1].reason == "BadSignature"
    # and a message signed with the fresh key would have counted
    assert final_states[0].current_key_bytes == fresh.public.encode()


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


def test_unknown_registration_index(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 7, {0: 1})
    finish(poll, coordinator, rng)
    assert poll.audit_transcript().entries[0].reason == "UnknownVoter"


@pytest.mark.parametrize("option", [-1, 3, 2**40])
def test_an_option_outside_the_poll_is_a_bad_option(rng, option) -> None:
    """A command naming an option outside 0 .. options-1 is invalid, so the
    voter's earlier valid vote stands and the tally never names it."""
    poll, coordinator, voters = make_poll(rng, cost_rule="quadratic", credits=(9, 9))
    cast(poll, rng, voters[0], 0, {0: 2}, now=0)
    cast(poll, rng, voters[0], 0, {1: 1, option: 1}, now=1)
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 2}
    assert final_states[0].vote.arrival_index == 0
    transcript = poll.audit_transcript()
    assert [(e.valid, e.reason) for e in transcript.entries] == [
        (True, None), (False, "BadOption")
    ]
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    if option > 0:  # the bound is part of the rule the audit replays
        wider = dataclasses.replace(transcript, options=option + 1)
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
    poll.submit_message(Ciphertext(bytes(32), bytes(12), b"junk", bytes(16)), now=0)
    cast(poll, rng, voters[1], 1, {0: 1})
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    entry = transcript.entries[0]
    assert (entry.valid, entry.reason, entry.plaintext) == (False, "AuthFailure", None)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok
    for valid, reason in [(True, None), (True, "AuthFailure"), (False, "DecodeError")]:
        junk = dataclasses.replace(entry, valid=valid, reason=reason)
        mutated = dataclasses.replace(
            transcript, entries=(junk, *transcript.entries[1:])
        )
        verdict = verify_audit(mutated, intake, poll.commitment)
        assert (verdict.ok, verdict.reason) == (False, "ReplayMismatch")


def test_zero_messages_zero_tally(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {}
    assert all(s.vote is None for s in final_states)


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
    bad = dataclasses.replace(poll.messages[0].ciphertext, ephemeral=point)
    poll.submit_message(bad, now=1)
    poll.preview_valid_votes(coordinator)
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    entry = transcript.entries[1]
    assert (entry.valid, entry.reason, entry.plaintext) == (False, "AuthFailure", None)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    assert verify_audit(transcript, intake, poll.commitment).ok


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
    points = [message.ciphertext.ephemeral for message in poll.messages]
    assert [ballot[:32] for ballot in ballots] == points  # the public record has them
    assert len(set(points)) == len(points) == 6
    keys = [voter.registered_key for voter in poll.voters]
    keys += [pair.public for pair in world.signer_keys.values()]
    known = {key.encode() for key in keys} | {world.coordinator.public}
    assert not known & set(points)
    assert len({len(ballot) for ballot in ballots}) == 1
    # the point is part of what the intake digest commits to
    first = poll.messages[0].ciphertext
    moved = dataclasses.replace(first, ephemeral=points[1])
    assert ciphertext_digest(moved) != ciphertext_digest(first)


_BODY = st.builds(
    Command,
    new_public_key=st.builds(PublicKey, st.binary(min_size=32, max_size=32)),
    vote_option=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(tuple),
    vote_amount=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(tuple),
    memo=st.binary(max_size=40),
    voter_registration_index=st.integers(-(2**63), 2**63 - 1),
)


@settings(max_examples=150, deadline=None)
@given(
    command=_BODY,
    signature=st.binary(max_size=70),
    cut=st.integers(0, 12),
    tail=st.binary(max_size=4),
)
def test_the_signed_slice_is_the_command_body(command, signature, cut, tail) -> None:
    """The replay verifies a signature over the label plus a slice of the
    plaintext; for every plaintext that decodes, that slice is the body the
    client signed. Truncated or extended plaintexts must not decode."""
    plaintext = command.encode_signed(signature)
    decoded, body, got_signature = decode_signed_command(plaintext)
    assert (decoded, body, got_signature) == (command, command._body(), signature)
    for variant in (plaintext[: len(plaintext) - cut - 1], plaintext + tail):
        if variant == plaintext:
            continue
        try:
            decoded, body, _ = decode_signed_command(variant)
        except (DecodeError, InvalidKey):
            continue
        assert body == decoded._body()


_MOVES = [
    "vote", "rotate", "stranger", "unknown_index", "late_voter", "junk",
    "garbled", "unsorted", "wrong_coordinator", "low_order", "truncated", "replay",
]


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

    def register(credit: int) -> None:
        signers.append(KeyPair.generate(rng))
        poll.register_voter(signers[-1].public, credit)

    for credit in credits:
        register(credit)
    for move, pick, amount, option in moves:
        index = pick % len(signers)
        signer = signers[index]
        if move == "late_voter":
            register(pick % 13)
            continue
        if move == "replay" and poll.messages:
            ct = poll.messages[pick % len(poll.messages)].ciphertext
        elif move == "junk":
            ct = Ciphertext(*(rng.randbytes(n) for n in (32, 12, pick, 16)))
        elif move == "garbled":
            ct = encrypt(coordinator.public, rng.randbytes(pick), rng)
        elif move == "unsorted":
            # descending, or a repeat: never strictly ascending
            command = Command(
                signer.public, (option, option - pick % 2), (1, 1), b"", index
            )
            plaintext = command.encode_signed(sign(signer, command.signing_bytes()))
            ct = encrypt(coordinator.public, plaintext, rng)
        else:
            fresh = KeyPair.generate(rng) if move == "rotate" else None
            ct = build_message(
                signer=KeyPair.generate(rng) if move == "stranger" else signer,
                coordinator_public=(
                    stranger if move == "wrong_coordinator" else coordinator
                ).public,
                voter_registration_index=index + 9 * (move == "unknown_index"),
                votes={option: amount},
                new_public_key=fresh.public if fresh else None,
                memo=rng.randbytes(abs(option) * 16),
                rng=rng,
            )
            if move == "low_order":
                point = LOW_ORDER_POINTS[pick % len(LOW_ORDER_POINTS)]
                ct = dataclasses.replace(ct, ephemeral=point)
            elif move == "truncated":
                ct = dataclasses.replace(ct, ephemeral=ct.ephemeral[: pick % 32])
            if fresh is not None:
                signers[index] = fresh
        poll.submit_message(ct, now=0)
    poll.close(100)
    final_states, transcript = poll.process_messages(coordinator)

    plaintexts, verdicts, finals, tally = naive_process(
        coordinator.seed,
        cost_rule,
        options,
        [(voter.registered_key.encode(), voter.voice_credits) for voter in poll.voters],
        [message.ciphertext for message in poll.messages],
    )
    assert [entry.plaintext for entry in transcript.entries] == plaintexts
    assert [(entry.valid, entry.reason) for entry in transcript.entries] == verdicts
    assert [
        (
            state.registration_index,
            state.current_key_bytes,
            state.voice_credits,
            None
            if state.vote is None
            else (
                state.vote.vote_option,
                state.vote.vote_amount,
                state.vote.memo,
                state.vote.arrival_index,
            ),
        )
        for state in final_states
    ] == finals
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
        plaintexts.append(command.encode_signed(sign(signer, command.signing_bytes())))
        if move == "rotate":
            current[index] = new_key
            held[index].append(new_key)
    initial = tuple((i, pair.public.encode(), c) for i, (pair, c) in enumerate(zip(
        [held_keys[0] for held_keys in held], credits
    )))
    return cost_rule, options, initial, plaintexts


def as_naive(verdicts, states):
    """A replay's result in `support.naive_replay`'s terms."""
    finals = [
        (
            state.registration_index,
            state.current_key_bytes,
            state.voice_credits,
            None if state.vote is None else (
                state.vote.vote_option,
                state.vote.vote_amount,
                state.vote.memo,
                state.vote.arrival_index,
            ),
        )
        for state in states
    ]
    tally: dict[int, int] = {}
    for state in states:
        if state.vote is not None:
            for option, amount in zip(state.vote.vote_option, state.vote.vote_amount):
                tally[option] = tally.get(option, 0) + amount
    return verdicts, finals, tally


def naive_result(cost_rule, options, initial, plaintexts):
    voters = [(key, credit) for _, key, credit in initial]
    return naive_replay(cost_rule, options, voters, plaintexts)


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
    """Differential check of `replay_ballots`, which folds each voter's
    chain separately and folds voter ranges in forked children, against
    `support.naive_replay`, one serial pass in arrival order with its own
    parser and curve calls. A child folds a range whenever two or more
    cores are usable and the poll holds enough commands to split."""
    inputs = long_replay(seed, cost_rule, options, voter_count, commands)
    expected = naive_result(*inputs)
    with pytest.MonkeyPatch.context() as patch:
        forks = fork_spy(patch)
        result = as_naive(*replay_ballots(*inputs))
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
    return inputs, naive_result(*inputs)


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
    assert as_naive(*replay_ballots(*inputs)) == expected
    assert calls


def test_one_usable_core_forks_nothing(monkeypatch, split_replay) -> None:
    inputs, expected = split_replay
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = fork_spy(monkeypatch)
    assert as_naive(*replay_ballots(*inputs)) == expected
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
        assert as_naive(*replay_ballots(*inputs)) == expected
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert forks == []


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
    it saw and the coordinator is the same."""

    def processed(preview: bool):
        r = random.Random(31)
        poll, coordinator, voters = make_poll(r)
        keys = {"coordinator": coordinator, "stranger": DecryptionKey.generate(r)}
        cast(poll, r, voters[0], 0, {0: 1})
        cast(poll, r, voters[2], 2, {2: 1}, now=1)
        if preview:
            poll.preview_valid_votes(keys[preview_by])
        if late_intake == "ballot":
            cast(poll, r, voters[1], 1, {1: 1}, now=5)
        elif late_intake == "voter":
            poll.register_voter(KeyPair.generate(r).public, 1)
        poll.close(100)
        final_states, transcript = poll.process_messages(coordinator)
        return poll.tally, transcript, final_states

    assert processed(preview=True) == processed(preview=False)


def test_a_preview_alone_is_not_processing(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {0: 1})
    assert poll.preview_valid_votes(coordinator)[0].vote is not None
    poll.close(100)
    with pytest.raises(CommitBeforeProcessing):
        poll.tally
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally({0: 1}, rng)
    with pytest.raises(CommitBeforeProcessing):
        poll.audit_transcript()


# ---- commitments -------------------------------------------------------------------


def test_commit_before_processing_rejected(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    poll.close(100)
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally({}, rng)


def test_single_commitment_rule(rng) -> None:
    poll, coordinator, _ = make_poll(rng)
    poll.close(100)
    poll.process_messages(coordinator)
    poll.commit_tally(poll.tally, rng)
    with pytest.raises(AlreadyCommitted):
        poll.commit_tally(poll.tally, rng)


def test_publish_opens_commitment(rng) -> None:
    poll, coordinator, voters = make_poll(rng)
    cast(poll, rng, voters[0], 0, {1: 1})
    finish(poll, coordinator, rng)
    tally, salt = poll.publish_tally()
    assert commitment_digest(poll.poll_id, tally, salt) == poll.commitment.digest
    # an altered tally does not open the commitment, nor does another poll's id
    altered = dict(tally)
    altered[1] = altered.get(1, 0) + 1
    assert commitment_digest(poll.poll_id, altered, salt) != poll.commitment.digest
    assert commitment_digest(poll.poll_id + 1, tally, salt) != poll.commitment.digest


# ---- audit -----------------------------------------------------------------------


def audited_poll(rng, *, tamper_commit=False):
    poll, coordinator, voters = make_poll(rng, credits=(1, 1, 1))
    cast(poll, rng, voters[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[1], 1, {1: 1}, now=1)
    cast(poll, rng, voters[2], 2, {1: 2}, now=2)  # over budget
    poll.close(100)
    poll.process_messages(coordinator)
    committed = dict(poll.tally)
    if tamper_commit:
        committed[0] = committed.get(0, 0) + 1
    poll.commit_tally(committed, rng)
    poll.publish_tally()
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return poll.audit_transcript(), intake, poll.commitment


def test_honest_transcript_accepted(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    assert verify_audit(transcript, intake, commitment).ok


def test_verdict_flip_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    entries = list(transcript.entries)
    entries[0] = dataclasses.replace(entries[0], valid=False, reason="OverBudget")
    mutated = dataclasses.replace(transcript, entries=tuple(entries))
    verdict = verify_audit(mutated, intake, commitment)
    assert (verdict.ok, verdict.reason) == (False, "ReplayMismatch")


def test_invalid_to_valid_flip_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    entries = list(transcript.entries)
    entries[2] = dataclasses.replace(entries[2], valid=True, reason=None)
    mutated = dataclasses.replace(transcript, entries=tuple(entries))
    assert verify_audit(mutated, intake, commitment).reason == "ReplayMismatch"


def test_tally_increment_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    tally = dict(transcript.tally)
    tally[0] = tally.get(0, 0) + 1
    mutated = dataclasses.replace(transcript, tally=tally)
    assert verify_audit(mutated, intake, commitment).reason == "TallyMismatch"


def test_message_set_substitution_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    other = message_set_digest([Ciphertext(bytes(32), bytes(12), b"x", bytes(16))])
    assert verify_audit(transcript, other, commitment).reason == "MessageSetMismatch"
    # or the transcript's own claimed digest is doctored
    mutated = dataclasses.replace(transcript, message_set_digest=other)
    assert verify_audit(mutated, intake, commitment).reason == "MessageSetMismatch"


def test_final_state_mutation_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    states = list(transcript.final_states)
    states[0] = dataclasses.replace(states[0], voice_credits=99)
    mutated = dataclasses.replace(transcript, final_states=tuple(states))
    assert verify_audit(mutated, intake, commitment).reason == "ReplayMismatch"


def test_commitment_to_different_tally_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng, tamper_commit=True)
    assert verify_audit(transcript, intake, commitment).reason == "CommitmentMismatch"


@pytest.mark.parametrize("poll_id", [1, 2**63 - 1, 2**70])
def test_relabelled_transcript_detected(rng, poll_id) -> None:
    """The commitment binds its poll: the same transcript under another
    poll's id opens nothing, and an id past int64 has no encoding."""
    transcript, intake, commitment = audited_poll(rng)
    mutated = dataclasses.replace(transcript, poll_id=poll_id)
    assert verify_audit(mutated, intake, commitment).reason == "CommitmentMismatch"


def test_dropped_entry_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    mutated = dataclasses.replace(transcript, entries=transcript.entries[:-1])
    assert not verify_audit(mutated, intake, commitment).ok


# ---- the audit's check order against a naive reference ---------------------------


def naive_verify_audit(transcript, intake_digest, commitment) -> Verdict:
    """`verify_audit` with the replay first: message set, then the full
    replay, then the tally of the *replayed* states, then the commitment."""
    derived_set = digest_over_entries(e.ciphertext_digest for e in transcript.entries)
    if intake_digest != transcript.message_set_digest or intake_digest != derived_set:
        return Verdict.reject("MessageSetMismatch")
    arrivals = [entry.arrival_index for entry in transcript.entries]
    labels = [index for index, _, _ in transcript.initial_voters]
    if (
        transcript.cost_rule not in COST_RULES
        or arrivals != list(range(len(arrivals)))
        or labels != list(range(len(labels)))
    ):
        return Verdict.reject("ReplayMismatch")
    try:
        verdicts, states = replay_ballots(
            transcript.cost_rule,
            transcript.options,
            transcript.initial_voters,
            [entry.plaintext for entry in transcript.entries],
        )
    except InvalidKey:
        return Verdict.reject("ReplayMismatch")
    claimed = [(entry.valid, entry.reason) for entry in transcript.entries]
    if verdicts != claimed or states != transcript.final_states:
        return Verdict.reject("ReplayMismatch")
    tally: dict[int, int] = {}
    for state in states:
        if state.vote is not None:
            for option, amount in zip(state.vote.vote_option, state.vote.vote_amount):
                tally[option] = tally.get(option, 0) + amount
    if tally != dict(transcript.tally):
        return Verdict.reject("TallyMismatch")
    try:
        opened = commitment.digest == commitment_digest(
            transcript.poll_id, transcript.tally, transcript.salt
        )
    except DecodeError:
        opened = False
    return Verdict.accept() if opened else Verdict.reject("CommitmentMismatch")


def honest_audit(seed):
    """A small published poll: three voters, eight ballots that rotate keys
    and are signed by a random key the voter has held, so some are stale
    or over budget, and one undecryptable message."""
    rng = random.Random(seed)
    poll, coordinator, voters = make_poll(rng, credits=(1, 2, 4))
    held = [[voter] for voter in voters]
    poll.submit_message(Ciphertext(bytes(32), bytes(12), b"junk", bytes(16)), now=0)
    for now in range(8):
        index = rng.randrange(len(held))
        fresh = KeyPair.generate(rng)
        cast(poll, rng, rng.choice(held[index]), index,
             {rng.randrange(3): rng.randint(1, 3)}, now=now, new_key=fresh.public)
        held[index].append(fresh)
    finish(poll, coordinator, rng)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return poll.audit_transcript(), intake, poll.commitment


def _other_bytes(value: bytes, at: int) -> bytes:
    at %= len(value)
    return value[:at] + bytes([value[at] ^ 1]) + value[at + 1:]


FAULTS = (
    "flip", "tally", "salt", "digest", "credits", "key", "vote", "relabel", "recommit",
    "voter_label",
)


def apply_fault(transcript, kind: str, pick: int, amount: int):
    entries, states = list(transcript.entries), list(transcript.final_states)
    entry, state = entries[pick % len(entries)], states[pick % len(states)]
    if kind == "flip":
        entries[pick % len(entries)] = dataclasses.replace(
            entry, valid=not entry.valid, reason="OverBudget" if entry.valid else None
        )
    elif kind == "tally":
        tally = dict(transcript.tally)
        tally[pick % 4] = tally.get(pick % 4, 0) + amount
        return dataclasses.replace(transcript, tally=tally)
    elif kind == "salt":
        return dataclasses.replace(transcript, salt=_other_bytes(transcript.salt, pick))
    elif kind == "relabel":
        return dataclasses.replace(transcript, poll_id=transcript.poll_id + pick + 1)
    elif kind == "digest":
        entries[pick % len(entries)] = dataclasses.replace(
            entry, ciphertext_digest=_other_bytes(entry.ciphertext_digest, pick)
        )
    elif kind == "voter_label":  # one voter, in the starting voters and final states
        at, label = pick % len(states), state.registration_index + amount
        voters = list(transcript.initial_voters)
        voters[at] = (label, *voters[at][1:])
        states[at] = dataclasses.replace(state, registration_index=label)
        return dataclasses.replace(
            transcript, initial_voters=tuple(voters), final_states=tuple(states)
        )
    elif kind == "credits":
        states[pick % len(states)] = dataclasses.replace(
            state, voice_credits=state.voice_credits + amount
        )
    elif kind == "key":
        other = states[(pick + 1) % len(states)].current_key_bytes
        states[pick % len(states)] = dataclasses.replace(state, current_key_bytes=other)
    else:  # "vote": drop a final vote, or put another in its place
        vote = FinalVote((pick % 3,), (amount,), b"", pick) if amount > 0 else None
        states[pick % len(states)] = dataclasses.replace(state, vote=vote)
    return dataclasses.replace(
        transcript, entries=tuple(entries), final_states=tuple(states)
    )


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
    """Differential check of `verify_audit`, which runs its O(V) checks
    before the replay, against the replay-first order: on honest
    transcripts with 2-4 faults, they accept exactly the same."""
    transcript, intake, commitment = honest_audits[which]
    assert verify_audit(transcript, intake, commitment).ok
    for kind, pick, amount in faults:
        if kind == "recommit":  # a coordinator that commits to what it publishes
            commitment = TallyCommitment(
                commitment_digest(transcript.poll_id, transcript.tally, transcript.salt)
            )
        else:
            transcript = apply_fault(transcript, kind, pick, amount)
    naive = naive_verify_audit(transcript, intake, commitment)
    assert verify_audit(transcript, intake, commitment).ok == naive.ok
