"""Coordinator pipeline: intake, last-message-valid processing, key
switching, budgets, commitments, and the transparent audit."""
from __future__ import annotations

import dataclasses
import random

import pytest

from disputekit.errors import (
    AlreadyCommitted,
    CommitBeforeProcessing,
    DuplicateKey,
    PollClosed,
    TooEarly,
    WrongState,
)
from disputekit.maci import (
    MaciPoll,
    TallyCommitment,
    TranscriptEntry,
    build_message,
    commitment_digest,
    message_set_digest,
    verify_audit,
)
from disputekit.primitives import Ciphertext, KeyPair, key_agree


@pytest.fixture
def rng() -> random.Random:
    return random.Random(2024)


def make_poll(rng, *, cost_rule="linear", credits=(1, 1, 1), deadline=100):
    coordinator = KeyPair.generate(rng)
    poll = MaciPoll(0, coordinator.public, deadline, cost_rule)
    voters = [KeyPair.generate(rng) for _ in credits]
    for pair, credit in zip(voters, credits):
        poll.register_voter(pair.public, credit)
    shared = [key_agree(pair, coordinator.public) for pair in voters]
    return poll, coordinator, voters, shared


def cast(poll, rng, signer, shared_key, index, votes, *, now=0, new_key=None, memo=b""):
    ct = build_message(
        signer=signer,
        shared_key=shared_key,
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
    poll, _, _, _ = make_poll(rng)
    assert [v.registration_index for v in poll.voters] == [0, 1, 2]


def test_duplicate_key_rejected(rng) -> None:
    poll, _, voters, _ = make_poll(rng)
    with pytest.raises(DuplicateKey):
        poll.register_voter(voters[0].public, 1)


def test_submit_at_deadline_is_closed(rng) -> None:
    poll, _, voters, shared = make_poll(rng, deadline=10)
    assert cast(poll, rng, voters[0], shared[0], 0, {0: 1}, now=9) == 0
    with pytest.raises(PollClosed):
        cast(poll, rng, voters[0], shared[0], 0, {0: 1}, now=10)


def test_intake_is_content_blind(rng) -> None:
    poll, _, _, _ = make_poll(rng)
    garbage = Ciphertext(bytes(12), b"not a ballot", bytes(16))
    assert poll.submit_message(garbage, now=0) == 0


def test_close_before_deadline_too_early(rng) -> None:
    poll, _, _, _ = make_poll(rng, deadline=10)
    with pytest.raises(TooEarly):
        poll.close(now=9)


def test_process_requires_close(rng) -> None:
    poll, coordinator, _, _ = make_poll(rng)
    with pytest.raises(WrongState):
        poll.process_messages(coordinator)


# ---- processing semantics ---------------------------------------------------------


def test_single_vote_tallies(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 0, {1: 1})
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}


def test_last_message_wins(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[0], shared[0], 0, {1: 1}, now=5)
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}
    assert final_states[0].vote is not None
    assert final_states[0].vote.arrival_index == 1


def test_key_switch_invalidates_stale_key(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    fresh = KeyPair.generate(rng)
    # switch to `fresh`, voting option 0
    cast(poll, rng, voters[0], shared[0], 0, {0: 1}, new_key=fresh.public)
    # stale: still signed with the registration key
    cast(poll, rng, voters[0], shared[0], 0, {1: 1})
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 1}
    transcript = poll.audit_transcript()
    assert [e.valid for e in transcript.entries] == [True, False]
    assert transcript.entries[1].reason == "BadSignature"
    # and a message signed with the fresh key would have counted
    assert final_states[0].current_key_bytes == fresh.public.encode()


def test_key_switch_then_new_key_message_counts(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    fresh = KeyPair.generate(rng)
    cast(poll, rng, voters[0], shared[0], 0, {0: 1}, new_key=fresh.public)
    cast(poll, rng, fresh, shared[0], 0, {1: 1})  # same channel, new signer
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {1: 1}


def test_over_budget_message_is_discarded(rng) -> None:
    poll, coordinator, voters, shared = make_poll(
        rng, cost_rule="quadratic", credits=(9, 9)
    )
    cast(poll, rng, voters[0], shared[0], 0, {0: 3})  # cost 9: fits
    cast(poll, rng, voters[1], shared[1], 1, {0: 4})  # cost 16: over
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 3}
    transcript = poll.audit_transcript()
    assert transcript.entries[1].reason == "OverBudget"


def test_budget_is_aggregate_across_options(rng) -> None:
    poll, coordinator, voters, shared = make_poll(
        rng, cost_rule="quadratic", credits=(8,)
    )
    cast(poll, rng, voters[0], shared[0], 0, {0: 2, 1: 2})  # 4 + 4 = 8
    cast(poll, rng, voters[0], shared[0], 0, {0: 2, 1: -3})  # 4 + 9 = 13
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {0: 2, 1: 2}  # second message over budget, first stands


def test_negative_amounts_forbidden_on_linear_poll(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 0, {0: -1})
    _, tally, _ = finish(poll, coordinator, rng)
    assert tally == {}
    assert poll.audit_transcript().entries[0].reason == "BadAmount"


def test_unknown_registration_index(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 7, {0: 1})
    finish(poll, coordinator, rng)
    assert poll.audit_transcript().entries[0].reason == "UnknownVoter"


def test_undecryptable_message_marked_auth_failure(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    poll.submit_message(Ciphertext(bytes(12), b"junk", bytes(16)), now=0)
    cast(poll, rng, voters[1], shared[1], 1, {0: 1})
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
    poll, coordinator, _, _ = make_poll(rng)
    final_states, tally, _ = finish(poll, coordinator, rng)
    assert tally == {}
    assert all(s.vote is None for s in final_states)


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
        poll, coordinator, voters, shared = make_poll(r)
        keys = {"coordinator": coordinator, "stranger": KeyPair.generate(r)}
        cast(poll, r, voters[0], shared[0], 0, {0: 1})
        cast(poll, r, voters[2], shared[2], 2, {2: 1}, now=1)
        if preview:
            poll.preview_valid_votes(keys[preview_by])
        if late_intake == "ballot":
            cast(poll, r, voters[1], shared[1], 1, {1: 1}, now=5)
        elif late_intake == "voter":
            poll.register_voter(KeyPair.generate(r).public, 1)
        poll.close(100)
        final_states, transcript = poll.process_messages(coordinator)
        return poll.tally, transcript, final_states

    assert processed(preview=True) == processed(preview=False)


def test_a_preview_alone_is_not_processing(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 0, {0: 1})
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
    poll, coordinator, _, _ = make_poll(rng)
    poll.close(100)
    with pytest.raises(CommitBeforeProcessing):
        poll.commit_tally({}, rng)


def test_single_commitment_rule(rng) -> None:
    poll, coordinator, _, _ = make_poll(rng)
    poll.close(100)
    poll.process_messages(coordinator)
    poll.commit_tally(poll.tally, rng)
    with pytest.raises(AlreadyCommitted):
        poll.commit_tally(poll.tally, rng)


def test_publish_opens_commitment(rng) -> None:
    poll, coordinator, voters, shared = make_poll(rng)
    cast(poll, rng, voters[0], shared[0], 0, {1: 1})
    finish(poll, coordinator, rng)
    tally, salt = poll.publish_tally()
    assert commitment_digest(tally, salt) == poll.commitment.digest
    # an altered tally does not open the commitment
    altered = dict(tally)
    altered[1] = altered.get(1, 0) + 1
    assert commitment_digest(altered, salt) != poll.commitment.digest


# ---- audit -----------------------------------------------------------------------


def audited_poll(rng, *, tamper_commit=False):
    poll, coordinator, voters, shared = make_poll(rng, credits=(1, 1, 1))
    cast(poll, rng, voters[0], shared[0], 0, {0: 1}, now=0)
    cast(poll, rng, voters[1], shared[1], 1, {1: 1}, now=1)
    cast(poll, rng, voters[2], shared[2], 2, {1: 2}, now=2)  # over budget
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
    other = message_set_digest([Ciphertext(bytes(12), b"x", bytes(16))])
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


def test_dropped_entry_detected(rng) -> None:
    transcript, intake, commitment = audited_poll(rng)
    mutated = dataclasses.replace(transcript, entries=transcript.entries[:-1])
    assert not verify_audit(mutated, intake, commitment).ok
