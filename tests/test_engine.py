"""Dispute lifecycle: escrow conservation, strict deadlines, juror
enrollment, both voting phases, settlement, and the boundary between the
contract and the coordinator."""
from __future__ import annotations

import os
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disputekit.engine
import disputekit.incentives
from disputekit.cli import main
from disputekit.engine import (
    DisputeConfig,
    DisputeState,
    Escrow,
    EscrowEntry,
    enrollment_scope,
)
from disputekit.errors import (
    AlreadyJoined,
    EnrollmentClosed,
    InvalidSignal,
    JoinAfterDeadline,
    NotAParty,
    PollClosed,
    ProtocolError,
    SelfDispute,
    TooEarly,
    WrongFee,
    WrongState,
    ZeroFee,
)
from disputekit.identity import create_signal
from disputekit import maci
from disputekit.maci import MaciPoll, build_message, message_set_digest, verify_audit
from disputekit.primitives import DecryptionKey, KeyPair
from disputekit.scenario import World
from support import CFG, CountingList, Court, proposal_hash, resolved_court

REPO = Path(__file__).resolve().parent.parent


# ---- escrow ledger ---------------------------------------------------------------


def test_escrow_balances_follow_the_ledger() -> None:
    escrow = Escrow()
    escrow.deposit(0, "alice", 10)
    escrow.deposit(0, "bob", 10)
    escrow.deposit(1, "carol", 7)
    assert escrow.balance(0) == 20
    escrow.payout(0, "judge", 20)
    assert escrow.balance(0) == 0
    assert escrow.balance(1) == 7
    assert escrow.conserved()
    assert escrow.net_position("alice") == -10
    assert escrow.net_position("judge") == 20


def test_escrow_rejects_overdraw_and_nonpositive_amounts() -> None:
    escrow = Escrow()
    escrow.deposit(0, "alice", 5)
    with pytest.raises(ValueError):
        escrow.payout(0, "judge", 6)
    with pytest.raises(ValueError):
        escrow.deposit(0, "alice", 0)
    with pytest.raises(ValueError):
        escrow.refund(0, "alice", -1)
    assert escrow.balance(0) == 5


def test_conservation_audits_the_kept_balances() -> None:
    escrow = Escrow()
    escrow.deposit(0, "alice", 10)
    # an entry that bypasses the write path: every prefix stays funded, but
    # the replay no longer matches the balances the writes kept
    escrow.entries.append(EscrowEntry("deposit", 0, "bob", 5))
    assert not escrow.conserved()


@pytest.mark.parametrize("prior", [10, 100, 1000])
@pytest.mark.parametrize("write", ["deposit", "refund", "payout"])
def test_an_escrow_write_touches_one_ledger_entry(prior, write) -> None:
    """Exact counts (ROADMAP item 10): whatever the ledger holds, a write
    reads none of its entries and appends one, since balances and net
    positions are kept, not summed from the ledger."""
    escrow = Escrow()
    for n in range(prior):
        escrow.deposit(n % 7, f"actor{n % 11}", 5)
    escrow.entries = ledger = CountingList(escrow.entries)
    getattr(escrow, write)(3, "actor0", 5)
    assert (ledger.reads, ledger.appends) == (0, 1)
    assert escrow.balance(3) == 5 * len(range(3, prior, 7)) + (5 if write == "deposit" else -5)


# ---- differential: the kept balances against a naive ledger replay -------------

ESCROW_DISPUTES = (0, 1, 2)
ESCROW_ACTORS = ("alice", "bob", "judge")
ESCROW_OP = st.tuples(
    st.sampled_from(["deposit", "refund", "payout"]),
    st.sampled_from(ESCROW_DISPUTES),
    st.sampled_from(ESCROW_ACTORS),
    st.integers(-3, 12),
)


def replayed_books(ledger: list[tuple[str, int, str, int]]) -> tuple[dict, dict]:
    """Reference: per-dispute balances and per-actor net positions summed
    from the accepted writes."""
    balances = dict.fromkeys(ESCROW_DISPUTES, 0)
    net = dict.fromkeys(ESCROW_ACTORS, 0)
    for kind, dispute, actor, amount in ledger:
        signed = amount if kind == "deposit" else -amount
        balances[dispute] += signed
        net[actor] -= signed
    return balances, net


def escrow_reads(escrow: Escrow) -> tuple:
    return (
        list(escrow.entries),
        {d: escrow.balance(d) for d in ESCROW_DISPUTES},
        {a: escrow.net_position(a) for a in ESCROW_ACTORS},
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(ESCROW_OP, max_size=40))
def test_escrow_matches_a_naive_ledger_replay(ops) -> None:
    escrow = Escrow()
    ledger: list[tuple[str, int, str, int]] = []
    for kind, dispute, actor, amount in ops:
        held = replayed_books(ledger)[0][dispute]
        if amount <= 0 or (kind != "deposit" and amount > held):
            before = escrow_reads(escrow)
            with pytest.raises(ValueError):
                getattr(escrow, kind)(dispute, actor, amount)
            assert escrow_reads(escrow) == before
        else:
            entry = getattr(escrow, kind)(dispute, actor, amount)
            assert entry == EscrowEntry(kind, dispute, actor, amount)
            ledger.append((kind, dispute, actor, amount))
        assert escrow_reads(escrow) == (
            [EscrowEntry(*write) for write in ledger], *replayed_books(ledger)
        )
        assert escrow.conserved()  # the reference accepts only funded writes
        assert escrow.balance(99) == 0 and escrow.net_position("nobody") == 0


def test_config_validation_and_window_defaults() -> None:
    with pytest.raises(ValueError):
        DisputeConfig(t1=10, t2=10, min_judges=3)
    with pytest.raises(ValueError):
        DisputeConfig(t1=0, t2=10, min_judges=3)
    with pytest.raises(ValueError):
        DisputeConfig(t1=10, t2=20, min_judges=0)
    assert DisputeConfig(t1=100, t2=250, min_judges=3).span == 150


# ---- opening and joining ------------------------------------------------------------


def test_open_requires_positive_fee_and_distinct_parties() -> None:
    court = Court()
    key = KeyPair.generate(court.rng).public
    with pytest.raises(ZeroFee):
        court.engine.open_dispute("alice", ["bob"], 0, CFG, key, now=0)
    with pytest.raises(SelfDispute):
        court.engine.open_dispute("alice", ["alice"], 10, CFG, key, now=0)
    with pytest.raises(ValueError):
        court.engine.open_dispute("alice", ["bob", "bob"], 10, CFG, key, now=0)


def test_joining_escrows_the_same_fee() -> None:
    court = Court()
    key = KeyPair.generate(court.rng)
    dispute = court.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    assert dispute.state == DisputeState.AWAITING_JOIN
    assert court.engine.escrow.balance(dispute.dispute_id) == 10

    bob = KeyPair.generate(court.rng)
    with pytest.raises(WrongFee):
        court.engine.join_dispute(dispute.dispute_id, "bob", 9, bob.public, now=5)
    with pytest.raises(NotAParty):
        court.engine.join_dispute(dispute.dispute_id, "mallory", 10, bob.public, now=5)
    with pytest.raises(AlreadyJoined):
        court.engine.join_dispute(dispute.dispute_id, "alice", 10, key.public, now=5)

    court.engine.join_dispute(dispute.dispute_id, "bob", 10, bob.public, now=5)
    assert dispute.state == DisputeState.EVIDENCE_OPEN
    assert court.engine.escrow.balance(dispute.dispute_id) == 20


def test_join_closes_exactly_at_t1() -> None:
    court = Court()
    key = KeyPair.generate(court.rng)
    dispute = court.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    bob = KeyPair.generate(court.rng)
    with pytest.raises(JoinAfterDeadline):
        court.engine.join_dispute(dispute.dispute_id, "bob", 10, bob.public, now=CFG.t1)
    court2 = Court()
    dispute2 = court2.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    court2.engine.join_dispute(dispute2.dispute_id, "bob", 10, bob.public, now=CFG.t1 - 1)
    assert dispute2.state == DisputeState.EVIDENCE_OPEN


def test_default_judgment_refunds_everyone() -> None:
    court = Court()
    key = KeyPair.generate(court.rng)
    dispute = court.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    with pytest.raises(TooEarly):
        court.engine.default_if_absent(dispute.dispute_id, now=CFG.t1 - 1)
    winner = court.engine.default_if_absent(dispute.dispute_id, now=CFG.t1)
    assert winner == "alice"
    assert dispute.state == DisputeState.DEFAULT_JUDGMENT
    assert dispute.default_winner == "alice"
    assert court.engine.escrow.balance(dispute.dispute_id) == 0
    assert court.engine.escrow.net_position("alice") == 0
    assert court.engine.escrow.conserved()


def test_default_unavailable_once_everyone_joined() -> None:
    court = Court()
    dispute = court.open()
    with pytest.raises(WrongState):
        court.engine.default_if_absent(dispute.dispute_id, now=CFG.t1)


# ---- evidence --------------------------------------------------------------------


def test_evidence_window_is_between_join_and_t1() -> None:
    court = Court()
    dispute = court.open()
    ref = court.engine.submit_evidence(
        dispute.dispute_id, "alice", proposal_hash("receipt"), "receipt", now=10
    )
    assert ref in dispute.evidence
    with pytest.raises(NotAParty):
        court.engine.submit_evidence(
            dispute.dispute_id, "mallory", proposal_hash("x"), "x", now=10
        )
    with pytest.raises(WrongState):
        court.engine.submit_evidence(
            dispute.dispute_id, "bob", proposal_hash("late"), "late", now=CFG.t1
        )
    assert dispute.state == DisputeState.PHASE1_VOTING  # the late attempt synced it


def test_evidence_requires_all_parties_present() -> None:
    court = Court()
    key = KeyPair.generate(court.rng)
    dispute = court.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    with pytest.raises(WrongState):
        court.engine.submit_evidence(
            dispute.dispute_id, "alice", proposal_hash("early"), "early", now=1
        )


# ---- juror enrollment ----------------------------------------------------------


def test_enrollment_admits_group_members_until_t1() -> None:
    court = Court()
    dispute = court.open()
    index0, _ = court.enroll(dispute.dispute_id, court.judges[0], now=10)
    index1, _ = court.enroll(dispute.dispute_id, court.judges[1], now=CFG.t1 - 1)
    assert (index0, index1) == (0, 1)
    with pytest.raises(EnrollmentClosed):
        court.enroll(dispute.dispute_id, court.judges[2], now=CFG.t1)


def test_enrollment_rejects_foreign_scope_and_double_enrollment() -> None:
    court = Court()
    dispute = court.open()
    other = court.open(parties=("carol", "dan"))

    key = KeyPair.generate(court.rng)
    wrong_scope = create_signal(
        court.judges[0],
        court.group,
        key.public,
        enrollment_scope(other.dispute_id),
    )
    with pytest.raises(InvalidSignal) as excinfo:
        court.engine.enroll_judge(dispute.dispute_id, wrong_scope, now=10)
    assert excinfo.value.reason == "BadScope"

    court.enroll(dispute.dispute_id, court.judges[0], now=10)
    with pytest.raises(InvalidSignal) as excinfo:
        court.enroll(dispute.dispute_id, court.judges[0], now=11)
    assert excinfo.value.reason == "DoubleSignal"
    # the same identity is free to serve in the other dispute
    court.enroll(other.dispute_id, court.judges[0], now=12)


def test_duplicate_ballot_key_refused_without_burning_the_nullifier() -> None:
    court = Court()
    dispute = court.open()
    _, key = court.enroll(dispute.dispute_id, court.judges[0], now=10)
    reused = create_signal(
        court.judges[1],
        court.group,
        key.public,
        enrollment_scope(dispute.dispute_id),
    )
    with pytest.raises(InvalidSignal) as excinfo:
        court.engine.enroll_judge(dispute.dispute_id, reused, now=11)
    assert excinfo.value.reason == "DuplicateKey"
    # a fresh key still works: the rejection above consumed nothing
    index, _ = court.enroll(dispute.dispute_id, court.judges[1], now=12)
    assert index == 1


def test_an_old_format_ballot_key_is_refused_without_burning_the_nullifier() -> None:
    """A ballot key is one 32-byte signing point; the 64-byte form that also
    carried an agreement point is a BadKey and spends nothing."""
    court = Court()
    dispute = court.open()
    key = KeyPair.generate(court.rng).public
    old_format = create_signal(
        court.judges[0],
        court.group,
        key + bytes(32),
        enrollment_scope(dispute.dispute_id),
    )
    with pytest.raises(InvalidSignal) as excinfo:
        court.engine.enroll_judge(dispute.dispute_id, old_format, now=10)
    assert excinfo.value.reason == "BadKey"
    assert court.group.seen_nullifier_hashes == set()
    assert court.enroll(dispute.dispute_id, court.judges[0], now=11)[0] == 0


def test_enrollment_needs_an_active_dispute() -> None:
    court = Court()
    key = KeyPair.generate(court.rng)
    dispute = court.engine.open_dispute("alice", ["bob"], 10, CFG, key.public, now=0)
    signal = create_signal(
        court.judges[0],
        court.group,
        KeyPair.generate(court.rng).public,
        enrollment_scope(dispute.dispute_id),
    )
    with pytest.raises(WrongState):
        court.engine.enroll_judge(dispute.dispute_id, signal, now=10)


# ---- phase 1 ----------------------------------------------------------------------


def test_phase1_happy_path_tallies_and_orders_proposals() -> None:
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    choices = [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    outcome, _ = court.run_phase1(dispute.dispute_id, choices)
    assert outcome == "tallied"
    assert dispute.state == DisputeState.PHASE1_TALLIED
    assert dispute.phase1_scores is not None
    assert dispute.phase1_scores == {"alice": 2, "bob": 1}
    assert [p.text_hash for p in dispute.proposals] == memos
    assert [p.author_registration_index for p in dispute.proposals] == [0, 1, 2]


def test_phase1_close_before_deadline_is_early() -> None:
    court = Court()
    dispute = court.open()
    with pytest.raises(TooEarly):
        court.engine.close_phase1(dispute.dispute_id, now=CFG.t2 - 1)


def test_phase1_ballot_intake_stops_at_t2() -> None:
    court = Court()
    dispute = court.open()
    index, key = court.enroll(dispute.dispute_id, court.judges[0])
    with pytest.raises(PollClosed):
        court.phase1_vote(
            dispute.dispute_id, index, key, 0, memo=proposal_hash("late"), now=CFG.t2
        )


def test_quorum_shortfall_extends_once_then_aborts() -> None:
    court = Court()
    dispute = court.open()
    index, key = court.enroll(dispute.dispute_id, court.judges[0])
    index2, key2 = court.enroll(dispute.dispute_id, court.judges[1])  # stays silent
    court.phase1_vote(dispute.dispute_id, index, key, 0, memo=proposal_hash("p"))

    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "extended"
    extended_deadline = CFG.t2 + CFG.span
    assert dispute.phase1_poll.deadline == extended_deadline
    assert dispute.state == DisputeState.PHASE1_VOTING

    # intake stays open during the extension; two voters still miss quorum
    court.phase1_vote(
        dispute.dispute_id, index2, key2, 1, memo=proposal_hash("q"), now=CFG.t2 + 1
    )

    with pytest.raises(TooEarly):
        court.engine.close_phase1(dispute.dispute_id, now=extended_deadline - 1)
    assert court.engine.close_phase1(dispute.dispute_id, now=extended_deadline) == "aborted"
    assert dispute.state == DisputeState.ABORTED
    assert court.engine.escrow.balance(dispute.dispute_id) == 0
    assert court.engine.escrow.net_position("alice") == 0
    assert court.engine.escrow.net_position("bob") == 0


def test_second_close_after_extension_can_still_tally() -> None:
    court = Court()
    dispute = court.open()
    memo = proposal_hash("p")
    enrolled = [
        court.enroll(dispute.dispute_id, judge) for judge in court.judges[:3]
    ]
    index, key = enrolled[0]
    court.phase1_vote(dispute.dispute_id, index, key, 0, memo=memo)
    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "extended"

    for i, k in enrolled[1:]:
        court.phase1_vote(dispute.dispute_id, i, k, 0, memo=memo, now=CFG.t2 + 5)
    outcome = court.engine.close_phase1(
        dispute.dispute_id, now=CFG.t2 + CFG.span
    )
    assert outcome == "tallied"
    assert dispute.phase1_scores == {"alice": 3, "bob": 0}


def test_malformed_ballots_do_not_count_toward_quorum() -> None:
    """Only the poll's verdicts decide what counts: an invalid ballot is no
    vote, and a valid one that spends the juror's credit counts, whatever
    its memo."""
    court = Court()
    dispute = court.open()
    good_memo = proposal_hash("fine")

    shapes = [
        {"votes": {0: 2}, "memo": good_memo},          # spends two credits
        {"votes": {0: 1}, "memo": b"short"},            # counts: any memo will do
        {"votes": {5: 1}, "memo": good_memo},          # names a non-party
        {"votes": {0: 1, 1: 1}, "memo": good_memo},    # names two parties
        {"votes": {0: 1}, "memo": good_memo},           # counts
    ]
    enrolled = [court.enroll(dispute.dispute_id, identity) for identity in court.judges]
    for (index, key), shape in zip(enrolled, shapes):
        ct = build_message(
            signer=key,
            coordinator_public=court.coordinator.public,
            voter_registration_index=index,
            votes=shape["votes"],
            memo=shape["memo"],
            rng=court.rng,
        )
        court.engine.submit_phase1_ballot(dispute.dispute_id, ct, now=150)

    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "extended"

    # a third sound ballot in the extension makes quorum
    index, key = enrolled[2]
    court.phase1_vote(dispute.dispute_id, index, key, 1, memo=good_memo, now=CFG.t2 + 1)
    deadline = CFG.t2 + CFG.span
    assert court.engine.close_phase1(dispute.dispute_id, now=deadline) == "tallied"
    transcript = dispute.phase1_poll.process_messages(court.coordinator)
    assert [entry.reason for entry in transcript.entries] == [
        "OverBudget", None, "BadOption", "OverBudget", None, None
    ]
    assert dispute.phase1_scores == {"alice": 2, "bob": 1}
    assert [(p.author_registration_index, p.text_hash) for p in dispute.proposals] == [
        (1, b"short"), (4, good_memo), (2, good_memo)
    ]


# every probe is juror 3's last ballot, after four sound ones for alice,
# alice, bob, bob: (votes, memo, verdict)
PROBES = {
    "empty memo": ({1: 1}, b"", None),
    "unknown option": ({7: 1}, proposal_hash("stray"), "BadOption"),
    "split credit": ({0: 0, 1: 1}, proposal_hash("split"), None),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_phase1_scores_are_the_published_tally(probe) -> None:
    """Which ballots count is decided once, by the poll's replay: the scores
    Phase 2 grants are the tally the poll committed to and published, and
    the audit accepts the transcript behind it."""
    votes, memo, verdict = PROBES[probe]
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(4)]
    enrolled = [court.enroll(dispute.dispute_id, judge) for judge in court.judges[:4]]
    for (index, key), party, memo_i in zip(enrolled, (0, 0, 1, 1), memos):
        court.phase1_vote(dispute.dispute_id, index, key, party, memo=memo_i)
    index, key = enrolled[3]
    ct = build_message(
        signer=key,
        coordinator_public=court.coordinator.public,
        voter_registration_index=index,
        votes=votes,
        memo=memo,
        rng=court.rng,
    )
    court.engine.submit_phase1_ballot(dispute.dispute_id, ct, now=160)
    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "tallied"
    poll = court.engine.start_phase2(dispute.dispute_id, now=210)

    (published,) = [p["tally"] for kind, p in court.events if kind == "tally_published"]
    scores = {party: published.get(i, 0) for i, party in enumerate(dispute.parties)}
    assert dispute.phase1_scores == scores == {"alice": 2, "bob": 2}
    assert [credits for _, credits in poll.voters] == [2, 2]
    transcript = dispute.phase1_poll.audit_transcript()
    assert transcript.entries[-1].reason == verdict
    intake = message_set_digest([m.ciphertext for m in dispute.phase1_poll.messages])
    assert verify_audit(transcript, intake, dispute.phase1_poll.commitment).ok
    # juror 3's proposal is their last valid vote's memo
    assert dispute.proposals[-1].text_hash == (memos[3] if verdict else memo)


def count_calls(monkeypatch, counts: Counter, owner, *names) -> None:
    """Count each call of the named attributes of `owner` made in this
    process into `counts`, by name."""
    for name in names:
        real = getattr(owner, name)

        def spy(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("ballots", [8, 60, 240])
def test_a_phase1_close_opens_each_ballot_once(monkeypatch, ballots) -> None:
    """Exact counts of one tallying close through the engine, at three poll
    sizes (ROADMAP item 10): one key agreement and one decryption per
    ballot, in the one run of the poll's replay that the quorum preview and
    the processing share."""
    court = Court(seed=ballots)
    dispute = court.open()
    enrolled = [court.enroll(dispute.dispute_id, judge) for judge in court.judges[:3]]
    for n in range(ballots):
        index, key = enrolled[n % 3]
        court.phase1_vote(
            dispute.dispute_id, index, key, n % 2, memo=proposal_hash(f"p{n}")
        )
    counts = Counter()
    count_calls(monkeypatch, counts, maci, "key_agree", "decrypt")
    count_calls(monkeypatch, counts, maci._Replay, "result")
    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "tallied"
    assert counts == {"key_agree": ballots, "decrypt": ballots, "result": 1}


def test_an_extended_poll_opens_each_ballot_once(monkeypatch) -> None:
    """A Phase-1 poll misses quorum at t2, is extended, takes more ballots
    and then tallies: its replay is sent only the ballots it has not seen,
    so this process makes one key agreement and one decryption per ballot
    the poll took, not one more for each close."""
    court = Court(seed=6)
    dispute = court.open()
    enrolled = [court.enroll(dispute.dispute_id, judge) for judge in court.judges[:3]]
    counts = Counter()
    count_calls(monkeypatch, counts, maci, "key_agree", "decrypt")
    first, *later = enrolled
    court.phase1_vote(dispute.dispute_id, *first, 0, memo=proposal_hash("p0"))
    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "extended"
    for n, (index, key) in enumerate(later, 1):
        court.phase1_vote(
            dispute.dispute_id, index, key, n % 2, memo=proposal_hash(f"p{n}"),
            now=CFG.t2 + n,
        )
    outcome = court.engine.close_phase1(dispute.dispute_id, now=CFG.t2 + CFG.span)
    assert outcome == "tallied"
    ballots = len(dispute.phase1_poll.messages)
    assert ballots == 3
    assert counts == {"key_agree": ballots, "decrypt": ballots}


def test_a_large_poll_is_opened_and_checked_in_its_worker(monkeypatch) -> None:
    """A Phase-1 poll of MIN_FORKED_COMMANDS jurors, with two usable cores:
    its worker opens and replays each ballot as it arrives, so this process
    makes no key agreement, decryption or signature check for the poll's
    ballots, at intake or at the close (ROADMAP item 10). The processed
    transcript is the one a run here gives."""
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    court = Court(seed=3, judges=maci.MIN_FORKED_COMMANDS)
    dispute = court.open()
    enrolled = [court.enroll(dispute.dispute_id, judge) for judge in court.judges]
    counts = Counter()
    count_calls(monkeypatch, counts, maci, "key_agree", "decrypt", "verify_sig")
    for n, (index, key) in enumerate(enrolled):
        court.phase1_vote(
            dispute.dispute_id, index, key, n % 2, memo=proposal_hash(f"p{n}")
        )
    assert court.engine.close_phase1(dispute.dispute_id, now=CFG.t2) == "tallied"
    assert counts == {}
    poll = dispute.phase1_poll
    assert poll not in court.engine.coordinator._forked  # reaped at the commit
    assert poll._replay is None
    monkeypatch.undo()
    processed = poll.process_messages(court.coordinator)
    here = maci._Driver(court.coordinator, poll).send(poll, ask=True)
    assert processed._replace(salt=b"") == poll._transcribed(here).transcript


def test_an_aborted_large_poll_releases_its_worker(monkeypatch) -> None:
    """A poll large enough for a worker that misses quorum twice: the abort
    releases it, so its worker is reaped then, not when the coordinator
    goes."""
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    court = Court(seed=4, judges=maci.MIN_FORKED_COMMANDS)
    config = DisputeConfig(t1=100, t2=200, min_judges=maci.MIN_FORKED_COMMANDS)
    dispute = court.open(config=config)
    enrolled = [court.enroll(dispute.dispute_id, judge) for judge in court.judges]
    for index, key in enrolled[:10]:
        court.phase1_vote(dispute.dispute_id, index, key, 0, memo=proposal_hash("p"))
    poll = dispute.phase1_poll
    worker = poll._replay.child.pid
    assert court.engine.close_phase1(dispute.dispute_id, now=200) == "extended"
    assert court.engine.close_phase1(dispute.dispute_id, now=300) == "aborted"
    assert court.engine.coordinator._forked == set() and poll._replay is None
    with pytest.raises(ChildProcessError):
        os.waitpid(worker, os.WNOHANG)


# ---- phase 2 -------------------------------------------------------------------


def test_phase2_registers_parties_with_phase1_scores() -> None:
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    court.run_phase1(
        dispute.dispute_id, [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    )
    with pytest.raises(WrongState):
        court.engine.close_phase2(dispute.dispute_id, now=500)
    poll = court.engine.start_phase2(dispute.dispute_id, now=210)
    assert dispute.state == DisputeState.PHASE2_VOTING
    assert poll.cost_rule == "quadratic"
    assert poll.deadline == 210 + CFG.span
    assert poll.voters == [
        (court.party_keys["alice"].public, 2),
        (court.party_keys["bob"].public, 1),
    ]


def test_phase2_resolves_with_quadratic_scores() -> None:
    court, dispute = resolved_court(
        allocations={"alice": {0: 1, 2: 1}, "bob": {1: 1}}
    )
    assert dispute.state == DisputeState.RESOLVED
    assert dispute.phase2_tally.proposal_scores == {0: 1, 1: 1, 2: 1}
    assert dispute.phase2_tally.winner == 0  # tie broken by earliest proposal


def test_phase2_negative_votes_can_sink_a_proposal() -> None:
    court, dispute = resolved_court(
        allocations={"alice": {0: 1, 1: -1}, "bob": {1: 1}}
    )
    assert dispute.phase2_tally.proposal_scores == {0: 1, 1: 0, 2: 0}
    assert dispute.phase2_tally.winner == 0


def test_phase2_overbudget_ballot_is_void() -> None:
    # alice holds 2 credits; 2 votes on one option cost 4
    court, dispute = resolved_court(
        allocations={"alice": {0: 2}, "bob": {1: 1}}
    )
    assert dispute.phase2_tally.proposal_scores == {0: 0, 1: 1, 2: 0}
    assert dispute.phase2_tally.winner == 1


def test_phase2_allocation_naming_unknown_proposal_is_dropped() -> None:
    """An allocation naming a proposal that does not exist is a BadOption,
    so the party's earlier valid allocation still counts."""
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    court.run_phase1(
        dispute.dispute_id, [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    )
    court.engine.start_phase2(dispute.dispute_id, now=210)
    deadline = dispute.phase2_poll.deadline
    court.phase2_vote(dispute.dispute_id, "alice", {0: 1}, now=deadline - 3)
    court.phase2_vote(dispute.dispute_id, "bob", {1: 1}, now=deadline - 2)
    court.phase2_vote(dispute.dispute_id, "alice", {3: 1}, now=deadline - 1)
    court.engine.close_phase2(dispute.dispute_id, now=deadline)
    transcript = dispute.phase2_poll.audit_transcript()
    assert [entry.reason for entry in transcript.entries] == [None, None, "BadOption"]
    assert dispute.phase2_tally.proposal_scores == {0: 1, 1: 1, 2: 0}
    assert dispute.phase2_tally.winner == 0


def test_phase2_close_respects_its_own_deadline() -> None:
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    court.run_phase1(
        dispute.dispute_id, [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    )
    court.engine.start_phase2(dispute.dispute_id, now=210)
    with pytest.raises(TooEarly):
        court.engine.close_phase2(dispute.dispute_id, now=dispute.phase2_poll.deadline - 1)
    with pytest.raises(PollClosed):
        court.phase2_vote(
            dispute.dispute_id, "alice", {0: 1}, now=dispute.phase2_poll.deadline
        )


# ---- settlement and bookkeeping ----------------------------------------------------


def test_settlement_pays_the_pool_once() -> None:
    court, dispute = resolved_court()
    with pytest.raises(ValueError):
        court.engine.escrow.payout(dispute.dispute_id, "thief", 21)
    entry = court.engine.settle(dispute.dispute_id, "judge-wallet")
    assert entry.amount == 2 * dispute.fee
    assert court.engine.escrow.balance(dispute.dispute_id) == 0
    with pytest.raises(WrongState):
        court.engine.settle(dispute.dispute_id, "judge-wallet")
    assert court.engine.escrow.conserved()


def test_settlement_requires_resolution() -> None:
    court = Court()
    dispute = court.open()
    with pytest.raises(WrongState):
        court.engine.settle(dispute.dispute_id, "judge-wallet")


def test_transitions_never_skip_states() -> None:
    court, dispute = resolved_court()
    assert [
        (payload["old"], payload["new"])
        for kind, payload in court.events
        if kind == "dispute_state" and payload["dispute_id"] == dispute.dispute_id
    ] == [
        ("Opened", "AwaitingJoin"),
        ("AwaitingJoin", "EvidenceOpen"),
        ("EvidenceOpen", "Phase1Voting"),
        ("Phase1Voting", "Phase1Tallied"),
        ("Phase1Tallied", "Phase2Voting"),
        ("Phase2Voting", "Resolved"),
    ]


def test_tally_stays_sealed_until_phase2_starts() -> None:
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    court.run_phase1(
        dispute.dispute_id, [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    )
    kinds = [kind for kind, _ in court.events]
    assert "tally_commitment" in kinds
    assert "tally_published" not in kinds
    court.engine.start_phase2(dispute.dispute_id, now=210)
    published = [p for kind, p in court.events if kind == "tally_published"]
    assert len(published) == 1
    assert published[0]["tally"] == {0: 2, 1: 1}


def test_mixed_outcomes_keep_the_escrow_conserved() -> None:
    court = Court()
    resolved = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    court.run_phase1(
        resolved.dispute_id, [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    )
    court.engine.start_phase2(resolved.dispute_id, now=210)
    court.phase2_vote(resolved.dispute_id, "alice", {0: 1}, now=211)
    court.engine.close_phase2(resolved.dispute_id, now=resolved.phase2_poll.deadline)
    court.engine.settle(resolved.dispute_id, "judge-wallet")

    defaulted_key = KeyPair.generate(court.rng)
    defaulted = court.engine.open_dispute(
        "carol", ["dan"], 15, CFG, defaulted_key.public, now=0
    )
    court.engine.default_if_absent(defaulted.dispute_id, now=CFG.t1)

    aborted = court.open(parties=("erin", "frank"), fee=8)
    court.engine.close_phase1(aborted.dispute_id, now=CFG.t2)
    court.engine.close_phase1(
        aborted.dispute_id, now=CFG.t2 + CFG.span
    )

    escrow = court.engine.escrow
    assert escrow.conserved()
    for dispute in (resolved, defaulted, aborted):
        assert escrow.balance(dispute.dispute_id) == 0
    assert escrow.net_position("judge-wallet") == 20
    assert escrow.net_position("carol") == 0
    assert escrow.net_position("erin") == 0


# ---- the contract's boundary -------------------------------------------------------

# what a poll holds of the coordinator's processing, or reveals of it
_PROCESSING = (
    "preview_valid_votes", "process_messages", "commit_tally", "publish_tally",
    "audit_transcript",
)


def test_only_maci_reads_a_poll_processing_state(monkeypatch, capsys) -> None:
    """The contract reaches a poll's processing only through the
    coordinator: with every processing call and every tally read checked to
    come from `disputekit.maci`, both bundled scenarios report the same
    bytes. Neither the engine nor the incentives layer holds a decryption
    key, and the engine holds no generator."""
    def reports() -> list[str]:
        for name in ("happy_path", "stalled_court"):
            assert main(["run", str(REPO / "scenarios" / f"{name}.json")]) == 0
        return capsys.readouterr().out.splitlines()

    plain = reports()
    called = set()

    def from_maci(name, function):
        def checked(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            assert caller == "disputekit.maci", f"{name} called from {caller}"
            called.add(name)
            return function(*args, **kwargs)
        return checked

    for name in _PROCESSING:
        monkeypatch.setattr(MaciPoll, name, from_maci(name, getattr(MaciPoll, name)))
    monkeypatch.setattr(MaciPoll, "tally", property(from_maci("tally", MaciPoll.tally.fget)))
    assert reports() == plain
    assert called == {*_PROCESSING, "tally"} - {"audit_transcript"}

    world = World(1)
    modules = (disputekit.engine, disputekit.incentives)
    for holder in (vars(world.engine), *map(vars, modules)):
        assert not any(
            value is DecryptionKey or isinstance(value, (DecryptionKey, random.Random))
            for value in holder.values()
        )


# ---- lifecycle model ------------------------------------------------------------

# the paper's lifecycle, written once here as the reference: every state
# change the engine reports must be one of these edges
LIFECYCLE = {
    ("Opened", "AwaitingJoin"),
    ("AwaitingJoin", "EvidenceOpen"),
    ("AwaitingJoin", "DefaultJudgment"),
    ("EvidenceOpen", "Phase1Voting"),
    ("Phase1Voting", "Phase1Tallied"),
    ("Phase1Voting", "Aborted"),
    ("Phase1Tallied", "Phase2Voting"),
    ("Phase2Voting", "Resolved"),
}
TERMINAL = {"Resolved", "DefaultJudgment", "Aborted"}
MODEL_CFG = DisputeConfig(t1=100, t2=200, min_judges=2)
MODEL_PARTIES = (("alice", "bob"), ("carol", "dan"))
MODEL_OPS = ("open", "join", "default", "evidence", "enroll", "vote1", "close1",
             "start2", "vote2", "close2", "settle")
# half the operations are drawn from those that can move a dispute on from
# its state, so that runs get far; the other half from every operation
MODEL_MOVES = {
    "AwaitingJoin": ("join",),
    "EvidenceOpen": ("enroll",),
    "Phase1Voting": ("vote1", "close1"),
    "Phase1Tallied": ("start2",),
    "Phase2Voting": ("vote2", "close2"),
}
MODEL_RUNS, MODEL_STEPS = 100, 80


def _model_times(court: Court, dispute_id: int) -> list[int]:
    """Times just before, at and just after each deadline the dispute has."""
    deadlines = [MODEL_CFG.t1, MODEL_CFG.t2, MODEL_CFG.t2 + MODEL_CFG.span]
    if dispute_id in court.engine.disputes:
        dispute = court.engine.disputes[dispute_id]
        deadlines.append(dispute.phase1_poll.deadline)
        if dispute.phase2_poll is not None:
            deadlines.append(dispute.phase2_poll.deadline)
    return [0, *(t + d for t in deadlines for d in (-1, 0, 1))]


def _model_step(court: Court, jurors: dict, op: str, dispute_id: int, now: int) -> None:
    """One engine operation on dispute `dispute_id`, legal or not."""
    engine, rng = court.engine, court.rng
    parties = MODEL_PARTIES[dispute_id]
    if op == "open":
        if dispute_id == len(engine.disputes):  # the id the engine assigns next
            engine.open_dispute(parties[0], parties[1:], 10, MODEL_CFG,
                                court.party_keys[parties[0]].public, now)
    elif op == "join":
        party = rng.choice(parties)
        engine.join_dispute(dispute_id, party, 10, court.party_keys[party].public, now)
    elif op == "default":
        engine.default_if_absent(dispute_id, now)
    elif op == "evidence":
        engine.submit_evidence(dispute_id, rng.choice(parties), b"e" * 32, "doc", now)
    elif op == "enroll":
        jurors.setdefault(dispute_id, []).append(
            court.enroll(dispute_id, rng.choice(court.judges), now=now))
    elif op == "vote1":
        if not jurors.get(dispute_id):
            engine.submit_phase1_ballot(dispute_id, b"junk", now)
        else:
            index, key = rng.choice(jurors[dispute_id])
            court.phase1_vote(dispute_id, index, key, rng.randrange(2),
                              memo=proposal_hash(f"p{index}"), now=now)
    elif op == "close1":
        engine.close_phase1(dispute_id, now)
    elif op == "start2":
        engine.start_phase2(dispute_id, now)
    elif op == "vote2":
        dispute = engine.disputes.get(dispute_id)
        if dispute is None or not dispute.proposals:
            engine.submit_phase2_ballot(dispute_id, b"junk", now)
        else:
            votes = {rng.randrange(len(dispute.proposals)): 1}
            court.phase2_vote(dispute_id, rng.choice(parties), votes, now=now)
    elif op == "close2":
        engine.close_phase2(dispute_id, now)
    else:
        engine.settle(dispute_id, "judge-wallet")


def test_the_lifecycle_model_holds() -> None:
    """Seeded random sequences of every engine operation, legal or not, on
    one or two disputes at times around their deadlines: every call returns
    or raises a ProtocolError, every state change is an edge of the paper's
    lifecycle from the state the dispute was in, and a terminal state never
    changes. Across the runs every edge is taken."""
    taken = set()
    for run in range(MODEL_RUNS):
        court = Court(seed=run, judges=3)
        for party in (party for parties in MODEL_PARTIES for party in parties):
            court.party_keys[party] = KeyPair.generate(court.rng)
        jurors: dict[int, list] = {}
        states: dict[int, str] = {}
        now = 0
        for step in range(MODEL_STEPS):
            dispute_id = 0 if step == 0 else court.rng.randrange(2)
            moves = MODEL_MOVES.get(states.get(dispute_id), MODEL_OPS)
            op = "open" if step == 0 else court.rng.choice(
                moves if court.rng.random() < 0.5 else MODEL_OPS)
            times = _model_times(court, dispute_id)
            # the clock holds or steps to the next deadline-adjacent time; the
            # caller supplies it, so it also jumps to any of them, back too
            if court.rng.random() < 0.1:
                now = court.rng.choice(times)
            elif court.rng.random() < 0.1:
                now = min((t for t in times if t > now), default=now)
            seen = len(court.events)
            ended = {d: s for d, s in states.items() if s in TERMINAL}
            try:
                _model_step(court, jurors, op, dispute_id, now)
            except ProtocolError:
                pass
            for kind, payload in court.events[seen:]:
                if kind != "dispute_state":
                    continue
                edge = (payload["old"], payload["new"])
                where = f"run {run}, step {step}: {op} at {now}"
                assert edge in LIFECYCLE, f"{where}: {edge} is not a lifecycle edge"
                assert states.get(payload["dispute_id"], "Opened") == edge[0], where
                states[payload["dispute_id"]] = edge[1]
                taken.add(edge)
            for known, dispute in court.engine.disputes.items():
                assert dispute.state.value == states[known]
            assert ended.items() <= states.items(), f"run {run}, step {step}: {op}"
    assert taken == LIFECYCLE
