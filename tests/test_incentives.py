"""Reputation accrual, ban/trust thresholds, status tokens, and the
signature-gated fee payout."""
from __future__ import annotations

import pytest

from disputekit.errors import (
    AlreadyRecorded,
    InvalidSignal,
    NotAMember,
    NotAParty,
    NotTheAuthor,
    TooEarly,
    WrongState,
)
from disputekit.identity import create_signal
from disputekit.incentives import (
    BAN_BELOW,
    JUDGE_BANNED,
    JUDGE_TRUSTED,
    PARTY_COMPLIANT,
    PARTY_NON_COMPLIANT,
    TRUST_ABOVE,
    ReputationLedger,
    SbtRegistry,
    apply_phase2_scores,
    distribute_fee,
    enforce_thresholds,
    governance_set,
    issue_party_sbt,
    sign_claim,
)
from disputekit.engine import enrollment_scope
from disputekit.maci import build_message
from disputekit.primitives import KeyPair
from support import CountingList, Court, proposal_hash, resolved_court


# ---- reputation -----------------------------------------------------------------


def test_scores_flow_to_proposal_authors() -> None:
    court, dispute = resolved_court(
        allocations={"alice": {0: 1, 2: 1}, "bob": {1: -1}}
    )
    ledger = ReputationLedger()
    deltas = apply_phase2_scores(
        ledger, dispute, court.judge_by_index[dispute.dispute_id]
    )
    # proposal scores {0: 1, 1: -1, 2: 1} land on judges 0..2 respectively
    assert deltas == {"judge0": 1, "judge1": -1, "judge2": 1}
    assert ledger.get("judge0") == 1
    assert ledger.get("judge1") == -1
    assert ledger.get("never-seen") == 0


def test_scores_apply_once_per_dispute() -> None:
    court, dispute = resolved_court()
    ledger = ReputationLedger()
    mapping = court.judge_by_index[dispute.dispute_id]
    apply_phase2_scores(ledger, dispute, mapping)
    with pytest.raises(AlreadyRecorded):
        apply_phase2_scores(ledger, dispute, mapping)


def test_scores_require_resolution_and_a_full_mapping() -> None:
    court = Court()
    dispute = court.open()
    with pytest.raises(WrongState):
        apply_phase2_scores(ReputationLedger(), dispute, {})
    court2, resolved = resolved_court()
    with pytest.raises(ValueError):
        apply_phase2_scores(ReputationLedger(), resolved, {0: "judge0"})


def test_reputation_accumulates_across_disputes() -> None:
    ledger = ReputationLedger()
    ledger.add("judge0", 5)
    ledger.add("judge0", -2)
    assert ledger.get("judge0") == 3


# ---- thresholds and tokens ------------------------------------------------------


def test_tokens_are_unique_per_kind_subject_and_dispute() -> None:
    sbts = SbtRegistry()
    sbts.issue(JUDGE_TRUSTED, "judge0")
    with pytest.raises(AlreadyRecorded):
        sbts.issue(JUDGE_TRUSTED, "judge0")
    sbts.issue(PARTY_COMPLIANT, "alice", dispute_id=0)
    sbts.issue(PARTY_COMPLIANT, "alice", dispute_id=1)
    with pytest.raises(AlreadyRecorded):
        sbts.issue(PARTY_COMPLIANT, "alice", dispute_id=1)
    with pytest.raises(ValueError):
        sbts.issue("Medal", "judge0")
    assert sbts.has(JUDGE_TRUSTED, "judge0")
    assert not sbts.has(JUDGE_BANNED, "judge0")
    assert len(sbts.tokens_for("alice")) == 2


@pytest.mark.parametrize("issued", [10, 100, 1000])
def test_has_reads_no_token(issued) -> None:
    """Exact counts (ROADMAP item 10): whatever the registry holds, `has`
    reads none of its tokens, for a pair it holds or not, and answers as a
    scan of the tokens would."""
    kinds = (JUDGE_TRUSTED, JUDGE_BANNED, PARTY_COMPLIANT, PARTY_NON_COMPLIANT)
    sbts = SbtRegistry()
    for n in range(issued):
        sbts.issue(kinds[n % 4], f"subject{n}", n if n % 4 >= 2 else None)
    issued_tokens = list(sbts.tokens)
    sbts.tokens = tokens = CountingList(sbts.tokens)
    step = issued // 10
    asked = [(kind, f"subject{n}") for kind in kinds for n in range(0, 2 * issued, step)]
    answers = [sbts.has(kind, subject) for kind, subject in asked]
    assert (tokens.reads, tokens.appends) == (0, 0)
    assert answers == [
        any((t.kind, t.subject) == pair for t in issued_tokens) for pair in asked
    ]
    assert any(answers) and not all(answers)


def test_governance_set_excludes_banned_judges() -> None:
    sbts = SbtRegistry()
    sbts.issue(JUDGE_TRUSTED, "judge0")
    sbts.issue(JUDGE_TRUSTED, "judge1")
    sbts.issue(JUDGE_BANNED, "judge1")
    assert governance_set(sbts) == {"judge0"}


def test_thresholds_are_strict_boundaries() -> None:
    assert (BAN_BELOW, TRUST_ABOVE) == (-10, 25)
    court = Court()
    ledger = ReputationLedger()
    sbts = SbtRegistry()
    ledger.add("judge0", -10)  # exactly at the line: stays
    ledger.add("judge1", 25)  # exactly at the line: not yet trusted
    assert enforce_thresholds(ledger, sbts, court.group, court.engine.observe) == []
    ledger.add("judge0", -1)
    ledger.add("judge1", 1)
    actions = enforce_thresholds(ledger, sbts, court.group, court.engine.observe)
    assert actions == [("ban", "judge0"), ("trust", "judge1")]


def test_ban_removes_the_juror_and_sticks() -> None:
    court = Court()
    dispute = court.open()
    ledger = ReputationLedger()
    sbts = SbtRegistry()
    # capture a membership signal while still in good standing
    key = KeyPair.generate(court.rng)
    stale_signal = create_signal(
        court.judges[0],
        court.group,
        key.public,
        enrollment_scope(dispute.dispute_id),
    )
    ledger.add("judge0", -11)
    actions = enforce_thresholds(ledger, sbts, court.group, court.engine.observe)
    assert actions == [("ban", "judge0")]
    assert sbts.has(JUDGE_BANNED, "judge0")
    assert court.events[-1] == (
        "group_remove", {"leaf_index": 0, "root": court.group.root}
    )

    # the pre-ban signal dies against the new root, and a fresh one
    # cannot even be built: the juror's leaf is gone
    with pytest.raises(InvalidSignal) as excinfo:
        court.engine.enroll_judge(dispute.dispute_id, stale_signal, now=10)
    assert excinfo.value.reason == "BadMembership"
    with pytest.raises(NotAMember):
        create_signal(
            court.judges[0],
            court.group,
            key.public,
            enrollment_scope(dispute.dispute_id),
        )

    # repeat calls are no-ops, and later glory cannot undo the ban
    assert enforce_thresholds(ledger, sbts, court.group, court.engine.observe) == []
    ledger.add("judge0", 100)
    assert enforce_thresholds(ledger, sbts, court.group, court.engine.observe) == []
    assert governance_set(sbts) == set()


def test_other_jurors_survive_a_ban() -> None:
    court = Court()
    dispute = court.open()
    ledger = ReputationLedger()
    ledger.add("judge0", -11)
    enforce_thresholds(ledger, SbtRegistry(), court.group, court.engine.observe)
    index, _ = court.enroll(dispute.dispute_id, court.judges[1], now=10)
    assert index == 0


# ---- compliance tokens ------------------------------------------------------------


def test_party_compliance_tokens() -> None:
    court, dispute = resolved_court()
    sbts = SbtRegistry()
    token = issue_party_sbt(
        sbts, dispute, "bob", complied=True, deadline_passed=False
    )
    assert token.kind == PARTY_COMPLIANT
    assert token.dispute_id == dispute.dispute_id
    late = issue_party_sbt(
        sbts, dispute, "alice", complied=False, deadline_passed=True
    )
    assert late.kind == PARTY_NON_COMPLIANT
    with pytest.raises(TooEarly):
        issue_party_sbt(sbts, dispute, "bob", complied=False, deadline_passed=False)
    with pytest.raises(NotAParty):
        issue_party_sbt(sbts, dispute, "mallory", complied=True, deadline_passed=False)


def test_compliance_needs_resolution() -> None:
    court = Court()
    dispute = court.open()
    with pytest.raises(WrongState):
        issue_party_sbt(
            SbtRegistry(), dispute, "alice", complied=True, deadline_passed=False
        )


# ---- fee distribution ----------------------------------------------------------


def test_winning_author_collects_with_a_signed_claim() -> None:
    court, dispute = resolved_court(
        allocations={"alice": {0: 1, 2: 1}, "bob": {1: 1}}
    )
    assert dispute.phase2_tally.winner == 0
    winner_key = court.ballot_keys[(dispute.dispute_id, 0)]
    signature = sign_claim(winner_key, dispute.dispute_id, "fresh-wallet")
    entry = distribute_fee(court.engine, dispute.dispute_id, "fresh-wallet", signature)
    assert entry.actor == "fresh-wallet"
    assert entry.amount == 2 * dispute.fee
    assert court.engine.escrow.conserved()


def test_claims_from_the_wrong_key_or_wallet_fail() -> None:
    court, dispute = resolved_court()
    loser_key = court.ballot_keys[(dispute.dispute_id, 1)]
    with pytest.raises(NotTheAuthor):
        distribute_fee(
            court.engine,
            dispute.dispute_id,
            "wallet",
            sign_claim(loser_key, dispute.dispute_id, "wallet"),
        )
    winner_key = court.ballot_keys[(dispute.dispute_id, 0)]
    good = sign_claim(winner_key, dispute.dispute_id, "wallet")
    with pytest.raises(NotTheAuthor):
        distribute_fee(court.engine, dispute.dispute_id, "other-wallet", good)
    # funds are still intact and the honest claim still works
    entry = distribute_fee(court.engine, dispute.dispute_id, "wallet", good)
    assert entry.amount == 2 * dispute.fee


def test_claim_follows_a_key_switch() -> None:
    """A juror who rotated their ballot key claims with the new key."""
    court = Court()
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    enrolled = [
        court.enroll(dispute.dispute_id, identity) for identity in court.judges[:3]
    ]
    fresh = KeyPair.generate(court.rng)
    for position, (index, key) in enumerate(enrolled):
        new_key = fresh.public if position == 0 else None
        signer = key
        ct = build_message(
            signer=signer,
            coordinator_public=court.coordinator.public,
            voter_registration_index=index,
            votes={0: 1},
            new_public_key=new_key,
            memo=memos[position],
            rng=court.rng,
        )
        court.engine.submit_phase1_ballot(dispute.dispute_id, ct, now=150)
    # juror 0's second ballot, signed with the rotated key, sets the proposal
    ct = build_message(
        signer=fresh,
        coordinator_public=court.coordinator.public,
        voter_registration_index=0,
        votes={0: 1},
        memo=memos[0],
        rng=court.rng,
    )
    court.engine.submit_phase1_ballot(dispute.dispute_id, ct, now=151)
    court.engine.close_phase1(dispute.dispute_id, now=200)
    court.engine.start_phase2(dispute.dispute_id, now=210)
    # the rotated juror's proposal ranks last (their final ballot arrived
    # last); alice funds exactly that one
    rotated_proposal = next(
        k
        for k, p in enumerate(dispute.proposals)
        if p.author_registration_index == 0
    )
    court.phase2_vote(
        dispute.dispute_id,
        "alice",
        {rotated_proposal: 1},
        now=dispute.phase2_poll.deadline - 1,
    )
    court.engine.close_phase2(dispute.dispute_id, now=dispute.phase2_poll.deadline)
    assert dispute.phase2_tally.winner == rotated_proposal

    stale = sign_claim(enrolled[0][1], dispute.dispute_id, "wallet")
    with pytest.raises(NotTheAuthor):
        distribute_fee(court.engine, dispute.dispute_id, "wallet", stale)
    rotated = sign_claim(fresh, dispute.dispute_id, "wallet")
    assert distribute_fee(court.engine, dispute.dispute_id, "wallet", rotated)


def test_distribution_requires_resolution_and_pays_once() -> None:
    court = Court()
    dispute = court.open()
    key = KeyPair.generate(court.rng)
    with pytest.raises(WrongState):
        distribute_fee(
            court.engine,
            dispute.dispute_id,
            "wallet",
            sign_claim(key, dispute.dispute_id, "wallet"),
        )
    court2, resolved = resolved_court()
    winner_key = court2.ballot_keys[(resolved.dispute_id, 0)]
    signature = sign_claim(winner_key, resolved.dispute_id, "wallet")
    distribute_fee(court2.engine, resolved.dispute_id, "wallet", signature)
    with pytest.raises(WrongState):
        distribute_fee(court2.engine, resolved.dispute_id, "wallet", signature)
