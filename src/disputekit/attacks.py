"""Adversarial probes against a live world, with verdicts.

Each probe stages one well-known attack and reports whether the protocol
held. The pattern throughout: run a baseline world and an attacked world
from the same seed, let the adversary act only in the second, and then
compare what actually matters — tallies, balances, memberships — rather
than raw logs. Adversarial randomness comes from the world's dedicated
`adversary_rng`, so a blocked attempt cannot even nudge the honest
sequence of keys and nonces.

The probes:

  double_vote      one juror, two enrollments / two ballots
  coercion         a coerced juror silently rotates keys and re-votes
  sybil            one person, many registry entries; banned jurors return
  spam             frivolous disputes as griefing
  takeover         the richer party tries to buy the runoff
  info_asymmetry   reading tallies out of the public record early
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .engine import enrollment_scope
from .errors import (
    AlreadyJoined,
    DuplicateHuman,
    InvalidSignal,
    NotApproved,
)
from .identity import Identity, create_signal
from .incentives import PARTY_NON_COMPLIANT, issue_party_sbt
from .maci import build_message
from .oracle import b_can_win, first_winning_reply
from .primitives import KeyPair, hash_bytes
from .scenario import World

BLOCKED = "Blocked"
SUCCEEDED = "Succeeded"
_FEE = 10  # each party's deposit in every probe's dispute
_PANEL = ["judge0", "judge1", "judge2"]


class AttackReport(NamedTuple):
    name: str
    attempted: str
    defense: str
    outcome: str
    detail: dict

    @property
    def blocked(self) -> bool:
        return self.outcome == BLOCKED


# ---- shared stage-setting ----------------------------------------------------------
#
# These helpers count a dispute's schedule from `at`, the tick it opens:
# judges enroll from at + 10, Phase 1 takes ballots from at + 150 and closes
# at at + 200, and the runoff runs from at + 210 to at + 310.


def _standard_world(seed: int, *, judges: int = 5) -> World:
    world = World(
        seed,
        genesis_humans=[f"judge{i}" for i in range(judges)],
        tree_depth=12,
    )
    for i in range(judges):
        world.group_join(f"judge{i}")
    return world


def _open_standard_dispute(
    world: World, parties: tuple[str, str] = ("alice", "bob"), *, at: int = 0
) -> int:
    """The initiator of `parties` opens a dispute against the respondent,
    who joins it."""
    initiator, respondent = parties
    dispute_id = world.open_dispute(
        initiator, [respondent], _FEE, t1=at + 100, t2=at + 200, min_judges=3, now=at
    )
    world.join_dispute(dispute_id, respondent, _FEE, now=at + 1)
    return dispute_id


def _enroll(world: World, dispute_id: int, judges: list[str], *, at: int = 0):
    for offset, judge in enumerate(judges):
        world.enroll_judge(dispute_id, judge, now=at + 10 + offset)


def _phase1(world: World, dispute_id: int, votes, *, at: int = 0) -> None:
    """votes: list of (judge, party, proposal_text), cast one a tick; then
    Phase 1 closes."""
    for offset, (judge, party, text) in enumerate(votes):
        world.phase1_vote(dispute_id, judge, party, text, now=at + 150 + offset)
    world.close_phase1(dispute_id, now=at + 200)


def _panel_dispute(seed: int) -> tuple[World, int]:
    """A standard world whose standard dispute the panel has enrolled in."""
    world = _standard_world(seed)
    dispute_id = _open_standard_dispute(world)
    _enroll(world, dispute_id, _PANEL)
    return world, dispute_id


def _resolved_dispute(
    world: World,
    votes,
    wallet: str,
    *,
    parties: tuple[str, str] = ("alice", "bob"),
    at: int = 0,
) -> int:
    """A dispute between `parties` judged by the panel's `votes`, whose
    runoff the side judge0 took settles with one vote for judge0's
    proposal, and whose fee judge0 claims into `wallet`."""
    dispute_id = _open_standard_dispute(world, parties, at=at)
    _enroll(world, dispute_id, _PANEL, at=at)
    _phase1(world, dispute_id, votes, at=at)
    world.start_phase2(dispute_id, now=at + 210)
    world.phase2_vote(dispute_id, votes[0][1], {0: 1}, now=at + 220)
    world.close_phase2(dispute_id, now=at + 310)
    world.claim_fee(dispute_id, "judge0", wallet)
    return dispute_id


def _dispute_outcome(world: World, dispute_id: int) -> dict:
    return world.snapshot()["disputes"][str(dispute_id)]


def _observed(world: World) -> list[tuple[str, int]]:
    """What an observer reads of the public record: each event's kind and
    the length of its ciphertext, if it carries one."""
    return [
        (event.kind, len(event.payload.get("ciphertext", b"")))
        for event in world.view.events
    ]


def _refusal(error: type[Exception], attempt: Callable[[], object]) -> Optional[str]:
    """The name of `error` if `attempt` raises it; None if it succeeds."""
    try:
        attempt()
    except error:
        return error.__name__
    return None


# ---- 1: double voting ------------------------------------------------------------


def attack_double_vote(seed: int) -> AttackReport:
    """One juror tries to count twice: enrolling a second time for the
    same dispute, and stacking extra ballots in the queue."""
    honest_votes = [
        ("judge0", "bob", "no refund owed"),
        ("judge1", "alice", "refund half"),
        ("judge2", "alice", "refund in full"),
    ]

    baseline, base_dispute = _panel_dispute(seed)
    _phase1(baseline, base_dispute, honest_votes)

    attacked, dispute_id = _panel_dispute(seed)

    # attempt A: enroll the same identity again under a fresh ballot key
    double_enroll_reason = None
    fresh = KeyPair.generate(attacked.adversary_rng)
    signal = create_signal(
        attacked.identities["judge0"],
        attacked.group,
        fresh.public,
        enrollment_scope(dispute_id),
    )
    try:
        attacked.engine.enroll_judge(dispute_id, signal, now=20)
    except InvalidSignal as exc:
        double_enroll_reason = exc.reason

    # attempt B: an extra early ballot, built from adversarial randomness;
    # the honest-looking final one follows
    voter, signer = attacked.jurors[dispute_id]["judge0"]
    stuffed = build_message(
        signer=signer,
        coordinator_public=attacked.coordinator.public,
        voter_registration_index=voter,
        votes={attacked.engine.disputes[dispute_id].parties.index("alice"): 1},
        memo=hash_bytes(b"stuffed ballot"),
        rng=attacked.adversary_rng,
    )
    attacked.engine.submit_phase1_ballot(dispute_id, stuffed, now=140)
    _phase1(attacked, dispute_id, honest_votes)

    base_outcome = _dispute_outcome(baseline, base_dispute)
    attack_outcome = _dispute_outcome(attacked, dispute_id)
    same_scores = base_outcome["phase1_scores"] == attack_outcome["phase1_scores"]
    one_voter_one_slot = (
        len(attacked.engine.disputes[dispute_id].phase1_poll.voters) == 3
    )
    blocked = (
        double_enroll_reason == "DoubleSignal" and same_scores and one_voter_one_slot
    )
    return AttackReport(
        name="double_vote",
        attempted="enroll twice for one dispute and stack extra ballots",
        defense="per-dispute nullifiers; last-message-valid processing",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={
            "double_enroll_reason": double_enroll_reason,
            "baseline_scores": base_outcome["phase1_scores"],
            "attacked_scores": attack_outcome["phase1_scores"],
            "registered_voters": len(
                attacked.engine.disputes[dispute_id].phase1_poll.voters
            ),
        },
    )


# ---- 2: coercion / vote buying --------------------------------------------------


def _coercion_trace(seed: int, *, defect: bool) -> tuple[World, int, dict, list]:
    """judge0 votes as the coercer demands, then sends one more message:
    a key rotation carrying either the coerced vote again (comply) or
    their true vote (defect). Everything else is identical."""
    world, dispute_id = _panel_dispute(seed)

    # the demanded ballot, visibly cast
    world.phase1_vote(dispute_id, "judge0", "bob", "pay the coercer", now=150)
    # the silent follow-up (rotation + final word)
    true_party = "alice" if defect else "bob"
    true_text = "true verdict" if defect else "pay the coercer"
    world.phase1_vote(
        dispute_id, "judge0", true_party, true_text, now=155, rotate_key=True
    )
    world.phase1_vote(dispute_id, "judge1", "alice", "refund half", now=160)
    world.phase1_vote(dispute_id, "judge2", "bob", "no refund", now=161)
    world.close_phase1(dispute_id, now=200)

    return world, dispute_id, _dispute_outcome(world, dispute_id), _observed(world)


def attack_coercion(seed: int) -> AttackReport:
    """A coercer watches the public record to check the victim obeyed."""
    _, _, comply_outcome, comply_shape = _coercion_trace(seed, defect=False)
    _, _, defect_outcome, defect_shape = _coercion_trace(seed, defect=True)

    indistinguishable = comply_shape == defect_shape
    true_vote_counted = defect_outcome["phase1_scores"] == {"alice": 2, "bob": 1}
    comply_differs = comply_outcome["phase1_scores"] == {"alice": 1, "bob": 2}
    blocked = indistinguishable and true_vote_counted and comply_differs
    return AttackReport(
        name="coercion",
        attempted="buy a juror's ballot and verify compliance on-chain",
        defense="key rotation + last-message-valid: receipts are worthless",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={
            "public_records_indistinguishable": indistinguishable,
            "defect_scores": defect_outcome["phase1_scores"],
            "comply_scores": comply_outcome["phase1_scores"],
        },
    )


# ---- 3: sybil identities ----------------------------------------------------------


def attack_sybil(seed: int) -> AttackReport:
    """One person tries to hold several voting slots."""
    world = _standard_world(seed)
    rejections: dict[str, Optional[str]] = {}

    def join_afresh(human: str) -> None:
        """Join the juror group under a new identity of the adversary's."""
        world.group.join(human, Identity.generate(world.adversary_rng).commitment)

    # (a) register an id that already exists
    world.poh_register("mallory", voucher="judge0", now=0)
    world.poh_finalize(now=20)
    world.group_join("mallory")
    rejections["duplicate_registration"] = _refusal(
        DuplicateHuman, lambda: world.poh_register("mallory", voucher="judge1", now=21)
    )

    # (b) grow a puppet id, caught by a challenge inside the window
    world.poh_register("mallory-puppet", voucher="mallory", now=22)
    world.poh_challenge("mallory-puppet", "same face as mallory", now=25)
    world.poh_finalize(now=40)
    rejections["challenged_puppet"] = _refusal(
        NotApproved, lambda: join_afresh("mallory-puppet")
    )

    # (c) join the juror group twice with a second identity
    rejections["double_join"] = _refusal(AlreadyJoined, lambda: join_afresh("mallory"))

    # (d) get banned, then try to walk back in
    world.reputation.add("mallory", -100)
    world.enforce_thresholds()
    rejections["banned_rejoin"] = _refusal(AlreadyJoined, lambda: join_afresh("mallory"))

    # control: an unrelated human still gets in
    world.poh_register("nadia", voucher="judge0", now=41)
    world.poh_finalize(now=60)
    control_leaf = world.group_join("nadia")

    bindings = world.group.member_bindings
    blocked = (
        all(rejections.values())
        and bindings.get("mallory-puppet") is None
        and isinstance(control_leaf, int)
    )
    return AttackReport(
        name="sybil",
        attempted="hold multiple voting identities (and return after a ban)",
        defense="one-human-one-leaf binding; vouch + challenge window",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={**rejections, "control_join_leaf": control_leaf},
    )


# ---- 4: dispute spam -----------------------------------------------------------


def attack_spam(seed: int) -> AttackReport:
    """Grief with frivolous disputes; check the fee makes it self-defeating."""
    honest_votes = [
        ("judge0", "alice", "refund half"),
        ("judge1", "alice", "refund half now"),
        ("judge2", "bob", "no refund"),
    ]
    baseline = _standard_world(seed)
    honest_base = _resolved_dispute(baseline, honest_votes, "wallet-of-judge0")

    attacked = _standard_world(seed)
    honest_id = _resolved_dispute(attacked, honest_votes, "wallet-of-judge0")

    # spam 1: the victim ignores it -> default judgment, deposits return
    ignored = attacked.open_dispute(
        "spammer", ["carol"], _FEE, t1=400, t2=500, min_judges=3, now=320
    )
    attacked.default_if_absent(ignored, now=400)

    # spam 2: the victim contests -> full pipeline, the pool leaves both
    contested = _resolved_dispute(
        attacked,
        [
            ("judge0", "carol", "vexatious claim, carol owes nothing"),
            ("judge1", "carol", "dismiss with prejudice"),
            ("judge2", "carol", "dismiss"),
        ],
        "wallet-spam-judge",
        parties=("spammer", "carol"),
        at=600,
    )
    # the judgment orders the spammer to make carol whole; they refuse
    spam_dispute = attacked.engine.disputes[contested]
    issue_party_sbt(
        attacked.sbts, spam_dispute, "spammer", complied=False, deadline_passed=True
    )

    base_honest = _dispute_outcome(baseline, honest_base)
    attacked_honest = _dispute_outcome(attacked, honest_id)
    spammer_net = attacked.engine.escrow.net_position("spammer")
    blocked = (
        base_honest == attacked_honest
        and attacked.engine.escrow.conserved()
        and spammer_net == -_FEE  # refunded when ignored, forfeited when contested
        and attacked.engine.escrow.balance(ignored) == 0
        and attacked.engine.escrow.balance(contested) == 0
        and attacked.sbts.has(PARTY_NON_COMPLIANT, "spammer")
    )
    return AttackReport(
        name="spam",
        attempted="flood the court with frivolous disputes",
        defense="escrowed fee forfeited per contested dispute; honest cases unaffected",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={
            "spammer_net_position": spammer_net,
            "honest_dispute_unchanged": base_honest == attacked_honest,
            "noncompliance_recorded": attacked.sbts.has(
                PARTY_NON_COMPLIANT, "spammer"
            ),
        },
    )


# ---- 5: wealth takeover of the runoff -------------------------------------------


def attack_takeover(seed: int) -> AttackReport:
    """The richer party (12 credits vs 10) tries to force its proposal
    through the runoff — by overspending, by impersonating the other
    party, and finally by honest all-in spending."""
    world = _standard_world(seed, judges=22)
    dispute_id = _open_standard_dispute(world)
    judges = [f"judge{i}" for i in range(22)]
    _enroll(world, dispute_id, judges)
    votes = []
    for i, judge in enumerate(judges):
        party = "alice" if i < 12 else "bob"
        votes.append((judge, party, f"proposal by {judge}"))
    _phase1(world, dispute_id, votes)
    scores = world.start_phase2(dispute_id, now=210)
    dispute = world.engine.disputes[dispute_id]

    alice_option = 0  # authored by judge0, an alice supporter
    bob_option = 12  # authored by judge12, a bob supporter

    # attempt A: spend more than the credits allow (cost 16 > 12)
    world.phase2_vote(dispute_id, "alice", {alice_option: 4}, now=220)
    # attempt B: forge a ballot in bob's voter slot with alice's key
    poll = dispute.phase2_poll
    assert poll is not None
    alice_key = world.party_keys["alice"]
    forged = build_message(
        signer=alice_key,
        coordinator_public=world.coordinator.public,
        voter_registration_index=dispute.parties.index("bob"),
        votes={alice_option: 1},
        rng=world.adversary_rng,
    )
    world.engine.submit_phase2_ballot(dispute_id, forged, now=221)
    # attempt C: the honest maximum — all-in on her own proposal
    world.phase2_vote(dispute_id, "alice", {alice_option: 3}, now=222)
    # bob's oracle-guided counter: votes against hers and for his own
    b_first = bob_option < alice_option
    against, own = first_winning_reply(scores["alice"], scores["bob"], b_first)
    world.phase2_vote(
        dispute_id, "bob", {alice_option: -against, bob_option: own}, now=223
    )
    world.close_phase2(dispute_id, now=310)

    transcript = poll.audit_transcript()
    forged_entry = transcript.entries[1]
    outcome = _dispute_outcome(world, dispute_id)
    poorer_side_won = outcome["winner"] == bob_option
    oracle_agrees = b_can_win(scores["alice"], scores["bob"], b_first)
    blocked = (
        poorer_side_won
        and oracle_agrees
        and not forged_entry.valid
        and forged_entry.reason == "BadSignature"
        and outcome["phase2_scores"][str(alice_option)] == 2  # 3 - 1
        and outcome["phase2_scores"][str(bob_option)] == 3
    )
    return AttackReport(
        name="takeover",
        attempted="buy the runoff with a larger credit balance",
        defense="quadratic pricing and negative counter-votes",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={
            "phase1_scores": scores,
            "winner": outcome["winner"],
            "forged_ballot_reason": forged_entry.reason,
            "b_can_win": oracle_agrees,
            "final_scores": outcome["phase2_scores"],
        },
    )


# ---- 6: reading the tally early ----------------------------------------------------


def _info_trace(seed: int, votes) -> tuple[list, list, World]:
    world, dispute_id = _panel_dispute(seed)
    _phase1(world, dispute_id, votes)
    pre_publication = _observed(world)
    world.start_phase2(dispute_id, now=210)
    return pre_publication, world.view.kinds(), world


def attack_info_asymmetry(seed: int) -> AttackReport:
    """An observer tries to learn the interim tally from the public
    record before the coordinator publishes it."""
    towards_alice = [
        ("judge0", "alice", "refund half"),
        ("judge1", "alice", "refund most"),
        ("judge2", "bob", "no refund"),
    ]
    towards_bob = [
        ("judge0", "bob", "refund half"),
        ("judge1", "bob", "refund most"),
        ("judge2", "alice", "no refund"),
    ]
    shape_a, kinds_a, world_a = _info_trace(seed, towards_alice)
    shape_b, kinds_b, world_b = _info_trace(seed, towards_bob)

    # before publication, opposite verdicts leave identical footprints
    indistinguishable = shape_a == shape_b
    no_early_tally = all(kind != "tally_published" for kind, _ in shape_a)
    published_after = (
        kinds_a.count("tally_published") == 1
        and kinds_b.count("tally_published") == 1
    )
    # and the published tallies really do differ — the worlds were different
    tally_a = world_a.view.of_kind("tally_published")[0].payload["tally"]
    tally_b = world_b.view.of_kind("tally_published")[0].payload["tally"]
    blocked = (
        indistinguishable and no_early_tally and published_after and tally_a != tally_b
    )
    return AttackReport(
        name="info_asymmetry",
        attempted="read interim tallies out of the public record",
        defense="encrypted ballots; commit first, publish after the phase",
        outcome=BLOCKED if blocked else SUCCEEDED,
        detail={
            "pre_publication_records_identical": indistinguishable,
            "tally_events_before_publication": 0 if no_early_tally else 1,
            "published_tallies_differ": tally_a != tally_b,
        },
    )


ATTACKS = {
    "double_vote": attack_double_vote,
    "coercion": attack_coercion,
    "sybil": attack_sybil,
    "spam": attack_spam,
    "takeover": attack_takeover,
    "info_asymmetry": attack_info_asymmetry,
}


def run_all_attacks(seed: int = 2029) -> list[AttackReport]:
    return [attack(seed) for attack in ATTACKS.values()]
