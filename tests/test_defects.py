"""The defect register: one test per open defect in ROADMAP.md, each written
as the property the paper claims and marked as failing until its fix lands.

Every marker is strict and names AssertionError, so a test that starts to
pass (the defect was fixed) fails Tier-1 until its marker is removed, and a
test that fails on anything but its own assertion fails too. Staging that
does not hold raises `Unstaged` instead, so it never reads as the defect."""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from support import naive_replay

from disputekit import attacks, scenario
from disputekit.engine import enrollment_scope
from disputekit.errors import InvalidSignal, ProtocolError
from disputekit.identity import Signal, create_signal
from disputekit.maci import (
    Command,
    MaciPoll,
    build_message,
    commitment_digest,
    decode_signed_command,
    message_set_digest,
    verify_audit,
)
from disputekit.primitives import DecryptionKey, KeyPair, encrypt, random_bytes
from disputekit.scenario import World, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def open_defect(item: int):
    return pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {item}"
    )


class Unstaged(Exception):
    """The defect's stage did not come about, so its test says nothing."""


def staged(condition: bool, what: str) -> None:
    if not condition:
        raise Unstaged(what)


def court(seed: int = 2029, judges: int = 5) -> World:
    world = World(seed, genesis_humans=[f"judge{i}" for i in range(judges)], tree_depth=12)
    for i in range(judges):
        world.group_join(f"judge{i}")
    return world


def open_case(world: World, start: int = 0) -> int:
    """alice against bob, Phase 1 open from `start` to `start` + 100."""
    dispute = world.open_dispute(
        "alice", ["bob"], 10, t1=start + 100, t2=start + 200, min_judges=3, now=start
    )
    world.join_dispute(dispute, "bob", 10, now=start + 1)
    return dispute


def refused(world: World, dispute: int, signal: Signal) -> bool:
    """Whether the engine refuses the enrollment signal."""
    try:
        world.engine.enroll_judge(dispute, signal, now=20)
    except InvalidSignal:
        return True
    return False


# ---- item 1: membership signals bind neither nullifier nor data ----------------------


@open_defect(1)
def test_an_outsider_cannot_enroll_from_a_public_path() -> None:
    """No identity, a member's public path and a random nullifier hash."""
    world = court()
    dispute = open_case(world)
    rng = random.Random(1)
    signal = Signal(
        data=KeyPair.generate(rng).public,
        membership_path=world.group.tree.prove(0),
        claimed_root=world.group.root,
        external_nullifier=enrollment_scope(dispute),
        nullifier_hash=random_bytes(32, rng),
    )
    assert refused(world, dispute, signal)


@open_defect(1)
def test_a_member_cannot_enroll_twice_in_one_dispute() -> None:
    """A second signal of the same identity, its nullifier hash made fresh."""
    world = court()
    dispute = open_case(world)
    world.enroll_judge(dispute, "judge0", now=10)
    rng = random.Random(2)
    again = create_signal(
        world.identities["judge0"],
        world.group,
        KeyPair.generate(rng).public,
        enrollment_scope(dispute),
    )._replace(nullifier_hash=random_bytes(32, rng))
    assert refused(world, dispute, again)


@open_defect(1)
def test_a_relayer_cannot_swap_the_signalled_ballot_key() -> None:
    world = court()
    dispute = open_case(world)
    rng = random.Random(3)
    signal = create_signal(
        world.identities["judge0"],
        world.group,
        KeyPair.generate(rng).public,
        enrollment_scope(dispute),
    )
    assert refused(world, dispute, signal._replace(data=KeyPair.generate(rng).public))


# ---- item 2: a command is not bound to its poll ------------------------------------


def run_phase2(world: World, dispute: int, start: int, alice_votes, relay=None) -> None:
    """Three jurors each propose (alice twice, bob once), then each party
    votes in Phase 2; `relay`, when given, is sealed again and submitted
    right after alice's vote."""
    for offset, judge in enumerate(("judge0", "judge1", "judge2")):
        world.enroll_judge(dispute, judge, now=start + 10 + offset)
    for offset, (judge, party) in enumerate(
        (("judge0", "alice"), ("judge1", "alice"), ("judge2", "bob"))
    ):
        world.phase1_vote(dispute, judge, party, f"ruling {start} {judge}", start + 150 + offset)
    staged(world.close_phase1(dispute, start + 200) == "tallied", "Phase 1 tallied")
    world.start_phase2(dispute, start + 200)
    world.phase2_vote(dispute, "alice", alice_votes, start + 201)
    if relay is not None:
        sealed = encrypt(world.coordinator.public, relay, random.Random(4))
        world.engine.submit_phase2_ballot(dispute, sealed, start + 202)
    world.phase2_vote(dispute, "bob", {0: 1}, start + 203)
    world.close_phase2(dispute, start + 300)


@open_defect(2)
def test_a_published_command_does_not_count_in_another_dispute() -> None:
    """alice's Phase-2 command from dispute 0's transcript, sealed again for
    dispute 1 after her own vote there."""
    world = court()
    first = open_case(world)
    run_phase2(world, first, 0, {2: 1})
    entries = world.engine.disputes[first].phase2_poll.audit_transcript().entries
    published = entries[0].plaintext
    staged(decode_signed_command(published)[0].voter_registration_index == 0, "alice's")
    second = open_case(world, start=400)
    run_phase2(world, second, 400, {0: 1}, relay=published)
    replayed = world.engine.disputes[second].phase2_poll.audit_transcript().entries[1]
    assert not replayed.valid


# ---- items 3 and 4: what the audit takes on the coordinator's word ----------------


def published_poll(votes):
    """A processed, committed and published poll of two voters with one
    credit each, `votes` as (voter, {option: amount}) in arrival order: its
    transcript, intake digest and commitment."""
    rng = random.Random(5)
    coordinator = DecryptionKey.generate(rng)
    poll = MaciPoll(0, coordinator.public, 100, "linear", 3)
    voters = [KeyPair.generate(rng) for _ in range(2)]
    for pair in voters:
        poll.register_voter(pair.public, 1)
    for now, (voter, choice) in enumerate(votes):
        poll.submit_message(
            build_message(
                signer=voters[voter],
                coordinator_public=coordinator.public,
                voter_registration_index=voter,
                votes=choice,
                rng=rng,
            ),
            now,
        )
    poll.close(100)
    poll.process_messages(coordinator)
    poll.commit_tally(rng)
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return poll.audit_transcript(), intake, poll.commitment


@open_defect(3)
def test_a_substituted_plaintext_is_rejected() -> None:
    """voter 0 votes 0, voter 1 votes 2, voter 0 changes to 1; the
    coordinator claims message 2 opened to message 0's plaintext and
    re-derives the verdicts, the tally and its commitment to match."""
    transcript, intake, _ = published_poll([(0, {0: 1}), (1, {2: 1}), (0, {1: 1})])
    plaintexts = [entry.plaintext for entry in transcript.entries]
    plaintexts[2] = plaintexts[0]
    verdicts, _, tally = naive_replay(
        transcript.cost_rule, transcript.options, transcript.initial_voters, plaintexts
    )
    staged(tally == {0: 1, 2: 1} != dict(transcript.tally), "the counted vote moved")
    forged = transcript._replace(
        entries=tuple(
            entry._replace(plaintext=plaintext, valid=valid, reason=reason)
            for entry, plaintext, (valid, reason) in zip(
                transcript.entries, plaintexts, verdicts
            )
        ),
        tally=tally,
    )
    recommitted = commitment_digest(forged.poll_id, forged.tally, forged.salt)
    assert not verify_audit(forged, intake, recommitted).ok


@open_defect(4)
def test_a_transcript_cannot_restate_its_options() -> None:
    """An honest transcript whose `options` is raised, no verdict changed."""
    transcript, intake, commitment = published_poll([(0, {0: 1}), (1, {2: 1})])
    staged(verify_audit(transcript, intake, commitment).ok, "the honest one passes")
    raised = transcript._replace(options=transcript.options + 1)
    verdicts, _, _ = naive_replay(
        raised.cost_rule, raised.options, raised.initial_voters,
        [entry.plaintext for entry in raised.entries],
    )
    staged(
        verdicts == [(entry.valid, entry.reason) for entry in raised.entries],
        "no verdict changed",
    )
    assert not verify_audit(raised, intake, commitment).ok


# ---- item 8: a ballot's length tells what it holds --------------------------------


@open_defect(8)
def test_every_ballot_of_a_poll_has_one_length() -> None:
    script = json.loads((SCENARIOS / "happy_path.json").read_text())
    lengths: dict[int, set[int]] = {}
    for _, kind, payload in run_scenario(script)["view"]:
        if kind == "ballot":
            lengths.setdefault(payload["poll_id"], set()).add(len(payload["ciphertext"]))
    staged(len(lengths) >= 2, "both phases took ballots")
    assert all(len(seen) == 1 for seen in lengths.values())


# ---- item 20: an unclaimed pool stays in escrow ------------------------------------

PERMISSIONLESS = ("default_if_absent", "close_phase1", "start_phase2", "close_phase2")


def janitor(world: World, start: int) -> None:
    """What anyone may do once the timeline ends: on every dispute, each
    permissionless op at the latest of `start`, t1 and t2, and again one,
    two and three spans later, which covers an extension and a runoff. An
    op the dispute's state or clock refuses is skipped."""
    for dispute_id, dispute in world.engine.disputes.items():
        config = dispute.config
        base = max(start, config.t1, config.t2)
        for now in (base + k * config.span for k in range(4)):
            for op in PERMISSIONLESS:
                try:
                    getattr(world, op)(dispute_id, now)
                except ProtocolError:
                    pass


@open_defect(20)
def test_every_deposit_leaves_escrow_without_cooperation() -> None:
    """`happy_path.json` with its one `claim_fee` step removed: the winner
    never claims, and a janitor calls only permissionless ops."""
    script = json.loads((SCENARIOS / "happy_path.json").read_text())
    timeline = [step for step in script["timeline"] if step["op"] != "claim_fee"]
    staged(len(timeline) == len(script["timeline"]) - 1, "one claim removed")
    world = World(script["seed"], **script["config"])
    steps = [scenario._step(world, position, step) for position, step in enumerate(timeline)]
    staged(all(entry["pass"] for entry in steps), "the rest of the timeline ran")
    snapshot = world.snapshot()
    staged(snapshot["disputes"]["0"]["state"] == "Resolved", "the dispute resolved")
    staged(not snapshot["disputes"]["0"]["settled"], "its pool unclaimed")
    janitor(world, timeline[-1]["t"])
    balances = world.snapshot()["escrow_balances"]
    assert balances == dict.fromkeys(balances, 0)


# ---- item 11: a published transcript is a vote receipt -----------------------------


def counted_vote(defect: bool):
    """What the Phase-1 transcript says of the coerced juror's counted vote."""
    world, dispute, _, _ = attacks._coercion_trace(2029, defect=defect)
    voter, _ = world.jurors[dispute]["judge0"]
    counted = None
    for entry in world.engine.disputes[dispute].phase1_poll.audit_transcript().entries:
        command: Command = decode_signed_command(entry.plaintext)[0]
        if entry.valid and command.voter_registration_index == voter:
            counted = command.vote_option
    staged(counted is not None, "the juror's vote was counted")
    return counted


@open_defect(11)
def test_a_transcript_does_not_tell_compliance_from_defection() -> None:
    assert counted_vote(defect=False) == counted_vote(defect=True)


# ---- item 15: a ban unmasks the banned human ---------------------------------------


@open_defect(15)
def test_no_banned_human_is_named_by_the_public_record() -> None:
    world = court()
    world.reputation.add("judge3", -100)
    banned = {judge for action, judge in world.enforce_thresholds() if action == "ban"}
    staged(banned == {"judge3"}, "judge3 was banned")
    owner = {e.payload["leaf_index"]: e.payload["human"] for e in world.view.of_kind("group_join")}
    named = {owner[e.payload["leaf_index"]] for e in world.view.of_kind("group_remove")}
    assert not named & banned
