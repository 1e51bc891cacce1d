"""Acceptance gate: one test per protocol-level claim, one verdict line each.

Every test here re-derives its expected answer through an independent
route — closed forms, brute-force search, a naive decrypt-and-recount
replay, a reference state machine, or exhaustive state enumeration — and
then compares the implementation against it. Run with `-s` to see the
verdict lines:

    pytest tests/test_acceptance.py -v -s
"""
from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

from disputekit.attacks import run_all_attacks
from disputekit.cli import transcript_from_jsonable, transcript_to_jsonable
from disputekit.engine import enrollment_scope
from disputekit.errors import (
    AlreadyJoined,
    DuplicateHuman,
    NotApproved,
    ProtocolError,
    REASON_OVER_BUDGET,
)
from disputekit.identity import Identity, PohRegistry, SemaphoreGroup, create_signal
from disputekit.maci import (
    COST_RULES,
    MaciPoll,
    build_message,
    message_set_digest,
    verify_audit,
)
from disputekit.oracle import consistency_sweep
from disputekit.primitives import DecryptionKey, KeyPair, hash_bytes
from disputekit.scenario import World, run_scenario
from support import naive_process

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict_line(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


# ---- richer-party runoff sweep ----------------------------------------------------


def test_richer_party_sweep_agrees_with_closed_form() -> None:
    """Two independent exact routes to 'can the poorer side win the
    runoff?': every affordable counter-allocation, priced and tallied by
    the engine's rules, against the closed form that takes B's best y2 for
    each y1. They must agree on every budget pair and proposal order, with
    no tolerance."""
    started = time.perf_counter()
    report = consistency_sweep(30)
    disagreements = report.disagreements
    winnable = sum(row.b_can_win for row in report.rows)
    elapsed = time.perf_counter() - started
    verdict_line(
        "richer-party runoff sweep",
        not disagreements and elapsed < 60,
        f"{len(report.rows)} rows (budget pairs up to 30, both proposal orders); "
        f"{winnable} winnable by the poorer side; "
        f"{len(disagreements)} disagreements {disagreements[:5]}; {elapsed:.1f}s",
    )


# ---- quadratic cost law -----------------------------------------------------------


def test_quadratic_cost_law() -> None:
    """v votes on one proposal must cost exactly v*v credits, end to end:
    the rule itself over 0..100, and a live poll accepting at a budget of
    n*n while rejecting at n*n - 1."""
    rule = COST_RULES["quadratic"]
    wrong = [n for n in range(101) if rule((n,)) != n * n or rule((-n,)) != n * n]

    boundary_failures = []
    rng = random.Random(41)
    for n in (1, 7, 100):
        for credits, should_count in ((n * n, True), (n * n - 1, False)):
            coordinator = DecryptionKey.generate(rng)
            voter = KeyPair.generate(rng)
            poll = MaciPoll(
                0, coordinator.public, deadline=10, cost_rule="quadratic", options=1
            )
            poll.register_voter(voter.public, credits)
            poll.submit_message(
                build_message(
                    signer=voter,
                    coordinator_public=coordinator.public,
                    voter_registration_index=0,
                    votes={0: n},
                    rng=rng,
                ),
                now=0,
            )
            poll.close(10)
            transcript = poll.process_messages(coordinator)
            # the memoised run processing read, not run again
            counted = poll.preview_valid_votes(coordinator)[0] is not None
            if counted != should_count:
                boundary_failures.append((n, credits, counted))
            if not should_count and transcript.entries[0].reason != REASON_OVER_BUDGET:
                boundary_failures.append((n, credits, transcript.entries[0].reason))

    verdict_line(
        "quadratic cost law",
        not wrong and not boundary_failures,
        f"magnitudes 0..100 exact on {101 - len(wrong)}/101; "
        f"budget boundary probes at n=1,7,100: "
        f"{'all correct' if not boundary_failures else boundary_failures}",
    )


# ---- full-pipeline naive recount ---------------------------------------------------


def _naive_recount(poll: MaciPoll, coordinator: DecryptionKey) -> tuple[list, list]:
    """Decrypt-everything recount, written from the wire format up by the
    independent route in `support.naive_process` (the curve and AEAD library
    called directly, its own command parser and rules). Returns each
    message's (valid, reason) and each voter's last command whose signature
    matches their then-current key, whose options are the poll's and whose
    spend fits the budget, as (options, amounts, memo, arrival) or None."""
    _, verdicts, finals, _ = naive_process(
        coordinator.seed,
        poll.cost_rule,
        poll.options,
        poll.voters,
        [message.ciphertext for message in poll.messages],
    )
    return verdicts, [vote for _, vote in finals]


def _random_pipeline(seed: int, rng: random.Random) -> dict:
    """One randomized small dispute, returning everything both the engine
    and the naive recount need to be compared."""
    judges = rng.randint(3, 7)
    world = World(
        seed, genesis_humans=[f"j{i}" for i in range(judges)], tree_depth=6
    )
    for i in range(judges):
        world.group_join(f"j{i}")
    parties = ["alice", "bob"] + (["carol"] if rng.random() < 0.25 else [])
    dispute_id = world.open_dispute(
        "alice", parties[1:], rng.randint(1, 30), t1=100, t2=200, min_judges=3, now=0
    )
    for party in parties[1:]:
        world.join_dispute(dispute_id, party, world.engine.disputes[dispute_id].fee, now=1)
    for i in range(judges):
        world.enroll_judge(dispute_id, f"j{i}", now=10 + i)

    voters = rng.sample(range(judges), rng.randint(3, min(4, judges)))
    now = 150
    for i in voters:
        world.phase1_vote(
            dispute_id,
            f"j{i}",
            rng.choice(parties),
            f"first draft by j{i}",
            now=now,
        )
        now += 1
    for i in voters:
        if rng.random() < 0.3:  # a revised final word, rotating the key
            world.phase1_vote(
                dispute_id,
                f"j{i}",
                rng.choice(parties),
                f"final draft by j{i}",
                now=now,
                rotate_key=True,
            )
            now += 1
    for i in voters:
        roll = rng.random()
        if roll < 0.3:  # a last ballot that is no one-party, hash-memo vote
            party = rng.randrange(len(parties))
            other = (party + 1) % len(parties)
            votes, memo = [
                ({party: 1}, b""),  # counts, with an empty memo
                ({other: 0, party: 1}, hash_bytes(b"split")),  # counts for `party`
                ({len(parties) + party: 1}, hash_bytes(b"stray")),  # BadOption
            ][int(roll * 10)]
            voter, signer = world.jurors[dispute_id][f"j{i}"]
            ciphertext = build_message(
                signer=signer,
                coordinator_public=world.coordinator.public,
                voter_registration_index=voter,
                votes=votes,
                memo=memo,
                rng=rng,
            )
            world.engine.submit_phase1_ballot(dispute_id, ciphertext, now)
            now += 1

    world.close_phase1(dispute_id, now=200)
    scores = world.start_phase2(dispute_id, now=210)
    dispute = world.engine.disputes[dispute_id]
    known = list(range(len(dispute.proposals)))

    for party in parties:
        credits = scores[party]
        roll = rng.random()
        if roll < 0.15:
            continue  # abstains
        chosen = rng.sample(known, rng.randint(1, min(2, len(known))))
        if 0.30 <= roll < 0.45:
            votes = {option: credits + 2 for option in chosen}  # deliberate overspend
        else:
            votes = {}
            left = credits
            for option in chosen:
                amount = rng.choice([-2, -1, 1, 1, 2])
                while amount * amount > left:
                    amount = amount - 1 if amount > 1 else (amount + 1 if amount < -1 else 0)
                votes[option] = amount
                left -= amount * amount
            if roll < 0.30:  # names a proposal that does not exist
                votes[50] = votes.pop(chosen[0])
        world.phase2_vote(dispute_id, party, votes, now=220 + parties.index(party))
    world.close_phase2(dispute_id, now=310)
    return {"world": world, "dispute": dispute, "parties": parties, "known": known}


def test_pipeline_matches_naive_recount() -> None:
    """500 randomized small disputes; an independent decrypt-all recount
    must reproduce the coordinator's verdicts, scores, proposals, runoff
    tally, and winner on every single run, and each phase must apply the
    tally it published."""
    started = time.perf_counter()
    rng = random.Random(99)
    runs, mismatches = 500, []
    for run in range(runs):
        case = _random_pipeline(rng.getrandbits(32), rng)
        world, dispute = case["world"], case["dispute"]
        parties, known = case["parties"], case["known"]
        coordinator = world.coordinator._secret

        # phase 1, from the ciphertexts up
        verdicts1, last = _naive_recount(dispute.phase1_poll, coordinator)
        counts = {party: 0 for party in parties}
        drafts = []
        for index, vote in enumerate(last):
            if vote is None:
                continue
            options, amounts, memo, arrival = vote
            for option, amount in zip(options, amounts):
                counts[parties[option]] += amount
            if sum(amounts) == 1:  # spent the juror's one credit
                drafts.append((arrival, index, memo))
        drafts.sort()
        naive_proposals = [
            (position, memo.hex(), author)
            for position, (_, author, memo) in enumerate(drafts)
        ]
        engine_proposals = [
            (k, p.text_hash.hex(), p.author_registration_index)
            for k, p in enumerate(dispute.proposals)
        ]

        # phase 2, same treatment
        verdicts2, final2 = _naive_recount(dispute.phase2_poll, coordinator)
        scores2 = {proposal_id: 0 for proposal_id in known}
        for vote in final2:
            if vote is not None:
                for option, amount in zip(vote[0], vote[1]):
                    scores2[option] += amount
        naive_winner = min(known, key=lambda pid: (-scores2[pid], pid))

        published = {
            event.payload["poll_id"]: event.payload["tally"]
            for event in world.view.of_kind("tally_published")
        }
        tally1 = published[dispute.phase1_poll.poll_id]
        tally2 = published[dispute.phase2_poll.poll_id]

        problems = []
        for poll, naive_verdicts in (
            (dispute.phase1_poll, verdicts1), (dispute.phase2_poll, verdicts2)
        ):
            entries = poll.audit_transcript().entries
            if [(entry.valid, entry.reason) for entry in entries] != naive_verdicts:
                problems.append(f"poll {poll.poll_id} verdicts")
        if dict(dispute.phase1_scores) != counts:
            problems.append("phase1 scores")
        if not set(tally1) <= set(range(len(parties))) or dict(
            dispute.phase1_scores
        ) != {party: tally1.get(i, 0) for i, party in enumerate(parties)}:
            problems.append("phase1 published != applied")
        if engine_proposals != naive_proposals:
            problems.append("proposals")
        if len(known) > 4:
            problems.append("proposal cap")
        if dict(dispute.phase2_tally.proposal_scores) != scores2:
            problems.append("phase2 scores")
        if not set(tally2) <= set(known) or dict(
            dispute.phase2_tally.proposal_scores
        ) != {proposal_id: tally2.get(proposal_id, 0) for proposal_id in known}:
            problems.append("phase2 published != applied")
        if dispute.phase2_tally.winner != naive_winner:
            problems.append("winner")
        if not world.engine.escrow.conserved():
            problems.append("escrow")
        if problems:
            mismatches.append((run, problems))

    elapsed = time.perf_counter() - started
    verdict_line(
        "pipeline vs naive recount",
        not mismatches,
        f"{runs - len(mismatches)}/{runs} runs reproduced exactly "
        f"(verdicts, scores, proposals, runoff, winner, published = applied); "
        f"{elapsed:.1f}s"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


# ---- ballot processing semantics ----------------------------------------------------


def test_ballot_processing_semantics() -> None:
    """1000 randomized message sequences against a reference state
    machine: only the last command signed with the voter's then-current
    key counts, rotation orphans the old key, and overspends are refused
    with the OverBudget verdict. Every poll is then committed and
    published, and the audit replay must accept its transcript."""
    rng = random.Random(4096)
    sequences, violations = 1000, []
    overspends_checked = audits_accepted = 0
    for sequence in range(sequences):
        coordinator = DecryptionKey.generate(rng)
        cost_rule = rng.choice(["linear", "quadratic"])
        voter_count = rng.randint(1, 4)
        registered = [KeyPair.generate(rng) for _ in range(voter_count)]
        budgets = [rng.randint(0, 16) for _ in range(voter_count)]
        poll = MaciPoll(
            0, coordinator.public, deadline=1000, cost_rule=cost_rule, options=3
        )
        for key, budget in zip(registered, budgets):
            poll.register_voter(key.public, budget)

        model_keys = [pair for pair in registered]
        model_last: list = [None] * voter_count
        expectations = []

        for arrival in range(rng.randint(0, 12)):
            index = rng.randrange(voter_count)
            signer_kind = rng.random()
            if signer_kind < 0.70:
                signer = model_keys[index]
            elif signer_kind < 0.85:
                signer = registered[index]  # original key: stale after a rotation
            else:
                signer = KeyPair.generate(rng)  # nobody's key
            option = rng.randint(0, 2)
            amount = rng.choice([-3, -1, 0, 1, 2, 3, 5])
            rotated = KeyPair.generate(rng) if rng.random() < 0.25 else None
            ciphertext = build_message(
                signer=signer,
                coordinator_public=coordinator.public,
                voter_registration_index=index,
                votes={option: amount},
                new_public_key=rotated.public if rotated else None,
                rng=rng,
            )
            poll.submit_message(ciphertext, now=arrival)

            signature_ok = signer.public == model_keys[index].public
            if cost_rule == "linear":
                spend_ok = amount >= 0 and amount <= budgets[index]
            else:
                spend_ok = amount * amount <= budgets[index]
            valid = signature_ok and spend_ok
            pure_overspend = (
                signature_ok
                and not spend_ok
                and (cost_rule == "quadratic" or amount >= 0)
            )
            expectations.append((valid, pure_overspend))
            if valid:
                model_keys[index] = rotated if rotated else signer
                model_last[index] = ((option,), (amount,), arrival)

        poll.close(1000)
        transcript = poll.process_messages(coordinator)
        for arrival, (entry, (valid, pure_overspend)) in enumerate(
            zip(transcript.entries, expectations)
        ):
            if entry.valid != valid:
                violations.append((sequence, "validity", arrival))
            if pure_overspend:
                overspends_checked += 1
                if entry.reason != REASON_OVER_BUDGET:
                    violations.append((sequence, "overspend reason", entry.reason))
        # the memoised run processing read, not run again
        for index, vote in enumerate(poll.preview_valid_votes(coordinator)):
            got = None if vote is None else (
                vote[1].vote_option, vote[1].vote_amount, vote[0]
            )
            if got != model_last[index]:
                violations.append((sequence, "final vote", index))
            # a counted vote's command holds the key the voter ended at
            if vote is not None and vote[1].new_public_key != model_keys[index].public:
                violations.append((sequence, "final key", index))

        # salts come from their own generator so the sequences stay as they were
        poll.commit_tally(random.Random(sequence))
        poll.publish_tally()
        intake = message_set_digest([m.ciphertext for m in poll.messages])
        if verify_audit(poll.audit_transcript(), intake, poll.commitment).ok:
            audits_accepted += 1
        else:
            violations.append((sequence, "audit", None))

    verdict_line(
        "ballot processing semantics",
        not violations,
        f"{sequences} random sequences, 0 violations expected, got "
        f"{len(violations)}; overspend verdicts checked: {overspends_checked}; "
        f"audits accepted: {audits_accepted}"
        + (f"; first {violations[0]}" if violations else ""),
    )


# ---- audit soundness -----------------------------------------------------------------


def _resolved_world(seed: int) -> World:
    world = World(seed, genesis_humans=["j0", "j1", "j2"], tree_depth=6)
    for judge in ("j0", "j1", "j2"):
        world.group_join(judge)
    dispute_id = world.open_dispute(
        "alice", ["bob"], 10, t1=100, t2=200, min_judges=3, now=0
    )
    world.join_dispute(dispute_id, "bob", 10, now=1)
    for offset, judge in enumerate(("j0", "j1", "j2")):
        world.enroll_judge(dispute_id, judge, now=10 + offset)
    world.phase1_vote(dispute_id, "j0", "alice", "pay back half", now=150)
    world.phase1_vote(dispute_id, "j1", "bob", "dismiss", now=151)
    world.phase1_vote(dispute_id, "j2", "alice", "pay back all", now=152, rotate_key=True)
    world.close_phase1(dispute_id, now=200)
    world.start_phase2(dispute_id, now=210)
    world.phase2_vote(dispute_id, "alice", {0: 1, 2: -1}, now=220)
    world.phase2_vote(dispute_id, "bob", {1: 1}, now=221)
    world.close_phase2(dispute_id, now=310)
    return world


def test_audit_rejects_every_tampered_transcript() -> None:
    """Honest transcripts all verify; 200 single tamperings (verdict flips,
    tally bumps, message-set substitutions) all get caught."""
    pool = []
    for seed in (301, 302, 303):
        world = _resolved_world(seed)
        dispute = world.engine.disputes[0]
        for poll in (dispute.phase1_poll, dispute.phase2_poll):
            transcript = poll.audit_transcript()
            intake = message_set_digest([m.ciphertext for m in poll.messages])
            pool.append((transcript_to_jsonable(transcript), intake, poll.commitment))

    honest_ok = all(
        verify_audit(transcript_from_jsonable(doc), intake, commitment).ok
        for doc, intake, commitment in pool
    )

    rng = random.Random(777)
    rejected = 0
    mutations = 200
    survivors = []
    for round_ in range(mutations):
        doc, intake, commitment = pool[round_ % len(pool)]
        doc = json.loads(json.dumps(doc))
        kind = round_ % 3
        if kind == 0:  # verdict flip
            entry = rng.choice(doc["entries"])
            entry["valid"] = not entry["valid"]
        elif kind == 1:  # tally increment
            if doc["tally"] and rng.random() < 0.8:
                option = rng.choice(sorted(doc["tally"]))
                doc["tally"][option] += 1
            else:
                doc["tally"]["9"] = 1
        else:  # message-set substitution
            entries = doc["entries"]
            draw = rng.random()
            if draw < 0.25:  # two entries exchanged
                i, j = rng.sample(range(len(entries)), 2)
                entries[i], entries[j] = entries[j], entries[i]
            elif draw < 0.5:  # an entry dropped
                entries.pop(rng.randrange(len(entries)))
            else:
                rng.choice(entries)["ciphertext_digest"] = rng.randbytes(32).hex()
        verdict = verify_audit(transcript_from_jsonable(doc), intake, commitment)
        if verdict.ok:
            survivors.append((round_, kind))
        else:
            rejected += 1

    verdict_line(
        "audit soundness",
        honest_ok and rejected == mutations,
        f"{len(pool)} honest transcripts accepted: {honest_ok}; "
        f"{rejected}/{mutations} tampered transcripts rejected"
        + (f"; survivors {survivors}" if survivors else ""),
    )


# ---- attack suite ---------------------------------------------------------------------


def _court(seed: int, judges: int = 5) -> World:
    world = World(seed, genesis_humans=[f"judge{i}" for i in range(judges)], tree_depth=8)
    for i in range(judges):
        world.group_join(f"judge{i}")
    return world


def _standard_case(world: World) -> int:
    dispute_id = world.open_dispute(
        "alice", ["bob"], 10, t1=100, t2=200, min_judges=3, now=0
    )
    world.join_dispute(dispute_id, "bob", 10, now=1)
    for offset, judge in enumerate(("judge0", "judge1", "judge2")):
        world.enroll_judge(dispute_id, judge, now=10 + offset)
    return dispute_id


def _finish_phase1(world: World, dispute_id: int, votes) -> None:
    for offset, (judge, party, text) in enumerate(votes):
        world.phase1_vote(dispute_id, judge, party, text, now=150 + offset)
    world.close_phase1(dispute_id, now=200)


_HONEST_VOTES = [
    ("judge0", "alice", "refund in part"),
    ("judge1", "alice", "refund fully"),
    ("judge2", "bob", "dismiss"),
]


def _double_vote_states(seed: int) -> tuple[dict, dict]:
    baseline = _court(seed)
    _finish_phase1(baseline, _standard_case(baseline), _HONEST_VOTES)

    attacked = _court(seed)
    dispute_id = _standard_case(attacked)
    fresh = KeyPair.generate(attacked.adversary_rng)
    signal = create_signal(
        attacked.identities["judge0"],
        attacked.group,
        fresh.public,
        enrollment_scope(dispute_id),
    )
    try:
        attacked.engine.enroll_judge(dispute_id, signal, now=20)
    except ProtocolError:
        pass
    # a stuffed early ballot, later superseded by the honest final one
    voter, signer = attacked.jurors[dispute_id]["judge0"]
    stuffed = build_message(
        signer=signer,
        coordinator_public=attacked.coordinator.public,
        voter_registration_index=voter,
        votes={0: 1},
        memo=hash_bytes(b"stuffed"),
        rng=attacked.adversary_rng,
    )
    attacked.engine.submit_phase1_ballot(dispute_id, stuffed, now=140)
    _finish_phase1(attacked, dispute_id, _HONEST_VOTES)
    return baseline.snapshot(), attacked.snapshot()


def _coercion_states(seed: int) -> tuple[dict, dict]:
    baseline = _court(seed)
    _finish_phase1(
        baseline,
        _standard_case(baseline),
        [("judge0", "alice", "true verdict")] + _HONEST_VOTES[1:],
    )
    attacked = _court(seed)
    dispute_id = _standard_case(attacked)
    attacked.phase1_vote(dispute_id, "judge0", "bob", "as the coercer demands", now=149)
    attacked.phase1_vote(
        dispute_id, "judge0", "alice", "true verdict", now=150, rotate_key=True
    )
    for offset, (judge, party, text) in enumerate(_HONEST_VOTES[1:]):
        attacked.phase1_vote(dispute_id, judge, party, text, now=151 + offset)
    attacked.close_phase1(dispute_id, now=200)
    return baseline.snapshot(), attacked.snapshot()


def _sybil_states(seed: int) -> tuple[dict, dict]:
    world = _court(seed)
    world.poh_register("mallory", voucher="judge0", now=0)
    world.poh_finalize(now=20)
    world.group_join("mallory")
    world.reputation.add("mallory", -100)
    world.enforce_thresholds()

    before = world.snapshot()
    probe_rng = random.Random(f"{seed}:sybil")
    for attempt in (
        lambda: world.registry.register("mallory", hash_bytes(b"again"), "judge1", 30),
        lambda: world.group.join("mallory", Identity.generate(probe_rng).commitment),
        lambda: world.group.join("judge0", Identity.generate(probe_rng).commitment),
    ):
        try:
            attempt()
        except (DuplicateHuman, AlreadyJoined, NotApproved):
            continue
    return before, world.snapshot()


def _takeover_states(seed: int) -> tuple[dict, dict]:
    def runoff(world: World, attacked: bool) -> dict:
        judges = [f"judge{i}" for i in range(22)]
        dispute_id = world.open_dispute(
            "alice", ["bob"], 10, t1=100, t2=200, min_judges=3, now=0
        )
        world.join_dispute(dispute_id, "bob", 10, now=1)
        for offset, judge in enumerate(judges):
            world.enroll_judge(dispute_id, judge, now=10 + offset)
        _finish_phase1(
            world,
            dispute_id,
            [
                (judge, "alice" if i < 12 else "bob", f"draft by {judge}")
                for i, judge in enumerate(judges)
            ],
        )
        world.start_phase2(dispute_id, now=210)
        if attacked:
            world.phase2_vote(dispute_id, "alice", {0: 4}, now=219)  # cost 16 > 12
            forged = build_message(
                signer=world.party_keys["alice"],
                coordinator_public=world.coordinator.public,
                voter_registration_index=1,
                votes={0: 1},
                rng=world.adversary_rng,
            )
            world.engine.submit_phase2_ballot(dispute_id, forged, now=219)
        world.phase2_vote(dispute_id, "alice", {0: 3}, now=220)
        world.phase2_vote(dispute_id, "bob", {0: -1, 12: 3}, now=221)
        world.close_phase2(dispute_id, now=310)
        return world.snapshot()

    return runoff(_court(seed, judges=22), False), runoff(_court(seed, judges=22), True)


def _spam_states(seed: int) -> tuple[dict, dict, World]:
    def honest(world: World) -> None:
        dispute_id = _standard_case(world)
        _finish_phase1(world, dispute_id, _HONEST_VOTES)
        world.start_phase2(dispute_id, now=210)
        world.phase2_vote(dispute_id, "alice", {0: 1}, now=220)
        world.close_phase2(dispute_id, now=310)
        world.claim_fee(dispute_id, "judge0", "wallet-j0")

    baseline = _court(seed)
    honest(baseline)
    attacked = _court(seed)
    honest(attacked)
    ignored = attacked.open_dispute(
        "spammer", ["carol"], 10, t1=400, t2=500, min_judges=3, now=320
    )
    attacked.default_if_absent(ignored, now=400)
    contested = attacked.open_dispute(
        "spammer", ["carol"], 10, t1=700, t2=800, min_judges=3, now=600
    )
    attacked.join_dispute(contested, "carol", 10, now=601)
    for offset, judge in enumerate(("judge0", "judge1", "judge2")):
        attacked.enroll_judge(contested, judge, now=610 + offset)
    for offset, judge in enumerate(("judge0", "judge1", "judge2")):
        attacked.phase1_vote(contested, judge, "carol", f"vexatious says {judge}", now=750 + offset)
    attacked.close_phase1(contested, now=800)
    attacked.start_phase2(contested, now=810)
    attacked.phase2_vote(contested, "carol", {0: 1}, now=820)
    attacked.close_phase2(contested, now=910)
    attacked.claim_fee(contested, "judge0", "wallet-spam-case")
    return baseline.snapshot(), attacked.snapshot(), attacked


def _info_shapes(seed: int, votes) -> tuple[list, dict]:
    world = _court(seed)
    dispute_id = _standard_case(world)
    for offset, (judge, party, text) in enumerate(votes):
        world.phase1_vote(dispute_id, judge, party, text, now=150 + offset)
    world.close_phase1(dispute_id, now=200)
    shape = [
        (event.kind, len(event.payload.get("ciphertext", b"")))
        for event in world.view.events
    ]
    world.start_phase2(dispute_id, now=210)
    return shape, world.snapshot()


def test_attack_suite_all_blocked_with_baseline_equality() -> None:
    """Every probe reports Blocked, and post-attack state deep-equals the
    no-attack baseline: rejected actions leave no trace, absorbed ones
    are superseded without moving a single verdict or balance."""
    reports = run_all_attacks(2029)
    blocked = {report.name: report.blocked for report in reports}

    equalities = {}
    base, hit = _double_vote_states(501)
    equalities["double_vote"] = base == hit
    base, hit = _coercion_states(502)
    equalities["coercion"] = base == hit
    base, hit = _sybil_states(503)
    equalities["sybil"] = base == hit
    base, hit = _takeover_states(504)
    equalities["takeover"] = base == hit
    base, hit, attacked = _spam_states(505)
    equalities["spam"] = (
        base["disputes"]["0"] == hit["disputes"]["0"]
        and all(hit["escrow_net"][actor] == base["escrow_net"][actor]
                for actor in base["escrow_net"])
        and hit["escrow_net"]["spammer"] == -10
        and attacked.engine.escrow.conserved()
    )
    shape_a, snap_a = _info_shapes(506, _HONEST_VOTES)
    flipped = [(j, "bob" if p == "alice" else "alice", t) for j, p, t in _HONEST_VOTES]
    shape_b, snap_b = _info_shapes(506, flipped)
    equalities["info_asymmetry"] = (
        shape_a == shape_b
        and all(kind != "tally_published" for kind, _ in shape_a)
        and snap_a["disputes"]["0"]["phase1_scores"]
        != snap_b["disputes"]["0"]["phase1_scores"]
    )

    passed = len(reports) == 6 and all(blocked.values()) and all(equalities.values())
    verdict_line(
        "attack suite",
        passed,
        f"blocked {sum(blocked.values())}/6; baseline deep-equality "
        f"{sum(equalities.values())}/6"
        + (
            ""
            if passed
            else f"; blocked={blocked} equal={equalities}"
        ),
    )


# ---- escrow conservation ---------------------------------------------------------------


def _random_lifecycle(seed: int, rng: random.Random) -> tuple[str, int]:
    """One dispute driven down a random path; conservation is checked
    after every single operation. Returns (path, violations)."""
    world = World(seed, genesis_humans=["j0", "j1", "j2"], tree_depth=5)
    violations = 0

    def step(action, *args, **kwargs):
        nonlocal violations
        result = action(*args, **kwargs)
        if not world.engine.escrow.conserved():
            violations += 1
        return result

    for judge in ("j0", "j1", "j2"):
        world.group_join(judge)
    fee = rng.randint(1, 40)
    respondents = ["bob"] + (["carol"] if rng.random() < 0.3 else [])
    dispute_id = step(
        world.open_dispute, "alice", respondents, fee,
        t1=100, t2=200, min_judges=3, now=0,
    )
    path = rng.choices(
        ["default", "partial-default", "abort", "resolved", "unclaimed"],
        weights=[20, 10, 15, 40, 15],
    )[0]

    if path == "default":
        step(world.default_if_absent, dispute_id, now=100)
        return path, violations
    if path == "partial-default":
        step(world.join_dispute, dispute_id, respondents[0], fee, now=1)
        if len(respondents) > 1:
            step(world.default_if_absent, dispute_id, now=100)
        else:  # with one respondent the join completes the case instead
            step(world.submit_evidence, dispute_id, "alice", "claim", "story", now=2)
            step(world.close_phase1, dispute_id, now=200)  # nobody enrolled
            step(world.close_phase1, dispute_id, now=300)
        return path, violations

    for party in respondents:
        step(world.join_dispute, dispute_id, party, fee, now=1)
    if path == "abort":
        assert step(world.close_phase1, dispute_id, now=200) == "extended"
        assert step(world.close_phase1, dispute_id, now=300) == "aborted"
        return path, violations

    parties = ["alice"] + respondents
    for offset, judge in enumerate(("j0", "j1", "j2")):
        step(world.enroll_judge, dispute_id, judge, now=10 + offset)
    for offset, judge in enumerate(("j0", "j1", "j2")):
        step(
            world.phase1_vote, dispute_id, judge, rng.choice(parties),
            f"ruling by {judge}", now=150 + offset,
        )
    assert step(world.close_phase1, dispute_id, now=200) == "tallied"
    scores = step(world.start_phase2, dispute_id, now=210)
    for party in parties:
        budget = scores[party]
        if budget >= 1 and rng.random() < 0.7:
            step(world.phase2_vote, dispute_id, party, {rng.randrange(3): 1}, now=220)
    step(world.close_phase2, dispute_id, now=310)
    if path == "resolved":
        dispute = world.engine.disputes[dispute_id]
        winner_index = dispute.proposals[
            dispute.phase2_tally.winner
        ].author_registration_index
        judge = next(
            human for human, (index, _) in world.jurors[dispute_id].items()
            if index == winner_index
        )
        step(world.claim_fee, dispute_id, judge, f"wallet-{judge}")
        if world.engine.escrow.balance(dispute_id) != 0:
            violations += 1
    return path, violations


def test_escrow_conservation_over_random_lifecycles() -> None:
    """1000 random dispute lifecycles — defaults, aborts, resolutions,
    settlements — with the books rebalanced after every operation."""
    started = time.perf_counter()
    rng = random.Random(20260814)
    lifecycles = 1000
    paths: dict[str, int] = {}
    violations = 0
    for _ in range(lifecycles):
        path, bad = _random_lifecycle(rng.getrandbits(32), rng)
        paths[path] = paths.get(path, 0) + 1
        violations += bad
    elapsed = time.perf_counter() - started
    verdict_line(
        "escrow conservation",
        violations == 0,
        f"{lifecycles} lifecycles ({', '.join(f'{k} {v}' for k, v in sorted(paths.items()))}), "
        f"{violations} conservation violations; {elapsed:.1f}s",
    )


# ---- identity uniqueness, exhaustively ---------------------------------------------------


_BFS_HUMANS = ("h0", "h1", "h2")
_BFS_SCOPES = (17, 34)
_BFS_WINDOW = 5
_BFS_IDENTITIES = {
    human: Identity.generate(random.Random(f"model:{human}"))
    for human in _BFS_HUMANS
}


class _ModelState:
    """Mirror of the registry + group, small enough to enumerate."""

    def __init__(self) -> None:
        self.registry = PohRegistry(challenge_window=_BFS_WINDOW)
        self.registry.seed_approved("h0")
        self.group = SemaphoreGroup(self.registry, tree_depth=4)
        self.clock = 0
        self.status = {"h0": "approved", "h1": "absent", "h2": "absent"}
        self.matured = {human: False for human in _BFS_HUMANS}
        self.joined: set[str] = set()
        self.banned: set[str] = set()
        self.used: set[tuple[str, int]] = set()

    def signature(self) -> tuple:
        return tuple(
            (
                self.status[human],
                self.matured[human] and self.status[human] == "pending",
                human in self.joined,
                human in self.banned,
                tuple(sorted(s for h, s in self.used if h == human)),
            )
            for human in _BFS_HUMANS
        )

    def clone(self) -> "_ModelState":
        other = _ModelState.__new__(_ModelState)
        other.registry, other.group = copy.deepcopy((self.registry, self.group))
        other.clock = self.clock
        other.status = dict(self.status)
        other.matured = dict(self.matured)
        other.joined = set(self.joined)
        other.banned = set(self.banned)
        other.used = set(self.used)
        return other


def _bfs_edges(state: _ModelState):
    """(label, expected_ok, action) triples applicable in this state."""
    for human in ("h1", "h2"):
        expected = state.status[human] in ("absent", "rejected")
        yield (
            f"register {human}",
            expected,
            lambda s, h=human: s.registry.register(
                h, hash_bytes(h.encode()), "h0", s.clock
            ),
        )
        yield (
            f"challenge {human}",
            state.status[human] == "pending" and not state.matured[human],
            lambda s, h=human: s.registry.challenge(h, "duplicate face", s.clock),
        )
    yield ("advance", True, lambda s: None)
    yield ("finalize", True, lambda s: s.registry.finalize(s.clock))
    for human in _BFS_HUMANS:
        yield (
            f"join {human}",
            state.status[human] == "approved" and human not in state.joined,
            lambda s, h=human: s.group.join(h, _BFS_IDENTITIES[h].commitment),
        )
        if human in state.joined and human not in state.banned:
            yield (
                f"ban {human}",
                True,
                lambda s, h=human: s.group.remove(s.group.member_bindings[h]),
            )
        for scope in _BFS_SCOPES:
            member = human in state.joined and human not in state.banned
            yield (
                f"signal {human}/{scope}",
                member and (human, scope) not in state.used,
                lambda s, h=human, sc=scope: _emit_signal(s, h, sc),
            )


def _emit_signal(state: _ModelState, human: str, scope: int) -> None:
    signal = create_signal(_BFS_IDENTITIES[human], state.group, b"x", scope)
    verdict = state.group.verify_signal(signal)
    if not verdict.ok:
        raise ProtocolError(verdict.reason or "rejected")


def _apply_model(state: _ModelState, label: str) -> None:
    op, _, subject = label.partition(" ")
    if op == "register":
        state.status[subject] = "pending"
        state.matured[subject] = False
    elif op == "challenge":
        state.status[subject] = "challenged"
    elif op == "advance":
        state.clock += _BFS_WINDOW + 1
        for human in _BFS_HUMANS:
            if state.status[human] == "pending":
                state.matured[human] = True
    elif op == "finalize":
        for human in _BFS_HUMANS:
            if state.status[human] == "challenged":
                state.status[human] = "rejected"
            elif state.status[human] == "pending" and state.matured[human]:
                state.status[human] = "approved"
    elif op == "join":
        state.joined.add(subject)
    elif op == "ban":
        state.banned.add(subject)
    elif op == "signal":
        human, _, scope = subject.partition("/")
        state.used.add((human, int(scope)))


def test_identity_uniqueness_exhaustive_model() -> None:
    """Breadth-first over every reachable registry/group state for three
    humans and two signal scopes: no sequence of operations ever yields a
    second leaf for a bound human or a second accepted signal for one
    (identity, scope) pair — and everything the model says must succeed
    does."""
    started = time.perf_counter()
    initial = _ModelState()
    queue = [initial]
    seen = {initial.signature()}
    edges = 0
    violations: list[str] = []

    while queue:
        state = queue.pop()
        for label, expected_ok, action in _bfs_edges(state):
            edges += 1
            candidate = state.clone()
            try:
                action(candidate)
                succeeded = True
            except (ProtocolError, ValueError):
                succeeded = False
            if succeeded != expected_ok:
                violations.append(
                    f"{label}: engine {'accepted' if succeeded else 'refused'}, "
                    f"model says {'allowed' if expected_ok else 'forbidden'} "
                    f"in {state.signature()}"
                )
                continue
            if not succeeded:
                continue
            _apply_model(candidate, label)
            bindings = candidate.group.member_bindings
            if len(set(bindings.values())) != len(bindings):
                violations.append(f"two humans share a leaf after {label}")
            if len(candidate.group.seen_nullifier_hashes) != len(candidate.used):
                violations.append(f"nullifier count drifted after {label}")
            signature = candidate.signature()
            if signature not in seen:
                seen.add(signature)
                queue.append(candidate)

    elapsed = time.perf_counter() - started
    verdict_line(
        "identity uniqueness (exhaustive model)",
        not violations,
        f"{len(seen)} reachable states, {edges} transitions checked, "
        f"{len(violations)} violations; {elapsed:.1f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# ---- determinism -------------------------------------------------------------------------


def test_reference_scenario_is_byte_deterministic() -> None:
    """The bundled walk-through scenario, run twice with its own seed,
    must produce byte-identical reports."""
    text = (SCENARIOS / "happy_path.json").read_text()
    first = json.dumps(run_scenario(json.loads(text)), sort_keys=True, indent=2)
    second = json.dumps(run_scenario(json.loads(text)), sort_keys=True, indent=2)
    verdict_line(
        "deterministic reports",
        first == second and json.loads(first)["ok"],
        f"two same-seed runs -> identical {len(first)}-byte reports, verdicts all pass",
    )
