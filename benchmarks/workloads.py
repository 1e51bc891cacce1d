"""Seeded inputs for the four benchmark workloads, each with its own oracle.

The three `run` workloads are plain scenario scripts. Alongside each script
the generator writes an oracle: the status and result every step must
produce, and the final state the run's snapshot must show. The oracle is
derived here by bookkeeping on the plan itself (who voted what, who paid
what), never by calling `voting`, `engine` or `incentives`, so a defect in
those layers cannot hide by agreeing with itself.

The `audit` workload needs real transcripts, so it is built through the
`World` API during untimed generation; its oracle is the verdict each file
must get, fixed by how the file was (or was not) tampered with.

Every size has a default matching the benchmark's recorded workload; the
smoke test passes smaller ones.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any, Optional

WORKLOADS = ("jury", "docket", "registry", "audit")

# Protocol constants the oracle re-states: World's default thresholds and
# the default Phase-2 window (t2 - t1) and quorum extension.
BAN_BELOW = -10
TRUST_ABOVE = 25
CHALLENGE_WINDOW = 10

_NO_RESULT = object()


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Plan:
    """A scenario script under construction plus the outcome of each step,
    tracked by independent bookkeeping."""

    def __init__(self, genesis: list[str]):
        self.genesis = list(genesis)
        self.steps: list[dict[str, Any]] = []
        self.checks: list[dict[str, Any]] = []
        self.poh: dict[str, str] = {human: "Approved" for human in genesis}
        self.deadlines: dict[str, int] = {}
        self.bindings: dict[str, int] = {}
        self.removed: set[str] = set()
        self.nullifiers = 0
        self.disputes: list[dict[str, Any]] = []
        self.balances: dict[int, int] = {}
        self.net: dict[str, int] = {}
        self.reputation: dict[str, int] = {}
        self.sbts: list[tuple[str, str, int]] = []

    # -- plumbing ---------------------------------------------------------

    def _emit(self, op: str, t: int, result: Any = _NO_RESULT,
              error: Optional[str] = None, **fields: Any) -> Any:
        step = {"op": op, "t": t, **fields}
        if error is not None:
            step["expect"] = f"error:{error}"
            check: dict[str, Any] = {"status": "error", "error": error}
        else:
            check = {"status": "ok"}
            if result is not _NO_RESULT:
                check["result"] = result
        self.steps.append(step)
        self.checks.append(check)
        return result

    def _move(self, dispute: int, actor: str, amount: int) -> None:
        """Positive amount flows into escrow from the actor."""
        self.balances[dispute] += amount
        self.net[actor] = self.net.get(actor, 0) - amount

    def member(self, human: str) -> bool:
        return human in self.bindings and human not in self.removed

    # -- identity -----------------------------------------------------------

    def poh_register(self, human: str, voucher: str, t: int) -> None:
        assert self.poh.get(voucher) == "Approved" and human not in self.poh
        self.poh[human] = "Pending"
        self.deadlines[human] = t + CHALLENGE_WINDOW
        self._emit("poh_register", t, t + CHALLENGE_WINDOW,
                   human=human, voucher=voucher)

    def poh_challenge(self, human: str, reason: str, t: int) -> None:
        assert self.poh[human] == "Pending" and t < self.deadlines[human]
        self.poh[human] = "Challenged"
        self._emit("poh_challenge", t, "Challenged", human=human, reason=reason)

    def poh_finalize(self, t: int) -> None:
        changed = {}
        for human, status in self.poh.items():
            if status == "Challenged":
                changed[human] = "Rejected"
            elif status == "Pending" and t >= self.deadlines[human]:
                changed[human] = "Approved"
        self.poh.update(changed)
        self._emit("poh_finalize", t, changed)

    def group_join(self, human: str, t: int) -> None:
        if self.poh.get(human) != "Approved":
            self._emit("group_join", t, error="NotApproved", human=human)
            return
        leaf = len(self.bindings)
        self.bindings[human] = leaf
        self._emit("group_join", t, leaf, human=human)

    # -- disputes -------------------------------------------------------------

    def open_dispute(self, initiator: str, respondent: str, fee: int, t: int,
                     t1: int, t2: int, min_judges: int) -> int:
        dispute_id = len(self.disputes)
        self.disputes.append({
            "parties": [initiator, respondent], "fee": fee, "t1": t1, "t2": t2,
            "min_judges": min_judges, "state": "AwaitingJoin", "joined": [initiator],
            "evidence": [], "jurors": [], "messages": 0, "final": {},
            "extended": False, "phase1_scores": None, "proposals": [],
            "p2_messages": 0, "p2_final": {}, "credits": {}, "phase2_scores": None,
            "winner": None, "default_winner": None, "settled": False,
        })
        self.balances[dispute_id] = 0
        self._move(dispute_id, initiator, fee)
        return self._emit("open_dispute", t, dispute_id, initiator=initiator,
                          respondents=[respondent], fee=fee, t1=t1, t2=t2,
                          min_judges=min_judges)

    def join_dispute(self, dispute_id: int, party: str, t: int) -> None:
        dispute = self.disputes[dispute_id]
        self._move(dispute_id, party, dispute["fee"])
        dispute["joined"].append(party)
        dispute["state"] = "EvidenceOpen"
        self._emit("join_dispute", t, None, dispute=dispute_id, party=party,
                   fee=dispute["fee"])

    def submit_evidence(self, dispute_id: int, party: str, label: str,
                        text: str, t: int) -> None:
        self.disputes[dispute_id]["evidence"].append([party, _text_hash(text), label])
        self._emit("submit_evidence", t, _text_hash(text), dispute=dispute_id,
                   party=party, label=label, text=text)

    def _refund_joined(self, dispute_id: int) -> None:
        dispute = self.disputes[dispute_id]
        for party in dispute["parties"]:
            if party in dispute["joined"]:
                self._move(dispute_id, party, -dispute["fee"])

    def default_if_absent(self, dispute_id: int, t: int) -> None:
        dispute = self.disputes[dispute_id]
        self._refund_joined(dispute_id)
        dispute["state"] = "DefaultJudgment"
        dispute["default_winner"] = dispute["parties"][0]
        self._emit("default_if_absent", t, dispute["parties"][0], dispute=dispute_id)

    def enroll_judge(self, dispute_id: int, human: str, t: int) -> None:
        if not self.member(human):
            self._emit("enroll_judge", t, error="NotAMember", dispute=dispute_id,
                       judge=human)
            return
        jurors = self.disputes[dispute_id]["jurors"]
        jurors.append(human)
        self.nullifiers += 1
        self._emit("enroll_judge", t, len(jurors) - 1, dispute=dispute_id, judge=human)

    def phase1_vote(self, dispute_id: int, human: str, party: str, proposal: str,
                    t: int, rotate_key: bool = False) -> None:
        dispute = self.disputes[dispute_id]
        arrival = dispute["messages"]
        dispute["messages"] += 1
        dispute["final"][dispute["jurors"].index(human)] = (arrival, party, proposal)
        extra = {"rotate_key": True} if rotate_key else {}
        self._emit("phase1_vote", t, arrival, dispute=dispute_id, judge=human,
                   party=party, proposal=proposal, **extra)

    def close_phase1(self, dispute_id: int, t: int) -> None:
        dispute = self.disputes[dispute_id]
        if len(dispute["final"]) >= dispute["min_judges"]:
            dispute["state"] = "Phase1Tallied"
            scores = {party: 0 for party in dispute["parties"]}
            for _, party, _ in dispute["final"].values():
                scores[party] += 1
            dispute["phase1_scores"] = scores
            ordered = sorted(
                (arrival, author, text)
                for author, (arrival, _, text) in dispute["final"].items()
            )
            dispute["proposals"] = [
                [pid, _text_hash(text), author]
                for pid, (_, author, text) in enumerate(ordered)
            ]
            outcome = "tallied"
        elif not dispute["extended"]:
            dispute["extended"] = True
            outcome = "extended"
        else:
            self._refund_joined(dispute_id)
            dispute["state"] = "Aborted"
            outcome = "aborted"
        self._emit("close_phase1", t, outcome, dispute=dispute_id)

    def start_phase2(self, dispute_id: int, t: int) -> int:
        """Returns the Phase-2 deadline (default window: t2 - t1)."""
        dispute = self.disputes[dispute_id]
        dispute["state"] = "Phase2Voting"
        dispute["credits"] = dict(dispute["phase1_scores"])
        self._emit("start_phase2", t, dict(dispute["phase1_scores"]),
                   dispute=dispute_id)
        return t + dispute["t2"] - dispute["t1"]

    def phase2_vote(self, dispute_id: int, party: str, allocations: dict[int, int],
                    t: int) -> None:
        dispute = self.disputes[dispute_id]
        arrival = dispute["p2_messages"]
        dispute["p2_messages"] += 1
        known = len(dispute["proposals"])
        cost = sum(a * a for a in allocations.values())
        if cost <= dispute["credits"][party] and all(0 <= p < known for p in allocations):
            dispute["p2_final"][party] = dict(allocations)
        self._emit("phase2_vote", t, arrival, dispute=dispute_id, party=party,
                   allocations={str(p): a for p, a in allocations.items()})

    def close_phase2(self, dispute_id: int, t: int) -> None:
        dispute = self.disputes[dispute_id]
        scores = {pid: 0 for pid in range(len(dispute["proposals"]))}
        for allocation in dispute["p2_final"].values():
            for pid, amount in allocation.items():
                scores[pid] += amount
        best = max(scores.values())
        winner = min(pid for pid, score in scores.items() if score == best)
        dispute["phase2_scores"] = {str(pid): s for pid, s in scores.items()}
        dispute["winner"] = winner
        dispute["state"] = "Resolved"
        self._emit("close_phase2", t,
                   {"winner": winner, "scores": dispute["phase2_scores"]},
                   dispute=dispute_id)

    def claim_fee(self, dispute_id: int, wallet: str, t: int) -> None:
        dispute = self.disputes[dispute_id]
        pool = dispute["fee"] * len(dispute["parties"])
        self._move(dispute_id, wallet, -pool)
        dispute["settled"] = True
        author = dispute["jurors"][dispute["proposals"][dispute["winner"]][2]]
        self._emit("claim_fee", t, pool, dispute=dispute_id, judge=author, wallet=wallet)

    def apply_reputation(self, dispute_id: int, t: int) -> None:
        dispute = self.disputes[dispute_id]
        deltas: dict[str, int] = {}
        for pid, _, author in dispute["proposals"]:
            judge = dispute["jurors"][author]
            deltas[judge] = deltas.get(judge, 0) + int(dispute["phase2_scores"][str(pid)])
        for judge, delta in deltas.items():
            self.reputation[judge] = self.reputation.get(judge, 0) + delta
        self._emit("apply_reputation", t, deltas, dispute=dispute_id)

    def enforce_thresholds(self, t: int) -> None:
        banned = {s for k, s, _ in self.sbts if k == "JudgeBanned"}
        trusted = {s for k, s, _ in self.sbts if k == "JudgeTrusted"}
        actions = []
        for judge in sorted(self.reputation):
            score = self.reputation[judge]
            if score < BAN_BELOW and judge not in banned:
                if judge in self.bindings:
                    self.removed.add(judge)
                self.sbts.append(("JudgeBanned", judge, -1))
                actions.append(["ban", judge])
            elif score > TRUST_ABOVE and judge not in trusted and judge not in banned:
                self.sbts.append(("JudgeTrusted", judge, -1))
                actions.append(["trust", judge])
        self._emit("enforce_thresholds", t, actions)

    # -- outputs ---------------------------------------------------------------

    def script(self, seed: int) -> dict[str, Any]:
        return {
            "seed": seed,
            "config": {"genesis_humans": self.genesis, "tree_depth": 12,
                       "challenge_window": CHALLENGE_WINDOW},
            "timeline": self.steps,
        }

    def oracle(self) -> dict[str, Any]:
        disputes = {}
        for dispute_id, d in enumerate(self.disputes):
            disputes[str(dispute_id)] = {
                "state": d["state"], "parties": d["parties"], "fee": d["fee"],
                "evidence": d["evidence"], "phase1_scores": d["phase1_scores"],
                "proposals": d["proposals"], "phase2_scores": d["phase2_scores"],
                "winner": d["winner"], "default_winner": d["default_winner"],
                "settled": d["settled"],
            }
        return {
            "steps": self.checks,
            "snapshot": {
                "poh": self.poh,
                "group_bindings": self.bindings,
                "spent_nullifiers": self.nullifiers,
                "disputes": disputes,
                "escrow_balances": {str(d): b for d, b in self.balances.items()},
                "escrow_net": self.net,
                "reputation": self.reputation,
                "sbts": [list(item) for item in sorted(self.sbts)],
            },
        }


def _allocation(rng: random.Random, credits: int, proposals: int,
                picks: int, negative_share: float) -> dict[int, int]:
    """A random quadratic allocation that fits the budget."""
    budget = credits
    chosen = rng.sample(range(proposals), min(picks, proposals))
    allocation = {}
    for pid in chosen:
        top = math.isqrt(budget)
        if top == 0:
            break
        amount = rng.randint(1, top)
        budget -= amount * amount
        allocation[pid] = -amount if rng.random() < negative_share else amount
    return allocation


# ---- jury: one big dispute --------------------------------------------------


def jury(seed: int, jurors: int = 400) -> tuple[dict, dict]:
    """One dispute, every group member enrolled; a quarter rotate their
    ballot key and vote again, so M = 1.25 J phase-1 messages."""
    rng = random.Random(f"jury:{seed}")
    names = [f"juror{i:04d}" for i in range(jurors)]
    plan = Plan(names)
    for human in names:
        plan.group_join(human, 0)
    t1, t2 = 1000, 2000
    d = plan.open_dispute("alice", "bob", 10, 1, t1, t2, max(1, jurors // 4))
    plan.join_dispute(d, "bob", 2)
    plan.submit_evidence(d, "alice", "invoice", f"paid {rng.randint(10, 99)}", 3)
    plan.submit_evidence(d, "bob", "log", f"shipped on day {rng.randint(1, 30)}", 4)
    for human in names:
        plan.enroll_judge(d, human, 10)
    lean = rng.uniform(0.35, 0.65)
    rotators = sorted(rng.sample(range(jurors), jurors // 4))

    def choice() -> str:
        return "alice" if rng.random() < lean else "bob"

    t = t1
    rotating = set(rotators)
    for i, human in enumerate(names):
        plan.phase1_vote(d, human, choice(), f"ruling {i}.{rng.randrange(10**6)}",
                         t, rotate_key=i in rotating)
        t += 1
    for i in rotators:
        plan.phase1_vote(d, names[i], choice(), f"revised {i}.{rng.randrange(10**6)}", t)
        t += 1
    plan.close_phase1(d, t2)
    deadline = plan.start_phase2(d, t2 + 1)
    proposals = len(plan.disputes[d]["proposals"])
    for offset, party in enumerate(("alice", "bob")):
        credits = plan.disputes[d]["credits"][party]
        plan.phase2_vote(d, party, _allocation(rng, credits, proposals, 6, 0.3),
                         t2 + 2 + offset)
    plan.close_phase2(d, deadline)
    plan.claim_fee(d, "wallet-jury", deadline + 1)
    plan.apply_reputation(d, deadline + 1)
    plan.enforce_thresholds(deadline + 1)
    return plan.script(rng.randrange(2**31)), plan.oracle()


# ---- docket: many small disputes --------------------------------------------


def docket(seed: int, disputes: int = 300, pool: int = 24, parties: int = 40,
           panel: int = 3) -> tuple[dict, dict]:
    """Many two-party disputes from a small juror pool: ~10% default (the
    respondent never joins), ~10% miss quorum (extended, then aborted), the
    rest resolve, pay out and apply reputation."""
    rng = random.Random(f"docket:{seed}")
    names = [f"juror{i:02d}" for i in range(pool)]
    party_names = [f"party{i:02d}" for i in range(parties)]
    plan = Plan(names)
    for human in names:
        plan.group_join(human, 0)
    tenth = max(1, round(disputes * 0.1))
    kinds = ["default"] * tenth + ["short"] * tenth
    kinds += ["resolve"] * (disputes - len(kinds))
    rng.shuffle(kinds)
    for k, kind in enumerate(kinds):
        base = 1000 * (k + 1)
        t1, t2 = base + 100, base + 200
        initiator, respondent = rng.sample(party_names, 2)
        d = plan.open_dispute(initiator, respondent, rng.randint(1, 50), base,
                              t1, t2, panel)
        if kind == "default":
            plan.default_if_absent(d, t1)
            continue
        plan.join_dispute(d, respondent, base + 1)
        jurors = rng.sample(names, panel if kind == "resolve" else panel - 1)
        for i, human in enumerate(jurors):
            plan.enroll_judge(d, human, base + 10 + i)
        for i, human in enumerate(jurors):
            party = rng.choice((initiator, respondent))
            plan.phase1_vote(d, human, party, f"case {k} ruling {i}", t1 + i)
        if kind == "short":
            plan.close_phase1(d, t2)
            plan.close_phase1(d, t2 + (t2 - t1))
            continue
        plan.close_phase1(d, t2)
        deadline = plan.start_phase2(d, t2)
        for offset, party in enumerate((initiator, respondent)):
            credits = plan.disputes[d]["credits"][party]
            if credits:
                plan.phase2_vote(d, party, _allocation(rng, credits, panel, 1, 0.2),
                                 t2 + 1 + offset)
        plan.close_phase2(d, deadline)
        plan.claim_fee(d, f"wallet-{k}", deadline)
        plan.apply_reputation(d, deadline)
    plan.enforce_thresholds(1000 * (disputes + 1))
    return plan.script(rng.randrange(2**31)), plan.oracle()


# ---- registry: a growing personhood registry -------------------------------


def registry(seed: int, humans: int = 1500, batch: int = 50, genesis: int = 20,
             targets: int = 3, panel: int = 5) -> tuple[dict, dict]:
    """Humans vouched in batches, ~5% challenged and rejected; approved ones
    join in batches interleaved with enrollments into one five-juror dispute
    per batch. A few target jurors collect negative runoff votes across four
    disputes, are banned by `enforce_thresholds`, and then fail to enroll."""
    rng = random.Random(f"registry:{seed}")
    founders = [f"founder{i:02d}" for i in range(genesis)]
    plan = Plan(founders)
    for human in founders:
        plan.group_join(human, 0)
    blocks = humans // batch
    challenged = set(rng.sample(range(humans), round(humans * 0.05)))
    party_names = [f"party{i:02d}" for i in range(20)]
    # target k is voted down in blocks start..start+3 and retries twice after
    starts = [2 + 8 * k for k in range(targets)]
    assert not starts or starts[-1] + 5 < blocks, "too few blocks for the targets"
    target_of: dict[int, int] = {}
    for k, start in enumerate(starts):
        for b in range(start, start + 4):
            target_of[b] = k
    retry_of = {start + r: k for k, start in enumerate(starts) for r in (4, 5)}
    target_names = rng.sample(founders, targets)
    approved = list(founders)

    base = 1
    for b in range(blocks):
        members = [h for h in approved if plan.member(h) and h not in target_names]
        cohort = [f"human{b * batch + i:05d}" for i in range(batch)]
        for human in cohort:
            plan.poh_register(human, rng.choice(approved), base)
        for i, human in enumerate(cohort):
            if b * batch + i in challenged:
                plan.poh_challenge(human, "duplicate face", base + 1)
        plan.poh_finalize(base + CHALLENGE_WINDOW)
        approved += [h for h in cohort if plan.poh[h] == "Approved"]

        t1, t2 = base + 100, base + 200
        initiator, respondent = rng.sample(party_names, 2)
        d = plan.open_dispute(initiator, respondent, rng.randint(1, 50),
                              base + 11, t1, t2, 3)
        plan.join_dispute(d, respondent, base + 11)
        # each enrollment's membership proof follows a fresh tree write
        target = target_of.get(b)
        queue = [target_names[target]] if target is not None else []
        panel_members: list[str] = []
        every = max(1, batch // panel)
        t = base + 12
        for i, human in enumerate(cohort):
            plan.group_join(human, t)
            if (i + 1) % every == 0 and len(panel_members) < panel:
                pick = queue.pop() if queue else rng.choice(
                    [h for h in members if h not in panel_members])
                plan.enroll_judge(d, pick, t)
                panel_members.append(pick)
            t += 1
        if b in retry_of:
            plan.enroll_judge(d, target_names[retry_of[b]], t)
        # target disputes: 4 votes for the initiator, 1 for the respondent,
        # so the parties hold 4 and 1 credits for the -2 / -1 runoff votes
        for i, human in enumerate(panel_members):
            if target is not None:
                party = respondent if i == panel - 1 else initiator
            else:
                party = rng.choice((initiator, respondent))
            plan.phase1_vote(d, human, party, f"block {b} ruling {i}", t1 + i)
        plan.close_phase1(d, t2)
        deadline = plan.start_phase2(d, t2)
        proposals = plan.disputes[d]["proposals"]
        if target is not None:
            author = plan.disputes[d]["jurors"].index(target_names[target])
            pid = next(p for p, _, a in proposals if a == author)
            plan.phase2_vote(d, initiator, {pid: -2}, t2 + 1)
            plan.phase2_vote(d, respondent, {pid: -1}, t2 + 2)
        else:
            for offset, party in enumerate((initiator, respondent)):
                credits = plan.disputes[d]["credits"][party]
                if credits:
                    plan.phase2_vote(d, party,
                                     _allocation(rng, credits, len(proposals), 2, 0.3),
                                     t2 + 1 + offset)
        plan.close_phase2(d, deadline)
        plan.claim_fee(d, f"wallet-{b}", deadline)
        plan.apply_reputation(d, deadline)
        plan.enforce_thresholds(deadline)
        base = deadline + 1
    assert all(name in plan.removed for name in target_names), "a target escaped its ban"
    return plan.script(rng.randrange(2**31)), plan.oracle()


# ---- audit: published transcripts, genuine and tampered -------------------

AUDIT_REASONS = {
    "flip": "ReplayMismatch",
    "tally": "TallyMismatch",
    "salt": "CommitmentMismatch",
    "digest": "MessageSetMismatch",
}


def _flip_hex(text: str, rng: random.Random) -> str:
    position = rng.randrange(len(text))
    replacement = "0" if text[position] != "0" else "1"
    return text[:position] + replacement + text[position + 1:]


def audit(seed: int, jurors: int = 800, messages: int = 1000) -> tuple[dict, dict]:
    """Phase-1 and Phase-2 transcripts of one large poll, plus one tampered
    copy of the Phase-1 transcript per tampering kind. Returns a map of file
    name -> JSON document and the oracle (expected verdict per file)."""
    from disputekit.cli import commitment_to_jsonable, transcript_to_jsonable
    from disputekit.maci import message_set_digest
    from disputekit.scenario import World

    rng = random.Random(f"audit:{seed}")
    names = [f"juror{i:04d}" for i in range(jurors)]
    world = World(rng.randrange(2**31), genesis_humans=names, tree_depth=12)
    for human in names:
        world.group_join(human)
    t1, t2 = 1000, 3000
    d = world.open_dispute("alice", ["bob"], 10, t1=t1, t2=t2, min_judges=1, now=1)
    world.join_dispute(d, "bob", 10, now=2)
    for human in names:
        world.enroll_judge(d, human, now=10)
    rotators = rng.sample(range(jurors), min(jurors, messages - jurors))
    t = t1
    rotating = set(rotators)
    for i, human in enumerate(names):
        world.phase1_vote(d, human, rng.choice(("alice", "bob")), f"ruling {i}", t,
                          rotate_key=i in rotating)
        t += 1
    for i in rotators:
        world.phase1_vote(d, names[i], rng.choice(("alice", "bob")), f"revised {i}", t)
        t += 1
    assert world.close_phase1(d, t2) == "tallied"
    credits = world.start_phase2(d, t2)
    dispute = world.engine.disputes[d]
    for offset, party in enumerate(("alice", "bob")):
        world.phase2_vote(d, party,
                          _allocation(rng, credits[party], len(dispute.proposals), 6, 0.3),
                          t2 + 1 + offset)
    world.close_phase2(d, t2 + (t2 - t1))

    files: dict[str, Any] = {}
    expected: dict[str, str] = {}
    for phase, poll in (("phase1", dispute.phase1_poll), ("phase2", dispute.phase2_poll)):
        files[f"{phase}.transcript.json"] = transcript_to_jsonable(poll.audit_transcript())
        files[f"{phase}.commitment.json"] = commitment_to_jsonable(
            message_set_digest([m.ciphertext for m in poll.messages]), poll.commitment
        )
        expected[phase] = "accepted"

    genuine = files["phase1.transcript.json"]
    for kind, reason in AUDIT_REASONS.items():
        doc = json.loads(json.dumps(genuine))
        entries = doc["entries"]
        if kind == "flip":
            near_end = [e for e in entries[-len(entries) // 10:] if e["valid"]]
            victim = rng.choice(near_end)
            victim["valid"] = False
        elif kind == "tally":
            option = rng.choice(sorted(doc["tally"]))
            doc["tally"][option] += 1
        elif kind == "salt":
            doc["salt"] = _flip_hex(doc["salt"], rng)
        else:
            victim = rng.choice(entries)
            victim["ciphertext_digest"] = _flip_hex(victim["ciphertext_digest"], rng)
        files[f"{kind}.transcript.json"] = doc
        expected[kind] = f"rejected: {reason}"
    batch = [
        {"name": name, "transcript": f"{name}.transcript.json",
         "commitment": f"{'phase2' if name == 'phase2' else 'phase1'}.commitment.json",
         "verdict": verdict}
        for name, verdict in expected.items()
    ]
    return files, {"batch": batch}


# ---- writing inputs and checking outputs ------------------------------------

GENERATORS = {"jury": jury, "docket": docket, "registry": registry}


def generate(workload: str, seed: int, directory: Path, **sizes: Any) -> dict:
    """Write the workload's inputs under `directory`; return its oracle."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "audit":
        files, oracle = audit(seed, **sizes)
    else:
        script, oracle = GENERATORS[workload](seed, **sizes)
        files = {"scenario.json": script}
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc))
    (directory / "oracle.json").write_text(json.dumps(oracle))
    return oracle


def check_run_report(report: dict, oracle: dict) -> tuple[int, int]:
    """Compare a `disputekit run` report with the oracle. Returns
    (attempted, failed): one item per step plus one for the final state."""
    checks = oracle["steps"]
    steps = report.get("steps", [])
    failed = abs(len(steps) - len(checks))
    for step, check in zip(steps, checks):
        if not step.get("pass") or step.get("status") != check["status"]:
            failed += 1
        elif check["status"] == "error":
            failed += step.get("error") != check["error"]
        elif "result" in check:
            failed += step.get("result") != check["result"]
    snapshot = report.get("snapshot", {})
    final_ok = report.get("ok") is True and all(
        snapshot.get(key) == value for key, value in oracle["snapshot"].items()
    )
    return len(checks) + 1, failed + (not final_ok)
