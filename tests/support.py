"""Shared scaffolding: a court with approved jurors plus vote helpers."""
from __future__ import annotations

import random

from disputekit.engine import DisputeConfig, DisputeEngine, Escrow, enrollment_scope
from disputekit.identity import Identity, PohRegistry, SemaphoreGroup, create_signal
from disputekit.maci import build_message
from disputekit.primitives import KeyPair, hash_bytes, key_agree

CFG = DisputeConfig(t1=100, t2=200, min_judges=3)


def proposal_hash(tag: str) -> bytes:
    return hash_bytes(tag.encode())


def plant_double_booked_payouts(monkeypatch) -> None:
    """Ledger fault: every payout is written a second time, bypassing the
    escrow's write path, so the replay overdraws the dispute."""
    payout = Escrow.payout

    def double_booked(self, dispute_id, actor, amount):
        entry = payout(self, dispute_id, actor, amount)
        self.entries.append(entry)
        return entry

    monkeypatch.setattr(Escrow, "payout", double_booked)


def naming(mutate, *names):
    """A corruption that applies `mutate` and returns the words the error
    must contain: where the fault is, and what it is."""
    return lambda script: (mutate(script), names)[1]


def schema_fault(mutate, *names):
    """A corruption the published schema rejects, naming `names`."""
    return naming(mutate, "fails the schema", *names)


def appended(step):
    """A mutation that adds `step` at the end of the timeline."""
    return lambda s: s["timeline"].append(step)


# Every structural fault of a scenario file: a corruption of
# `scenarios/happy_path.json` (29 steps) and the words its error must
# contain. The run harness checks each through `run_scenario`, the CLI
# tests through `disputekit run`.
STRUCTURAL_FAULTS = [
    schema_fault(lambda s: s.pop("seed"), "'seed' is a required property"),
    schema_fault(lambda s: s.__setitem__("seed", "7"), "seed: '7'"),
    schema_fault(lambda s: s.__setitem__("unknown_key", 1), "'unknown_key'"),
    schema_fault(
        lambda s: s.__setitem__("config", {"bad_knob": 2}), "config: ", "'bad_knob'"
    ),
    schema_fault(
        appended({"op": "fly_to_moon", "t": 999}), "timeline[29].op: 'fly_to_moon'"
    ),
    schema_fault(
        appended({"op": "group_join", "t": 999, "human": "x", "extra": 1}),
        "timeline[29]: ",
        "'extra'",
    ),
    schema_fault(
        appended({"op": "close_phase1", "t": 999}),
        "timeline[29]: 'dispute' is a required property",
    ),
    schema_fault(
        lambda s: s["timeline"][0].update(expect="maybe"),
        "timeline[0].expect: 'maybe'",
    ),
    schema_fault(lambda s: s["config"].update(tree_depth=0), "config.tree_depth: 0"),
    schema_fault(
        lambda s: s["config"].update(challenge_window=0), "config.challenge_window: 0"
    ),
    schema_fault(
        lambda s: s["config"]["genesis_humans"].append("judge0"),
        "config.genesis_humans: ",
        "non-unique",
    ),
    # Python's `$` alone would also match before this trailing newline
    schema_fault(
        lambda s: s["timeline"][0].update(expect="ok\n"),
        "timeline[0].expect: 'ok\\n'",
    ),
    schema_fault(lambda s: s.pop("timeline"), "'timeline' is a required property"),
    schema_fault(
        appended({"op": "poh_finalize"}), "timeline[29]: 't' is a required property"
    ),
    schema_fault(
        appended({"op": "enroll_judge", "t": 999}),
        "timeline[29]: ",
        "is a required property",
    ),
    schema_fault(
        appended({"op": "poh_finalize", "t": 999, "expect": "error:"}),
        "timeline[29].expect: 'error:' does not match",
    ),
    schema_fault(
        appended({"op": "poh_finalize", "t": 999, "expect": "error:Bad Name"}),
        "timeline[29].expect: 'error:Bad Name' does not match",
    ),
    # 32 is Semaphore's MAX_DEPTH
    schema_fault(
        lambda s: s["config"].update(tree_depth=33),
        "config.tree_depth: 33 is greater than the maximum of 32",
    ),
    schema_fault(
        lambda s: s["timeline"][0].update(t=-1),
        "timeline[0].t: -1 is less than the minimum of 0",
    ),
    # the one structural rule the schema cannot state
    naming(
        lambda s: s["timeline"].insert(0, {"op": "poh_finalize", "t": 10**6}),
        "timeline[1].t: 0 follows 1000000",
        "non-decreasing",
    ),
]


class Court:
    """Registry + juror group + engine, with ergonomic vote helpers.

    Remembers which human sat behind every juror registration index and
    which ballot key they used — knowledge the engine itself never holds.
    """

    def __init__(self, seed: int = 11, judges: int = 5):
        self.rng = random.Random(seed)
        self.registry = PohRegistry(challenge_window=10)
        self.group = SemaphoreGroup(registry=self.registry, tree_depth=8)
        self.coordinator = KeyPair.generate(self.rng)
        self.events: list[tuple[str, dict]] = []
        self.engine = DisputeEngine(
            self.coordinator,
            self.group,
            rng=self.rng,
            observer=lambda kind, payload: self.events.append((kind, payload)),
        )
        self.judges: list[Identity] = []
        self.humans: dict[bytes, str] = {}  # identity commitment -> human id
        for i in range(judges):
            human = f"judge{i}"
            self.registry.seed_approved(human)
            identity = Identity.generate(self.rng)
            self.group.join(human, identity.commitment)
            self.judges.append(identity)
            self.humans[identity.commitment] = human
        self.party_keys: dict[str, KeyPair] = {}
        self.judge_by_index: dict[int, dict[int, str]] = {}
        self.ballot_keys: dict[tuple[int, int], KeyPair] = {}

    def open(self, *, fee=10, config=CFG, now=0, parties=("alice", "bob")):
        initiator, *rest = parties
        for party in parties:
            self.party_keys.setdefault(party, KeyPair.generate(self.rng))
        dispute = self.engine.open_dispute(
            initiator, rest, fee, config, self.party_keys[initiator].public, now
        )
        for party in rest:
            self.engine.join_dispute(
                dispute.dispute_id, party, fee, self.party_keys[party].public, now
            )
        return dispute

    def enroll(
        self, dispute_id: int, identity: Identity, *, now=10
    ) -> tuple[int, KeyPair]:
        ballot_key = KeyPair.generate(self.rng)
        signal = create_signal(
            identity,
            self.group,
            ballot_key.public.encode(),
            enrollment_scope(dispute_id),
        )
        index = self.engine.enroll_judge(dispute_id, signal, now)
        human = self.humans.get(identity.commitment)
        if human is not None:
            self.judge_by_index.setdefault(dispute_id, {})[index] = human
        self.ballot_keys[(dispute_id, index)] = ballot_key
        return index, ballot_key

    def phase1_vote(
        self, dispute_id, index, ballot_key, party_index, *, memo, now=150, amount=1
    ) -> int:
        ct = build_message(
            signer=ballot_key,
            shared_key=key_agree(ballot_key, self.coordinator.public),
            voter_registration_index=index,
            votes={party_index: amount},
            memo=memo,
            rng=self.rng,
        )
        return self.engine.submit_phase1_ballot(dispute_id, ct, now)

    def phase2_vote(self, dispute_id, party, votes, *, now) -> int:
        dispute = self.engine.disputes[dispute_id]
        pair = self.party_keys[party]
        ct = build_message(
            signer=pair,
            shared_key=key_agree(pair, self.coordinator.public),
            voter_registration_index=dispute.parties.index(party),
            votes=votes,
            rng=self.rng,
        )
        return self.engine.submit_phase2_ballot(dispute_id, ct, now)

    def run_phase1(self, dispute_id: int, choices, *, now=None):
        """choices: list of (party_index, memo) one per judge, in order."""
        dispute = self.engine.disputes[dispute_id]
        if now is None:
            now = dispute.config.t2
        enrolled = [
            self.enroll(dispute_id, identity)
            for identity, _ in zip(self.judges, choices)
        ]
        for (index, key), (party_index, memo) in zip(enrolled, choices):
            self.phase1_vote(dispute_id, index, key, party_index, memo=memo)
        outcome = self.engine.close_phase1(dispute_id, now)
        return outcome, enrolled


def resolved_court(*, choices=None, allocations=None, seed=11):
    """Drive one dispute all the way to RESOLVED; returns (court, dispute)."""
    court = Court(seed=seed)
    dispute = court.open()
    memos = [proposal_hash(f"p{i}") for i in range(3)]
    if choices is None:
        choices = [(0, memos[0]), (1, memos[1]), (0, memos[2])]
    court.run_phase1(dispute.dispute_id, choices)
    court.engine.start_phase2(dispute.dispute_id, now=210)
    deadline = dispute.phase2_deadline
    if allocations is None:
        allocations = {"alice": {0: 1, 2: 1}, "bob": {1: 1}}
    for party, votes in allocations.items():
        court.phase2_vote(dispute.dispute_id, party, votes, now=deadline - 1)
    court.engine.close_phase2(dispute.dispute_id, now=deadline)
    return court, dispute
