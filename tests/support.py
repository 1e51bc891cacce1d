"""Shared scaffolding: a court with approved jurors plus vote helpers."""
from __future__ import annotations

import hashlib
import random
import struct

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from disputekit.engine import DisputeConfig, DisputeEngine, Escrow, enrollment_scope
from disputekit.identity import Identity, PohRegistry, SemaphoreGroup, create_signal
from disputekit.maci import build_message
from disputekit.primitives import DecryptionKey, KeyPair, hash_bytes

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


# ---- ballot processing by an independent route ----------------------------
#
# Written from the wire format and the curve library up, sharing no code
# with disputekit's primitives, codec or replay: the coordinator's agreement
# scalar and the shared key are SHA-256 over 4-byte length-prefixed fields,
# a sealed ballot is (one-time point, nonce, payload, tag), and a command is
# key | options | amounts | memo | index | signature in u32-prefixed,
# big-endian int64 fields, whose key is the voter's 32-byte Ed25519 point.


def _digest(*fields: bytes) -> bytes:
    return hashlib.sha256(
        b"".join(struct.pack(">I", len(f)) + f for f in fields)
    ).digest()


def naive_open(coordinator_seed: bytes, ciphertext) -> bytes | None:
    """One X25519 exchange with the ballot's own point, one
    ChaCha20-Poly1305 open; None when either fails."""
    scalar = X25519PrivateKey.from_private_bytes(_digest(b"agree", coordinator_seed))
    try:
        shared = scalar.exchange(X25519PublicKey.from_public_bytes(ciphertext.ephemeral))
        return ChaCha20Poly1305(_digest(b"shared", shared)).decrypt(
            ciphertext.nonce, ciphertext.payload + ciphertext.tag, None
        )
    except (ValueError, InvalidTag):
        return None


def _naive_command(plaintext: bytes):
    """(key, options, amounts, memo, index, signed bytes, signature), or
    None when the plaintext is not exactly one well-formed command."""
    position = 0

    def take(count: int) -> bytes:
        nonlocal position
        if position + count > len(plaintext):
            raise ValueError("short")
        position += count
        return plaintext[position - count:position]

    def prefixed() -> bytes:
        return take(struct.unpack(">I", take(4))[0])

    def int64s() -> tuple[int, ...]:
        count = struct.unpack(">I", take(4))[0]
        return tuple(struct.unpack(">q", take(8))[0] for _ in range(count))

    try:
        key, options, amounts, memo = prefixed(), int64s(), int64s(), prefixed()
        index = struct.unpack(">q", take(8))[0]
        signed = b"ballot-command-v1" + plaintext[:position]
        signature = prefixed()
    except ValueError:
        return None
    if position != len(plaintext) or len(key) != 32:
        return None
    return key, options, amounts, memo, index, signed, signature


def _naive_verify(key: bytes, signed: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(signature, signed)
        return True
    except (InvalidSignature, ValueError):
        return False


def naive_replay(cost_rule: str, option_count: int, voters, plaintexts):
    """Replay opened ballots anew, in arrival order with every voter's state
    at hand. `voters` holds (key bytes, credits) in registration order; a
    `None` plaintext did not open; a command may name only the options
    0 .. option_count-1. Returns each message's (valid, reason), each
    voter's final (key bytes, vote) with vote = (options, amounts, memo,
    arrival) or None, in registration order, and the tally."""
    keys = [key for key, _ in voters]
    credits = [credit for _, credit in voters]
    votes: list = [None] * len(voters)
    verdicts = []
    for arrival, plaintext in enumerate(plaintexts):
        command = None if plaintext is None else _naive_command(plaintext)
        if plaintext is None:
            verdict = "AuthFailure"
        elif command is None:
            verdict = "DecodeError"
        else:
            key, options, amounts, memo, index, signed, signature = command
            if len(options) != len(amounts) or any(
                b <= a for a, b in zip(options, options[1:])
            ):
                verdict = "DecodeError"
            elif not 0 <= index < len(keys):
                verdict = "UnknownVoter"
            elif not _naive_verify(keys[index], signed, signature):
                verdict = "BadSignature"
            elif options and (options[0] < 0 or options[-1] >= option_count):
                verdict = "BadOption"  # options ascend, so the ends bound them
            elif cost_rule == "linear" and min(amounts, default=0) < 0:
                verdict = "BadAmount"
            elif sum(a * a if cost_rule == "quadratic" else a for a in amounts) > credits[index]:
                verdict = "OverBudget"
            else:
                verdict = None
                keys[index] = key
                votes[index] = (options, amounts, memo, arrival)
        verdicts.append((verdict is None, verdict))
    tally: dict[int, int] = {}
    for vote in votes:
        if vote is not None:
            for option, amount in zip(vote[0], vote[1]):
                tally[option] = tally.get(option, 0) + amount
    return verdicts, list(zip(keys, votes)), tally


def naive_process(
    coordinator_seed: bytes, cost_rule: str, option_count: int, voters, ciphertexts
):
    """Process a poll anew from its inputs: open each ballot, then
    `naive_replay`. Returns the plaintexts and what `naive_replay` does."""
    plaintexts = [naive_open(coordinator_seed, ct) for ct in ciphertexts]
    return (plaintexts, *naive_replay(cost_rule, option_count, voters, plaintexts))


def naming(case_id, mutate, *names):
    """A corruption that applies `mutate` and returns the words the error
    must contain (where the fault is, and what it is), as a test case named
    `case_id`."""
    return pytest.param(lambda script: (mutate(script), names)[1], id=case_id)


def schema_fault(case_id, mutate, *names):
    """A corruption the published schema rejects, naming `names`."""
    return naming(case_id, mutate, "fails the schema", *names)


def appended(step):
    """A mutation that adds `step` at the end of the timeline."""
    return lambda s: s["timeline"].append(step)


# Every structural fault of a scenario file: a corruption of
# `scenarios/happy_path.json` (29 steps) and the words its error must
# contain. The run harness checks each through `run_scenario`, the CLI
# tests through `disputekit run`. Each case's test id is written beside it,
# so inserting a case renames no other. The ids `<lambda>N` are the names
# these cases first ran under, by position, kept so that their results read
# across; a new case takes an id from its words.
STRUCTURAL_FAULTS = [
    schema_fault("<lambda>0", lambda s: s.pop("seed"), "'seed' is a required property"),
    schema_fault("<lambda>1", lambda s: s.__setitem__("seed", "7"), "seed: '7'"),
    schema_fault(
        "<lambda>2", lambda s: s.__setitem__("unknown_key", 1), "'unknown_key'"
    ),
    schema_fault(
        "<lambda>3",
        lambda s: s.__setitem__("config", {"bad_knob": 2}),
        "config: ",
        "'bad_knob'",
    ),
    schema_fault(
        "<lambda>4",
        appended({"op": "fly_to_moon", "t": 999}),
        "timeline[29].op: 'fly_to_moon'",
    ),
    schema_fault(
        "<lambda>5",
        appended({"op": "group_join", "t": 999, "human": "x", "extra": 1}),
        "timeline[29]: ",
        "'extra'",
    ),
    schema_fault(
        "<lambda>6",
        appended({"op": "close_phase1", "t": 999}),
        "timeline[29]: 'dispute' is a required property",
    ),
    schema_fault(
        "<lambda>7",
        lambda s: s["timeline"][0].update(expect="maybe"),
        "timeline[0].expect: 'maybe'",
    ),
    schema_fault(
        "<lambda>8",
        lambda s: s["config"].update(tree_depth=0),
        "config.tree_depth: 0",
    ),
    schema_fault(
        "<lambda>9",
        lambda s: s["config"].update(challenge_window=0),
        "config.challenge_window: 0",
    ),
    schema_fault(
        "<lambda>10",
        lambda s: s["config"]["genesis_humans"].append("judge0"),
        "config.genesis_humans: ",
        "non-unique",
    ),
    # Python's `$` alone would also match before this trailing newline
    schema_fault(
        "<lambda>11",
        lambda s: s["timeline"][0].update(expect="ok\n"),
        "timeline[0].expect: 'ok\\n'",
    ),
    schema_fault(
        "<lambda>12", lambda s: s.pop("timeline"), "'timeline' is a required property"
    ),
    schema_fault(
        "<lambda>13",
        appended({"op": "poh_finalize"}),
        "timeline[29]: 't' is a required property",
    ),
    schema_fault(
        "<lambda>14",
        appended({"op": "enroll_judge", "t": 999}),
        "timeline[29]: ",
        "is a required property",
    ),
    schema_fault(
        "<lambda>15",
        appended({"op": "poh_finalize", "t": 999, "expect": "error:"}),
        "timeline[29].expect: 'error:' does not match",
    ),
    schema_fault(
        "<lambda>16",
        appended({"op": "poh_finalize", "t": 999, "expect": "error:Bad Name"}),
        "timeline[29].expect: 'error:Bad Name' does not match",
    ),
    # 32 is Semaphore's MAX_DEPTH
    schema_fault(
        "<lambda>17",
        lambda s: s["config"].update(tree_depth=33),
        "config.tree_depth: 33 is greater than the maximum of 32",
    ),
    schema_fault(
        "<lambda>18",
        lambda s: s["timeline"][0].update(t=-1),
        "timeline[0].t: -1 is less than the minimum of 0",
    ),
    # the one structural rule the schema cannot state
    naming(
        "<lambda>19",
        lambda s: s["timeline"].insert(0, {"op": "poh_finalize", "t": 10**6}),
        "timeline[1].t: 0 follows 1000000",
        "non-decreasing",
    ),
    # an option has one spelling, so no two keys of one allocation name it;
    # Python's `$` alone would also match before the newline
    *[
        schema_fault(
            case_id,
            lambda s, key=key: s["timeline"][22]["allocations"].update({key: 5}),
            f"timeline[22].allocations: {key!r} does not match",
        )
        for case_id, key in (("<lambda>20", "00"), ("<lambda>21", "-0"),
                             ("<lambda>22", "0\n"))
    ],
    # both voting windows are the span t2 - t1, so neither is set
    *[
        schema_fault(
            case_id,
            lambda s, field=field: s["timeline"][5].update({field: 50}),
            "timeline[5]: ",
            f"'{field}' was unexpected",
        )
        for case_id, field in (("<lambda>23", "extension"),
                               ("<lambda>24", "phase2_window"))
    ],
    # the engine's single-field bounds: a quorum of at least one judge, t1 >= 1
    *[
        schema_fault(
            case_id,
            lambda s, field=field: s["timeline"][5].update({field: 0}),
            f"timeline[5].{field}: 0 is less than the minimum of 1",
        )
        for case_id, field in (("<lambda>25", "min_judges"), ("<lambda>26", "t1"))
    ],
    schema_fault(
        "genesis_humans-member-not-a-string",
        lambda s: s["config"]["genesis_humans"].insert(1, 3),
        "config.genesis_humans[1]: 3 is not of type 'string'",
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
        self.coordinator = DecryptionKey.generate(self.rng)
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
            ballot_key.public,
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
            coordinator_public=self.coordinator.public,
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
            coordinator_public=self.coordinator.public,
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
    deadline = dispute.phase2_poll.deadline
    if allocations is None:
        allocations = {"alice": {0: 1, 2: 1}, "bob": {1: 1}}
    for party, votes in allocations.items():
        court.phase2_vote(dispute.dispute_id, party, votes, now=deadline - 1)
    court.engine.close_phase2(dispute.dispute_id, now=deadline)
    return court, dispute
