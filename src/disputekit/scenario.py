"""Deterministic simulation world plus a scripted scenario runner.

Two audiences share this module. The `World` is the programmatic surface:
one personhood registry, one juror group, one coordinator, one escrow, and
any number of disputes, all drawing randomness from a single seeded
generator so a run can be replayed bit-for-bit. The scenario runner drives
a `World` from a plain-dict script (usually parsed from JSON) and produces
a JSON-able report. The published scenario schema, `SCENARIO_SCHEMA`, is
built here from the runner's own operation table, and the runner applies
it to every script, whoever calls it. The schema is compiled at import into
a check that needs no `jsonschema`; that library is imported only when the
check refuses a script, to judge the script and word the refusal.

Everything a chain observer could see goes through the `AdversaryView`:
an append-only log of schema-checked public events. Ballot plaintexts,
identity secrets, and pre-publication tallies never appear there — tests
and attack probes read the view to confirm exactly that.
"""
from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional, Sequence

from .engine import DisputeConfig, DisputeEngine, enrollment_scope
from .errors import MalformedScript, ProtocolError
from .identity import Identity, PohRegistry, SemaphoreGroup, create_signal
from .incentives import (
    ReputationLedger,
    SbtRegistry,
    apply_phase2_scores,
    distribute_fee,
    enforce_thresholds,
    issue_party_sbt,
    sign_claim,
)
from .maci import build_message
from .primitives import DecryptionKey, KeyPair, hash_bytes

if TYPE_CHECKING:
    import jsonschema

# ---- the public record ---------------------------------------------------------

# Field layout of every event kind an observer can ever see. Appends are
# checked against this table so nothing secret can leak in by accident.
EVENT_SCHEMAS: dict[str, dict[str, type]] = {
    "poh_status": {"human": str, "status": str},
    "group_join": {"human": str, "leaf_index": int, "commitment": bytes, "root": bytes},
    "group_remove": {"leaf_index": int, "root": bytes},
    "dispute_state": {"dispute_id": int, "old": str, "new": str, "time": int},
    "escrow": {"dispute_id": int, "kind": str, "actor": str, "amount": int},
    "evidence": {"dispute_id": int, "party": str, "content_hash": bytes, "label": str},
    "judge_enrolled": {
        "dispute_id": int,
        "registration_index": int,
        "nullifier_hash": bytes,
        "root": bytes,
    },
    "ballot": {
        "dispute_id": int,
        "poll_id": int,
        "arrival_index": int,
        "ciphertext": bytes,
    },
    "deadline_extended": {"dispute_id": int, "new_deadline": int},
    "tally_commitment": {"dispute_id": int, "poll_id": int, "digest": bytes},
    "tally_published": {
        "dispute_id": int,
        "poll_id": int,
        "tally": dict,
        "salt": bytes,
    },
}


@dataclass(frozen=True)
class PublicEvent:  # event i is AdversaryView.events[i]
    kind: str
    payload: Mapping[str, Any]


class AdversaryView:
    """Append-only log of everything on the public record."""

    def __init__(self) -> None:
        self.events: list[PublicEvent] = []

    def append(self, kind: str, payload: Mapping[str, Any]) -> None:
        schema = EVENT_SCHEMAS.get(kind)
        if schema is None:
            raise ValueError(f"unknown public event kind {kind!r}")
        if set(payload) != set(schema):
            raise ValueError(
                f"{kind} payload fields {sorted(payload)} != {sorted(schema)}"
            )
        for name, expected in schema.items():
            value = payload[name]
            if expected is dict:
                if not isinstance(value, dict) or not all(
                    isinstance(k, int) and isinstance(v, int)
                    for k, v in value.items()
                ):
                    raise ValueError(f"{kind}.{name} must be an int->int map")
            elif not isinstance(value, expected) or isinstance(value, bool):
                raise ValueError(
                    f"{kind}.{name} must be {expected.__name__}, "
                    f"got {type(value).__name__}"
                )
        self.events.append(PublicEvent(kind, dict(payload)))

    def of_kind(self, kind: str) -> list[PublicEvent]:
        return [event for event in self.events if event.kind == kind]

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    def as_jsonable(self) -> list[list[Any]]:
        return [
            [seq, event.kind, jsonable(event.payload)]
            for seq, event in enumerate(self.events)
        ]


def jsonable(value: Any) -> Any:
    """`value` as JSON writes it: bytes as hex, map keys as strings, tuples
    as lists."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


# ---- the world -------------------------------------------------------------------


class World:
    """Everything one simulation run touches, seeded once.

    Honest actors draw from `rng`; adversarial probes draw from
    `adversary_rng` so a blocked attack cannot shift the honest sequence
    of keys, nonces, and salts.
    """

    def __init__(
        self,
        seed: int,
        *,
        genesis_humans: Sequence[str] = (),
        challenge_window: int = 10,
        tree_depth: int = 12,
    ):
        self.seed = seed
        self.rng = random.Random(seed)
        self.adversary_rng = random.Random(f"{seed}:adversary")
        self.view = AdversaryView()
        self.registry = PohRegistry(challenge_window=challenge_window)
        self.group = SemaphoreGroup(self.registry, tree_depth=tree_depth)
        self.coordinator = DecryptionKey.generate(self.rng)
        self.engine = DisputeEngine(
            self.coordinator, self.group, rng=self.rng, observer=self.view.append
        )
        self.reputation = ReputationLedger()
        self.sbts = SbtRegistry()
        self.identities: dict[str, Identity] = {}
        self.party_keys: dict[str, KeyPair] = {}
        # per (dispute, judge): the ballot key, replaced when a vote rotates it
        self.signer_keys: dict[tuple[int, str], KeyPair] = {}
        # per dispute: each enrolled juror's voter index in the Phase-1 poll
        self.jurors: dict[int, dict[str, int]] = {}
        for human in genesis_humans:
            self.registry.seed_approved(human)
            self.view.append("poh_status", {"human": human, "status": "Approved"})

    # -- identity layer ---------------------------------------------------

    def poh_register(self, human: str, voucher: str, now: int) -> int:
        record = self.registry.register(
            human, hash_bytes(f"video:{human}".encode()), voucher, now
        )
        self.view.append("poh_status", {"human": human, "status": record.status.value})
        return record.challenge_deadline

    def poh_challenge(self, human: str, reason: str, now: int) -> str:
        record = self.registry.challenge(human, reason, now)
        self.view.append("poh_status", {"human": human, "status": record.status.value})
        return record.status.value

    def poh_finalize(self, now: int) -> dict[str, str]:
        changed = self.registry.finalize(now)
        for record in changed:
            self.view.append(
                "poh_status",
                {"human": record.human_id, "status": record.status.value},
            )
        return {record.human_id: record.status.value for record in changed}

    def group_join(self, human: str) -> int:
        identity = Identity.generate(self.rng)
        leaf = self.group.join(human, identity.commitment)
        self.identities[human] = identity
        self.view.append(
            "group_join",
            {
                "human": human,
                "leaf_index": leaf,
                "commitment": identity.commitment,
                "root": self.group.root,
            },
        )
        return leaf

    # -- dispute lifecycle -------------------------------------------------

    def _party_key(self, party: str) -> KeyPair:
        pair = self.party_keys.get(party)
        if pair is None:
            pair = KeyPair.generate(self.rng)
            self.party_keys[party] = pair
        return pair

    def open_dispute(
        self,
        initiator: str,
        respondents: Sequence[str],
        fee: int,
        *,
        t1: int,
        t2: int,
        min_judges: int,
        now: int,
    ) -> int:
        config = DisputeConfig(t1=t1, t2=t2, min_judges=min_judges)
        dispute = self.engine.open_dispute(
            initiator,
            list(respondents),
            fee,
            config,
            self._party_key(initiator).public,
            now,
        )
        return dispute.dispute_id

    def join_dispute(self, dispute_id: int, party: str, fee: int, now: int) -> None:
        self.engine.join_dispute(
            dispute_id, party, fee, self._party_key(party).public, now
        )

    def submit_evidence(
        self, dispute_id: int, party: str, label: str, text: str, now: int
    ) -> str:
        ref = self.engine.submit_evidence(
            dispute_id, party, hash_bytes(text.encode()), label, now
        )
        return ref.content_hash.hex()

    def default_if_absent(self, dispute_id: int, now: int) -> str:
        return self.engine.default_if_absent(dispute_id, now)

    # -- judging -----------------------------------------------------------

    def enroll_judge(self, dispute_id: int, human: str, now: int) -> int:
        identity = self.identities[human]
        ballot_key = KeyPair.generate(self.rng)
        signal = create_signal(
            identity,
            self.group,
            ballot_key.public,
            enrollment_scope(dispute_id),
        )
        index = self.engine.enroll_judge(dispute_id, signal, now)
        self.signer_keys[(dispute_id, human)] = ballot_key
        self.jurors.setdefault(dispute_id, {})[human] = index
        return index

    def phase1_vote(
        self,
        dispute_id: int,
        human: str,
        party: str,
        proposal_text: str,
        now: int,
        *,
        rotate_key: bool = False,
    ) -> int:
        dispute = self.engine.disputes[dispute_id]
        option = dispute.parties.index(party)
        signer = self.signer_keys[(dispute_id, human)]
        fresh = KeyPair.generate(self.rng) if rotate_key else None
        ciphertext = build_message(
            signer=signer,
            coordinator_public=self.coordinator.public,
            voter_registration_index=self.jurors[dispute_id][human],
            votes={option: 1},
            new_public_key=fresh.public if fresh else None,
            memo=hash_bytes(proposal_text.encode()),
            rng=self.rng,
        )
        index = self.engine.submit_phase1_ballot(dispute_id, ciphertext, now)
        if fresh is not None:
            self.signer_keys[(dispute_id, human)] = fresh
        return index

    def close_phase1(self, dispute_id: int, now: int) -> str:
        return self.engine.close_phase1(dispute_id, now)

    def start_phase2(self, dispute_id: int, now: int) -> dict[str, int]:
        self.engine.start_phase2(dispute_id, now)
        dispute = self.engine.disputes[dispute_id]
        assert dispute.phase1_scores is not None
        return dict(dispute.phase1_scores)

    def phase2_vote(
        self,
        dispute_id: int,
        party: str,
        allocations: Mapping[Any, int],
        now: int,
    ) -> int:
        dispute = self.engine.disputes[dispute_id]
        pair = self._party_key(party)
        ciphertext = build_message(
            signer=pair,
            coordinator_public=self.coordinator.public,
            voter_registration_index=dispute.parties.index(party),
            votes={int(option): int(amount) for option, amount in allocations.items()},
            rng=self.rng,
        )
        return self.engine.submit_phase2_ballot(dispute_id, ciphertext, now)

    def close_phase2(self, dispute_id: int, now: int) -> dict[str, Any]:
        tally = self.engine.close_phase2(dispute_id, now)
        return {
            "winner": tally.winner,
            "scores": {str(k): v for k, v in tally.proposal_scores.items()},
        }

    # -- aftermath -----------------------------------------------------------

    def claim_fee(self, dispute_id: int, human: str, wallet: str) -> int:
        signer = self.signer_keys[(dispute_id, human)]
        signature = sign_claim(signer, dispute_id, wallet)
        entry = distribute_fee(self.engine, dispute_id, wallet, signature)
        return entry.amount

    def apply_reputation(self, dispute_id: int) -> dict[str, int]:
        dispute = self.engine.disputes[dispute_id]
        by_index = {i: human for human, i in self.jurors.get(dispute_id, {}).items()}
        return apply_phase2_scores(self.reputation, dispute, by_index)

    def enforce_thresholds(self) -> list[tuple[str, str]]:
        return enforce_thresholds(
            self.reputation, self.sbts, self.group, self.view.append
        )

    def issue_party_sbt(
        self, dispute_id: int, party: str, *, complied: bool, deadline_passed: bool
    ) -> str:
        dispute = self.engine.disputes[dispute_id]
        token = issue_party_sbt(
            self.sbts,
            dispute,
            party,
            complied=complied,
            deadline_passed=deadline_passed,
        )
        return token.kind

    # -- state summary ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Semantic state only: what the run *decided*, not how it got
        there. Two runs that agree here agree on every verdict, balance,
        and status, regardless of message traffic."""
        disputes: dict[str, Any] = {}
        for dispute in self.engine.disputes.values():
            disputes[str(dispute.dispute_id)] = {
                "state": dispute.state.value,
                "parties": list(dispute.parties),
                "fee": dispute.fee,
                "evidence": [
                    [ref.party, ref.content_hash.hex(), ref.label]
                    for ref in dispute.evidence
                ],
                "phase1_scores": (
                    None if dispute.phase1_scores is None else dict(dispute.phase1_scores)
                ),
                "proposals": [
                    [k, p.text_hash.hex(), p.author_registration_index]
                    for k, p in enumerate(dispute.proposals)
                ],
                "phase2_scores": (
                    {str(k): v for k, v in dispute.phase2_tally.proposal_scores.items()}
                    if dispute.phase2_tally
                    else None
                ),
                "winner": (
                    dispute.phase2_tally.winner if dispute.phase2_tally else None
                ),
                "default_winner": dispute.default_winner,
                "settled": dispute.settled,
            }
        escrow = self.engine.escrow
        actors = sorted({entry.actor for entry in escrow.entries})
        return {
            "poh": {
                human: record.status.value
                for human, record in self.registry.records.items()
            },
            "group_root": self.group.root.hex(),
            "group_bindings": dict(self.group.member_bindings),
            "spent_nullifiers": len(self.group.seen_nullifier_hashes),
            "disputes": disputes,
            "escrow_balances": {
                str(d): escrow.balance(d) for d in self.engine.disputes
            },
            "escrow_net": {
                actor: escrow.net_position(actor) for actor in actors
            },
            "reputation": dict(self.reputation.scores),
            "sbts": [
                list(item)
                for item in sorted(
                    (t.kind, t.subject, -1 if t.dispute_id is None else t.dispute_id)
                    for t in self.sbts.tokens
                )
            ],
        }


# ---- scripted scenarios ---------------------------------------------------------

# op name (also the World method it calls) -> (required fields, optional fields)
_OPS: dict[str, tuple[set[str], set[str]]] = {
    "poh_register": ({"human", "voucher"}, set()),
    "poh_challenge": ({"human", "reason"}, set()),
    "poh_finalize": (set(), set()),
    "group_join": ({"human"}, set()),
    "open_dispute": (
        {"initiator", "respondents", "fee", "t1", "t2", "min_judges"}, set()
    ),
    "join_dispute": ({"dispute", "party", "fee"}, set()),
    "submit_evidence": ({"dispute", "party", "label", "text"}, set()),
    "default_if_absent": ({"dispute"}, set()),
    "enroll_judge": ({"dispute", "judge"}, set()),
    "phase1_vote": ({"dispute", "judge", "party", "proposal"}, {"rotate_key"}),
    "close_phase1": ({"dispute"}, set()),
    "start_phase2": ({"dispute"}, set()),
    "phase2_vote": ({"dispute", "party", "allocations"}, set()),
    "close_phase2": ({"dispute"}, set()),
    "claim_fee": ({"dispute", "judge", "wallet"}, set()),
    "apply_reputation": ({"dispute"}, set()),
    "enforce_thresholds": (set(), set()),
    "issue_party_sbt": ({"dispute", "party", "complied", "deadline_passed"}, set()),
}

# ops whose world method takes no `now`
_TIMELESS = {
    "group_join",
    "claim_fee",
    "apply_reputation",
    "enforce_thresholds",
    "issue_party_sbt",
}

_STEP_META = {"op", "t", "expect", "expect_result"}

# What a step may expect: success, or a rejection naming its error class.
# `(?!\n)` keeps Python's `re.search`, which jsonschema's `pattern` uses and
# whose `$` also matches before a final newline, to the ECMA-262 meaning of
# the published schema.
EXPECT_PATTERN = r"^(ok|error:[A-Za-z]+)(?!\n)$"

# script field names -> world method parameter names
_RENAMES = {"dispute": "dispute_id", "judge": "human", "proposal": "proposal_text"}

# ---- the published scenario-file schema ---------------------------------------

_FIELD_SCHEMAS: dict[str, dict[str, Any]] = {
    "human": {"type": "string"},
    "voucher": {"type": "string"},
    "reason": {"type": "string"},
    "initiator": {"type": "string"},
    "respondents": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    "fee": {"type": "integer"},
    "t1": {"type": "integer", "minimum": 1},  # and t1 < t2, which DisputeConfig checks
    "t2": {"type": "integer"},
    "min_judges": {"type": "integer", "minimum": 1},
    "dispute": {"type": "integer"},
    "party": {"type": "string"},
    "label": {"type": "string"},
    "text": {"type": "string"},
    "judge": {"type": "string"},
    "proposal": {"type": "string"},
    "rotate_key": {"type": "boolean"},
    "allocations": {
        "type": "object",
        # canonical decimal, so no two spellings (`"0"`, `"00"`, `"-0"`) name
        # one option; `(?!\n)` as in EXPECT_PATTERN
        "propertyNames": {"pattern": r"^(0|-?[1-9][0-9]*)(?!\n)$"},
        "additionalProperties": {"type": "integer"},
    },
    "wallet": {"type": "string"},
    "complied": {"type": "boolean"},
    "deadline_passed": {"type": "boolean"},
}


def _step_schema(op: str) -> dict[str, Any]:
    """The schema branch for one op: its `op` pinned by `const`, its own
    fields typed, unknown fields rejected."""
    required, optional = _OPS[op]
    properties: dict[str, Any] = {
        "op": {"const": op},
        "t": {"type": "integer", "minimum": 0},
        "expect": {"type": "string", "pattern": EXPECT_PATTERN},
        "expect_result": {},
    }
    for field in sorted(required | optional):
        properties[field] = _FIELD_SCHEMAS[field]
    return {
        "type": "object",
        "properties": properties,
        "required": ["op", "t", *sorted(required)],
        "additionalProperties": False,
    }


def _document_schema(step: dict[str, Any] | bool) -> dict[str, Any]:
    """The top-level scenario document, with `step` as the schema of each
    timeline item (`True` accepts any item)."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "Scenario file",
        "type": "object",
        "properties": {
            "seed": {"type": "integer"},
            "config": {
                "type": "object",
                "properties": {
                    "genesis_humans": {
                        "type": "array",
                        "items": {"type": "string"},
                        "uniqueItems": True,
                    },
                    "challenge_window": {"type": "integer", "minimum": 1},
                    # 32 is Semaphore's MAX_DEPTH; a tree costs time and
                    # memory linear in its depth
                    "tree_depth": {"type": "integer", "minimum": 1, "maximum": 32},
                },
                "additionalProperties": False,
            },
            "timeline": {"type": "array", "items": step},
            "expected": {"type": "object"},
        },
        "required": ["seed", "timeline"],
        "additionalProperties": False,
    }


def scenario_schema() -> dict[str, Any]:
    """JSON Schema for scenario files, generated from the runner's own
    operation catalogue: one branch per op, unknown fields rejected."""
    return _document_schema({"oneOf": [_step_schema(op) for op in sorted(_OPS)]})


SCENARIO_SCHEMA = scenario_schema()

# ---- the compiled accept path ----------------------------------------------------

Predicate = Callable[[Any], bool]


def _is_integer(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _is_number(value: Any) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


# JSON type name -> membership, as jsonschema's Draft 2020-12 type checker
# has it: an integral float is an integer, a bool is not
_TYPES: dict[str, Predicate] = {
    "array": lambda value: isinstance(value, list),
    "boolean": lambda value: isinstance(value, bool),
    "integer": _is_integer,
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
}


# Each keyword compiler takes the keyword's argument and returns its check.
# As in JSON Schema, a keyword about one JSON type passes every value of
# another.


def _const(const: Any) -> Predicate:
    return lambda value: type(value) is type(const) and value == const


def _minimum(minimum: Any) -> Predicate:
    return lambda value: not _is_number(value) or not value < minimum


def _maximum(maximum: Any) -> Predicate:
    return lambda value: not _is_number(value) or not value > maximum


def _pattern(pattern: str) -> Predicate:
    search = re.compile(pattern).search
    return lambda value: not isinstance(value, str) or search(value) is not None


def _items(items: dict | bool) -> Predicate:
    accept = _accepts(items)
    return lambda value: not isinstance(value, list) or all(map(accept, value))


def _min_items(minimum: int) -> Predicate:
    return lambda value: not isinstance(value, list) or len(value) >= minimum


def _unique_items(unique: bool) -> Predicate:
    # read only beside `items: {"type": "string"}`, and checked after it, so
    # it sees only lists of strings, where JSON equality is Python's
    return lambda value: (
        not unique or not isinstance(value, list) or len(set(value)) == len(value)
    )


def _property_names(names: dict) -> Predicate:
    accept = _accepts(names)
    return lambda value: not isinstance(value, dict) or all(map(accept, value))


def _additional_properties(additional: dict | bool) -> Predicate:
    # with no `properties` beside it, every member is an additional one
    accept = _accepts(additional)
    return lambda value: not isinstance(value, dict) or all(map(accept, value.values()))


# in the order a schema's checks run
_KEYWORDS: dict[str, Callable[[Any], Predicate]] = {
    "type": _TYPES.__getitem__,
    "const": _const,
    "minimum": _minimum,
    "maximum": _maximum,
    "pattern": _pattern,
    "items": _items,
    "minItems": _min_items,
    "uniqueItems": _unique_items,
    "propertyNames": _property_names,
    "additionalProperties": _additional_properties,
}
# keywords that only annotate, so they accept every value
_ANNOTATIONS = {"$schema", "title"}


def _object_shape(properties: dict, required: list) -> Predicate:
    """`properties` beside `additionalProperties: false`, and `required`:
    every required key present, no other key, and each value accepted by
    its property's schema."""
    fields = {name: _accepts(schema) for name, schema in properties.items()}

    def accept(value: Any) -> bool:
        if not isinstance(value, dict):
            return True
        for name in required:
            if name not in value:
                return False
        for name, item in value.items():
            check = fields.get(name)
            if check is None or not check(item):
                return False
        return True

    return accept


def _accepts(schema: dict | bool) -> Predicate:
    """A predicate true exactly of the values `schema` accepts under Draft
    2020-12. Raises ValueError on a keyword it does not read, or reads only
    beside others: `properties` needs `additionalProperties: false` (and
    then takes `required`), `uniqueItems` needs `items: {"type": "string"}`."""
    if isinstance(schema, bool):
        return lambda value: schema
    keywords = schema.keys() - _ANNOTATIONS
    shape = None
    if "properties" in keywords:
        if schema.get("additionalProperties") is not False:
            raise ValueError(
                "the scenario check does not read 'properties' without "
                "'additionalProperties: false'"
            )
        shape = _object_shape(schema["properties"], schema.get("required", []))
        keywords -= {"properties", "required", "additionalProperties"}
    if "uniqueItems" in keywords and schema.get("items") != {"type": "string"}:
        raise ValueError(
            "the scenario check does not read 'uniqueItems' beside other items than strings"
        )
    unread = keywords - _KEYWORDS.keys()
    if unread:
        raise ValueError(f"the scenario check does not read {min(unread)!r}")
    checks = [compile(schema[k]) for k, compile in _KEYWORDS.items() if k in keywords]
    if shape is not None:
        checks.append(shape)
    if len(checks) == 1:
        return checks[0]

    def accept(value: Any) -> bool:
        for check in checks:
            if not check(value):
                return False
        return True

    return accept


# Every branch of SCENARIO_SCHEMA's `oneOf` pins `op` with `const`, so at most
# one branch can match a step: the document apart from its steps, then each
# step against its own op's branch, accepts exactly what SCENARIO_SCHEMA does.
_ENVELOPE_ACCEPTS = _accepts(_document_schema(True))
_STEP_ACCEPTS = {op: _accepts(_step_schema(op)) for op in _OPS}


def _op(step: Any) -> Optional[str]:
    """The op a step names, if it names one by a string."""
    op = step.get("op") if isinstance(step, dict) else None
    return op if isinstance(op, str) else None


def _accepted(script: Any) -> bool:
    """Whether SCENARIO_SCHEMA accepts `script`, without jsonschema."""
    if not _ENVELOPE_ACCEPTS(script):
        return False
    for step in script["timeline"]:
        accept = _STEP_ACCEPTS.get(_op(step))
        if accept is None or not accept(step):
            return False
    return True


# ---- the judge of a refused script -------------------------------------------------


@functools.cache
def _judges() -> tuple[Any, dict[str, Any], Any]:
    """ScenarioValidator's jsonschema validators, built on first use: the
    document with its steps left unchecked; each op's branch; and a step that
    names no known op."""
    import jsonschema

    draft = jsonschema.Draft202012Validator
    known_op = {
        "type": "object",
        "properties": {"op": {"enum": sorted(_OPS)}},
        "required": ["op"],
    }
    return (
        draft(_document_schema(True)),
        {op: draft(_step_schema(op)) for op in _OPS},
        draft(known_op),
    )


class ScenarioValidator:
    """A validator for SCENARIO_SCHEMA, in the form `jsonschema.validate`
    takes as `cls`, used only on a script the compiled check (`_accepted`)
    refuses: jsonschema stays the judge, deciding each rejection and writing
    each message. Like the compiled check, it takes the document apart from
    its steps, then each step against its own op's branch, without trying
    every branch on every step."""

    def __init__(self, schema: Any) -> None:
        self.check_schema(schema)

    @staticmethod
    def check_schema(schema: Any) -> None:
        """SCENARIO_SCHEMA is built at import and checked against its
        metaschema by the test suite, not on every run."""
        if schema is not SCENARIO_SCHEMA:
            import jsonschema

            raise jsonschema.SchemaError("ScenarioValidator checks SCENARIO_SCHEMA only")

    def iter_errors(self, script: Any) -> Iterator[jsonschema.ValidationError]:
        """The errors of the document apart from its steps or, when there are
        none, those of the first step that fails, with paths from the
        document root."""
        envelope, branches, known_op = _judges()
        errors = list(envelope.iter_errors(script))
        if errors:
            return iter(errors)
        for position, step in enumerate(script["timeline"]):
            validator = branches.get(_op(step), known_op)
            errors = list(validator.iter_errors(step))
            if errors:
                for error in errors:
                    error.path.extendleft((position, "timeline"))
                return iter(errors)
        return iter(())


def _located(error: jsonschema.ValidationError) -> str:
    """`error`'s message, led by the path of the value it is about, e.g.
    `timeline[17].expect: 'maybe' does not match ...`."""
    where = ""
    for key in error.absolute_path:
        where += f"[{key}]" if isinstance(key, int) else f".{key}"
    return f"{where.lstrip('.')}: {error.message}" if where else error.message


def validate(script: Any) -> None:
    """Raise MalformedScript, naming the value at fault, unless
    SCENARIO_SCHEMA accepts `script`. The compiled check passes a valid
    script alone; jsonschema is imported only to judge and word a refusal."""
    if _accepted(script):
        return
    import jsonschema

    try:
        jsonschema.validate(script, SCENARIO_SCHEMA, cls=ScenarioValidator)
    except jsonschema.ValidationError as exc:
        raise MalformedScript(f"fails the schema: {_located(exc)}") from None


def _integral(value: Any) -> Any:
    """`value` with every integral float made an int: JSON Schema counts
    `25.0` as an integer, so the runner must too."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _integral(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_integral(item) for item in value]
    return value


# ---- running a script ------------------------------------------------------------


def _call_op(world: World, op: str, step: Mapping[str, Any]) -> Any:
    method = getattr(world, op)
    kwargs = {
        _RENAMES.get(key, key): value
        for key, value in step.items()
        if key not in _STEP_META
    }
    if op not in _TIMELESS:
        kwargs["now"] = step["t"]
    return method(**kwargs)


def matches_expected(snapshot: Any, expected: Any) -> bool:
    """Deep subset match: every key in `expected` must exist and match;
    lists and scalars must be equal outright."""
    if isinstance(expected, dict):
        if not isinstance(snapshot, dict):
            return False
        return all(
            key in snapshot and matches_expected(snapshot[key], value)
            for key, value in expected.items()
        )
    return snapshot == expected


def run_scenario(script: Mapping[str, Any], *, seed: Optional[int] = None) -> dict:
    """Execute a script against a fresh world; returns the run report.

    A script that fails SCENARIO_SCHEMA, or whose timestamps decrease,
    raises MalformedScript naming the value at fault; so does a step that
    refers to an actor or dispute that does not exist, and a script nested
    too deeply for the runner to walk. Protocol rejections do not raise —
    each step says what it expects ("ok" by default, or "error:SomeError")
    and the report records whether expectations held. `seed` overrides the
    script's own seed.
    """
    try:
        validate(script)
        script = _integral(script)
    except RecursionError:
        raise MalformedScript("nested too deeply to read") from None
    timeline = script["timeline"]
    for position, (before, step) in enumerate(zip(timeline, timeline[1:]), 1):
        if step["t"] < before["t"]:
            raise MalformedScript(
                f"timeline[{position}].t: {step['t']} follows {before['t']}; "
                "timestamps must be non-decreasing"
            )

    effective_seed = seed if seed is not None else script["seed"]
    world = World(effective_seed, **script.get("config", {}))

    steps_report: list[dict] = []
    ok = True
    for position, step in enumerate(script["timeline"]):
        op = step["op"]
        expect = step.get("expect", "ok")
        entry: dict[str, Any] = {"position": position, "op": op, "t": step["t"]}
        try:
            result = _call_op(world, op, step)
            entry["status"] = "ok"
            entry["result"] = jsonable(result)
        except ProtocolError as exc:
            entry["status"] = "error"
            entry["error"] = type(exc).__name__
        except KeyError as exc:
            raise MalformedScript(
                f"step {position}: unknown reference {exc}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise MalformedScript(f"step {position}: {exc}") from None

        if expect == "ok":
            step_ok = entry["status"] == "ok"
        else:
            wanted = expect.split(":", 1)[1]
            step_ok = entry["status"] == "error" and entry.get("error") == wanted
        if step_ok and "expect_result" in step:
            step_ok = entry.get("result") == step["expect_result"]
        entry["pass"] = step_ok
        ok = ok and step_ok
        steps_report.append(entry)

    snapshot = world.snapshot()
    report: dict[str, Any] = {
        "seed": effective_seed,
        "steps": steps_report,
        "snapshot": snapshot,
        "view": world.view.as_jsonable(),
        "ok": ok,
    }
    # the replay checks every prefix of the ledger, so once covers every step;
    # a broken invariant is named on the last step, or on the report if none
    if not world.engine.escrow.conserved():
        broken = "escrow conservation violated"
        report["ok"] = False
        if steps_report:
            steps_report[-1].update({"pass": False, "invariant": broken})
        else:
            report["invariant"] = broken
    if "expected" in script:
        matched = matches_expected(snapshot, script["expected"])
        report["expected_match"] = matched
        report["ok"] = report["ok"] and matched
    return report
