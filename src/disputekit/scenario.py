"""Deterministic simulation world plus a scripted scenario runner.

Two audiences share this module. The `World` is the programmatic surface:
one personhood registry, one juror group, one coordinator (held as its
`maci.Coordinator`, the one holder of the decryption key), one escrow, and
any number of disputes, all drawing randomness from a single seeded
generator so a run can be replayed bit-for-bit. The scenario runner drives
a `World` from a plain-dict script (usually parsed from JSON) and produces
a JSON-able report. A script op is the `World` method of its name: the
method's parameters are the step's fields, and its `now` is the step's
`t`. The published scenario schema, `SCENARIO_SCHEMA`, is built here from
those methods, and the runner applies it to every script, whoever calls
it. The schema is compiled at import into the one check that decides every
script and words every refusal, as a Draft 2020-12 validator would; no
JSON Schema library is needed to run.

Everything a chain observer could see goes through the `AdversaryView`:
an append-only log of schema-checked public events. Ballot plaintexts,
identity secrets, and pre-publication tallies never appear there — tests
and attack probes read the view to confirm exactly that.
"""
from __future__ import annotations

import operator
import random
import re
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .engine import DisputeConfig, DisputeEngine, enrollment_scope
from .errors import MalformedScript, NotAJuror, NotAParty, ProtocolError
from .identity import HumanRecord, Identity, PohRegistry, SemaphoreGroup, create_signal
from .incentives import (
    ReputationLedger,
    SbtRegistry,
    apply_phase2_scores,
    distribute_fee,
    enforce_thresholds,
    issue_party_sbt,
    sign_claim,
)
from .maci import Coordinator, build_message
from .primitives import DecryptionKey, KeyPair, hash_bytes

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


class PublicEvent(NamedTuple):  # event i is AdversaryView.events[i]
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
        """The log as the report's `[seq, kind, payload]` rows, as JSON
        writes them. Releases the log as it goes: each event is dropped as
        its row is built, so the log and its rows are never both whole, and
        the view is empty after. Render a view once, when its world is done."""
        events = self.events
        events.reverse()
        rows: list[list[Any]] = []
        while events:
            kind, payload = events.pop()
            rows.append([len(rows), kind, jsonable(payload)])
        return rows


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

    The coordinator is the engine's `maci.Coordinator`: clients seal ballots
    for its `public` key, and only it can open them. Each method named in
    `_OP_NAMES` is the one statement of its script op: its parameters are
    the step's fields, and `now` is the step's `t`.
    """

    def __init__(
        self,
        seed: int,
        *,
        genesis_humans: Sequence[str] = (),
        challenge_window: int = 10,
        tree_depth: int = 12,
    ):
        self.rng = random.Random(seed)
        self.adversary_rng = random.Random(f"{seed}:adversary")
        self.view = AdversaryView()
        self.registry = PohRegistry(challenge_window=challenge_window)
        self.group = SemaphoreGroup(self.registry, tree_depth=tree_depth)
        self.coordinator = Coordinator(DecryptionKey.generate(self.rng), self.rng)
        self.engine = DisputeEngine(self.coordinator, self.group, self.view.append)
        self.reputation = ReputationLedger()
        self.sbts = SbtRegistry()
        self.identities: dict[str, Identity] = {}
        self.party_keys: dict[str, KeyPair] = {}
        # per dispute: each enrolled juror's seat, (voter index in the Phase-1
        # poll, ballot key), the key replaced when a vote rotates it
        self.jurors: dict[int, dict[str, tuple[int, KeyPair]]] = {}
        for human in genesis_humans:
            self._publish_status(self.registry.seed_approved(human))

    # -- identity layer ---------------------------------------------------

    def _publish_status(self, record: HumanRecord) -> str:
        """Put the registration's status on the public record; returns it."""
        status = record.status.value
        self.view.append("poh_status", {"human": record.human_id, "status": status})
        return status

    def poh_register(self, human: str, voucher: str, now: int) -> int:
        record = self.registry.register(
            human, hash_bytes(f"video:{human}".encode()), voucher, now
        )
        self._publish_status(record)
        return record.challenge_deadline

    def poh_challenge(self, human: str, reason: str, now: int) -> str:
        return self._publish_status(self.registry.challenge(human, reason, now))

    def poh_finalize(self, now: int) -> dict[str, str]:
        return {
            record.human_id: self._publish_status(record)
            for record in self.registry.finalize(now)
        }

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

    def _party_index(self, dispute_id: int, party: str) -> int:
        """Phase-1 option and Phase-2 voter index; NotAParty before a draw."""
        parties = self.engine.disputes[dispute_id].parties
        if party not in parties:
            raise NotAParty(party)
        return parties.index(party)

    def _seat(self, dispute_id: int, human: str) -> tuple[int, KeyPair]:
        """The juror's voter index and ballot key as it stands; NotAJuror for
        a human who never enrolled in the dispute."""
        seat = self.jurors.get(dispute_id, {}).get(human)
        if seat is None:
            raise NotAJuror(human)
        return seat

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

    def join_dispute(self, dispute: int, party: str, fee: int, now: int) -> None:
        self.engine.join_dispute(
            dispute, party, fee, self._party_key(party).public, now
        )

    def submit_evidence(
        self, dispute: int, party: str, label: str, text: str, now: int
    ) -> bytes:
        ref = self.engine.submit_evidence(
            dispute, party, hash_bytes(text.encode()), label, now
        )
        return ref.content_hash

    def default_if_absent(self, dispute: int, now: int) -> str:
        return self.engine.default_if_absent(dispute, now)

    # -- judging -----------------------------------------------------------

    def enroll_judge(self, dispute: int, judge: str, now: int) -> int:
        identity = self.identities[judge]
        ballot_key = KeyPair.generate(self.rng)
        signal = create_signal(
            identity,
            self.group,
            ballot_key.public,
            enrollment_scope(dispute),
        )
        index = self.engine.enroll_judge(dispute, signal, now)
        self.jurors.setdefault(dispute, {})[judge] = (index, ballot_key)
        return index

    def phase1_vote(
        self,
        dispute: int,
        judge: str,
        party: str,
        proposal: str,
        now: int,
        *,
        rotate_key: bool = False,
    ) -> int:
        option = self._party_index(dispute, party)
        voter, signer = self._seat(dispute, judge)
        fresh = KeyPair.generate(self.rng) if rotate_key else None
        ciphertext = build_message(
            signer=signer,
            coordinator_public=self.coordinator.public,
            voter_registration_index=voter,
            votes={option: 1},
            new_public_key=fresh.public if fresh else None,
            memo=hash_bytes(proposal.encode()),
            rng=self.rng,
        )
        index = self.engine.submit_phase1_ballot(dispute, ciphertext, now)
        if fresh is not None:
            self.jurors[dispute][judge] = (voter, fresh)
        return index

    def close_phase1(self, dispute: int, now: int) -> str:
        return self.engine.close_phase1(dispute, now)

    def start_phase2(self, dispute: int, now: int) -> dict[str, int]:
        self.engine.start_phase2(dispute, now)
        scores = self.engine.disputes[dispute].phase1_scores
        assert scores is not None
        return dict(scores)

    def phase2_vote(
        self,
        dispute: int,
        party: str,
        allocations: Mapping[Any, int],
        now: int,
    ) -> int:
        index = self._party_index(dispute, party)
        ciphertext = build_message(
            signer=self._party_key(party),
            coordinator_public=self.coordinator.public,
            voter_registration_index=index,
            votes={int(option): int(amount) for option, amount in allocations.items()},
            rng=self.rng,
        )
        return self.engine.submit_phase2_ballot(dispute, ciphertext, now)

    def close_phase2(self, dispute: int, now: int) -> dict[str, Any]:
        tally = self.engine.close_phase2(dispute, now)
        return {"winner": tally.winner, "scores": dict(tally.proposal_scores)}

    # -- aftermath -----------------------------------------------------------

    def claim_fee(self, dispute: int, judge: str, wallet: str) -> int:
        signature = sign_claim(self._seat(dispute, judge)[1], dispute, wallet)
        entry = distribute_fee(self.engine, dispute, wallet, signature)
        return entry.amount

    def apply_reputation(self, dispute: int) -> dict[str, int]:
        by_index = {i: human for human, (i, _) in self.jurors.get(dispute, {}).items()}
        return apply_phase2_scores(
            self.reputation, self.engine.disputes[dispute], by_index
        )

    def enforce_thresholds(self) -> list[tuple[str, str]]:
        return enforce_thresholds(
            self.reputation, self.sbts, self.group, self.view.append
        )

    def issue_party_sbt(
        self, dispute: int, party: str, *, complied: bool, deadline_passed: bool
    ) -> str:
        token = issue_party_sbt(
            self.sbts,
            self.engine.disputes[dispute],
            party,
            complied=complied,
            deadline_passed=deadline_passed,
        )
        return token.kind

    # -- state summary ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Semantic state only: what the run *decided*, not how it got
        there. Two runs that agree here agree on every verdict, balance,
        and status, regardless of message traffic. Rendered as the report
        writes it, by `jsonable`."""
        disputes: dict[int, Any] = {}
        for dispute in self.engine.disputes.values():
            tally = dispute.phase2_tally
            disputes[dispute.dispute_id] = {
                "state": dispute.state.value,
                "parties": dispute.parties,
                "fee": dispute.fee,
                "evidence": dispute.evidence,
                "phase1_scores": dispute.phase1_scores,
                "proposals": [
                    (k, p.text_hash, p.author_registration_index)
                    for k, p in enumerate(dispute.proposals)
                ],
                "phase2_scores": tally.proposal_scores if tally else None,
                "winner": tally.winner if tally else None,
                "default_winner": dispute.default_winner,
                "settled": dispute.settled,
            }
        escrow = self.engine.escrow
        actors = sorted({entry.actor for entry in escrow.entries})
        return jsonable({
            "poh": {
                human: record.status.value
                for human, record in self.registry.records.items()
            },
            "group_root": self.group.root,
            "group_bindings": self.group.member_bindings,
            "spent_nullifiers": len(self.group.seen_nullifier_hashes),
            "disputes": disputes,
            "escrow_balances": {d: escrow.balance(d) for d in self.engine.disputes},
            "escrow_net": {actor: escrow.net_position(actor) for actor in actors},
            "reputation": self.reputation.scores,
            "sbts": sorted(
                (t.kind, t.subject, -1 if t.dispute_id is None else t.dispute_id)
                for t in self.sbts.tokens
            ),
        })


# ---- scripted scenarios ---------------------------------------------------------

# The script ops, each the World method of its name (see `World`)
_OP_NAMES = (
    "poh_register", "poh_challenge", "poh_finalize", "group_join",
    "open_dispute", "join_dispute", "submit_evidence", "default_if_absent",
    "enroll_judge", "phase1_vote", "close_phase1", "start_phase2",
    "phase2_vote", "close_phase2", "claim_fee", "apply_reputation",
    "enforce_thresholds", "issue_party_sbt",
)


def _op_table() -> tuple[dict[str, tuple[set[str], set[str]]], set[str]]:
    """Each op's (required fields, optional fields), and the ops that take
    `now`, read from the World methods' code at import, before any wrapper."""
    ops, timed = {}, set()
    for op in _OP_NAMES:
        method = World.__dict__[op]
        code = method.__code__
        fields = set(code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount])
        optional = set(method.__kwdefaults__ or ())
        ops[op] = (fields - optional - {"now"}, optional)
        if "now" in fields:
            timed.add(op)
    return ops, timed


_OPS, _TIMED = _op_table()

# What a step may expect: success, or a rejection naming its error class.
# `(?!\n)` keeps Python's `re.search`, which the check's `pattern` uses and
# whose `$` also matches before a final newline, to the ECMA-262 meaning of
# the published schema.
EXPECT_PATTERN = r"^(ok|error:[A-Za-z]+)(?!\n)$"

# A step's own keys, beside its op's fields
_STEP_KEYS: dict[str, dict[str, Any]] = {
    "op": {},  # each op's branch pins it with `const`
    "t": {"type": "integer", "minimum": 0},
    "expect": {"type": "string", "pattern": EXPECT_PATTERN},
    "expect_result": {},
}

# ---- the published scenario-file schema ---------------------------------------

_FIELD_SCHEMAS: dict[str, dict[str, Any]] = {
    "human": {"type": "string"},
    "voucher": {"type": "string"},
    "reason": {"type": "string"},
    "initiator": {"type": "string"},
    "respondents": {"type": "array", "items": {"type": "string"}, "minItems": 1,
                    "uniqueItems": True},
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
    properties = {key: dict(schema) for key, schema in _STEP_KEYS.items()}
    properties["op"] = {"const": op}
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
    """JSON Schema for scenario files, generated from the World's op
    methods: one branch per op, unknown fields rejected."""
    return _document_schema({"oneOf": [_step_schema(op) for op in sorted(_OPS)]})


SCENARIO_SCHEMA = scenario_schema()

# ---- the compiled check ------------------------------------------------------------

# A fault is where a value breaks the schema, as a path of keys below the value
# checked, and jsonschema's Draft 2020-12 message for the keyword it breaks,
# e.g. `(("config", "tree_depth"), "33 is greater than the maximum of 32")`.
Fault = tuple[tuple, str]
Check = Callable[[Any], Optional[Fault]]


# JSON type name -> the Python type of its values, as read from JSON
_TYPES = {"array": list, "boolean": bool, "object": dict, "string": str}


def _json_key(value: Any) -> Any:
    """A hashable stand-in for `value`, equal to another's exactly when the
    two values are equal as JSON: a bool is no number, and `1 == 1.0`."""
    if isinstance(value, bool):
        return (bool, value)
    if isinstance(value, list):
        return tuple(map(_json_key, value))
    if isinstance(value, dict):
        return frozenset((key, _json_key(item)) for key, item in value.items())
    return value


def _better(found: Optional[Fault], fault: Fault) -> Fault:
    """The one of `found` and the later `fault` that jsonschema's
    `best_match` names: the shallower; of equal depth, the greater path (so
    the last failing item, or the alphabetically greatest key); else `found`."""
    if found is None or (-len(fault[0]), fault[0]) > (-len(found[0]), found[0]):
        return fault
    return found


def _members_fault(check: Check, members: Any) -> Optional[Fault]:
    """The fault `best_match` names among the `(key, value)` pairs `members`."""
    found = None
    for key, item in members:
        fault = check(item)
        if fault is not None:
            found = _better(found, ((key, *fault[0]), fault[1]))
    return found


# Each keyword compiler takes the keyword's argument and returns its check:
# None for a value it accepts, without allocating, else the value's fault.
# As in JSON Schema, a keyword about one JSON type passes every value of
# another.


def _type(name: str) -> Check:
    words = f"is not of type {name!r}"
    if name == "integer":
        # as jsonschema's Draft 2020-12 type checker has it: an integral
        # float is an integer, a bool is not
        return lambda value: (
            None if isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()
            else ((), f"{value!r} {words}")
        )
    kind = _TYPES[name]
    return lambda value: None if isinstance(value, kind) else ((), f"{value!r} {words}")


def _const(const: Any) -> Check:
    return lambda value: (
        None if type(value) is type(const) and value == const
        else ((), f"{const!r} was expected")
    )


def _bound(beyond: Callable[[Any, Any], bool], words: str) -> Callable[[Any], Check]:
    """The compiler of `minimum` (`beyond` is `<`) or `maximum` (`>`), which
    read numbers only: a bool is none."""
    return lambda bound: lambda value: (
        ((), f"{value!r} is {words} {bound!r}")
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and beyond(value, bound) else None
    )


def _pattern(pattern: str) -> Check:
    search = re.compile(pattern).search
    return lambda value: (
        ((), f"{value!r} does not match {pattern!r}")
        if isinstance(value, str) and search(value) is None else None
    )


def _min_items(minimum: int) -> Check:
    words = "should be non-empty" if minimum == 1 else "is too short"
    return lambda value: (
        ((), f"{value!r} {words}")
        if isinstance(value, list) and len(value) < minimum else None
    )


def _unique_items(unique: bool) -> Check:
    return lambda value: (
        ((), f"{value!r} has non-unique elements")
        if unique and isinstance(value, list)
        and len(set(map(_json_key, value))) < len(value) else None
    )


def _property_names(names: dict) -> Check:
    # a name's fault is the object's own, found in the object's order
    check = _check(names)
    return lambda value: (
        next(filter(None, map(check, value)), None) if isinstance(value, dict) else None
    )


def _each(container: type, members: Callable[[Any], Any]) -> Callable[[Any], Check]:
    """The compiler of `items` (each item of a list, `members` is
    `enumerate`) or, with no `properties` beside it, `additionalProperties`
    (each member of an object, `dict.items`)."""

    def compile_each(schema: dict | bool) -> Check:
        check = _check(schema)
        return lambda value: (
            _members_fault(check, members(value)) if isinstance(value, container) else None
        )

    return compile_each


_KEYWORDS: dict[str, Callable[[Any], Check]] = {
    "type": _type,
    "const": _const,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "pattern": _pattern,
    "items": _each(list, enumerate),
    "minItems": _min_items,
    "uniqueItems": _unique_items,
    "propertyNames": _property_names,
    "additionalProperties": _each(dict, dict.items),
}
# keywords that only annotate, so they accept every value
_ANNOTATIONS = {"$schema", "title"}


def _object_shape(properties: dict, required: list) -> Check:
    """`properties` beside `additionalProperties: false`, and `required`:
    every required key present, no other key, and each value accepted by
    its property's schema. The object's own faults win, in the order
    jsonschema finds them: the first missing key, then every extra one."""
    fields = {name: _check(schema) for name, schema in properties.items()}

    def shape_fault(value: Any) -> Optional[Fault]:
        if not isinstance(value, dict):
            return None
        for name in required:
            if name not in value:
                return (), f"{name!r} is a required property"
        found = None
        for name, item in value.items():
            check = fields.get(name)
            if check is None:
                extras = sorted(value.keys() - fields.keys())
                verb = "was" if len(extras) == 1 else "were"
                return (), (f"Additional properties are not allowed "
                            f"({', '.join(map(repr, extras))} {verb} unexpected)")
            fault = check(item)
            if fault is not None:
                found = _better(found, ((name, *fault[0]), fault[1]))
        return found

    return shape_fault


def _check(schema: dict | bool) -> Check:
    """The check of `schema` under Draft 2020-12: None for a value the
    schema accepts, else the fault jsonschema's `best_match` names. Raises
    ValueError on a keyword it does not read, or reads only beside others:
    `properties` needs `additionalProperties: false` (and then takes
    `required`)."""
    if schema is True:
        return lambda value: None
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
    unread = keywords - _KEYWORDS.keys()
    if unread:
        raise ValueError(f"the scenario check does not read {min(unread)!r}")
    # in the schema's order, which is the order jsonschema finds faults in
    checks = [_KEYWORDS[key](argument) for key, argument in schema.items() if key in keywords]
    if shape is not None:
        checks.append(shape)
    if len(checks) == 1:
        return checks[0]

    def schema_fault(value: Any) -> Optional[Fault]:
        found = None
        for check in checks:
            fault = check(value)
            if fault is not None:
                found = _better(found, fault)
        return found

    return schema_fault


# Every branch of SCENARIO_SCHEMA's `oneOf` pins `op` with `const`, so at most
# one branch can match a step: the document apart from its steps, then each
# step against its own op's branch, accepts exactly what SCENARIO_SCHEMA does.
_ENVELOPE_CHECK = _check(_document_schema(True))
_STEP_CHECKS = {op: _check(_step_schema(op)) for op in _OPS}


def _step_fault(step: Any) -> Optional[Fault]:
    """A step's fault against its op's branch; one that names no known op
    is worded as jsonschema words `{"type": "object", "required": ["op"],
    "properties": {"op": {"enum": sorted(_OPS)}}}`."""
    op = step.get("op") if isinstance(step, dict) else None
    check = _STEP_CHECKS.get(op) if isinstance(op, str) else None
    if check is not None:
        return check(step)
    if not isinstance(step, dict):
        return (), f"{step!r} is not of type 'object'"
    if "op" not in step:
        return (), "'op' is a required property"
    return ("op",), f"{op!r} is not one of {sorted(_OPS)!r}"


def validate(script: Any) -> None:
    """Raise MalformedScript unless SCENARIO_SCHEMA accepts `script`, with
    the fault of the document apart from its steps, else of its first
    failing step, led by the path of the value at fault, e.g.
    `timeline[17].expect: 'maybe' does not match ...`."""
    fault = _ENVELOPE_CHECK(script)
    if fault is None:
        for position, step in enumerate(script["timeline"]):
            fault = _step_fault(step)
            if fault is not None:
                fault = ("timeline", position, *fault[0]), fault[1]
                break
        else:
            return
    path, message = fault
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    located = f"{where.lstrip('.')}: {message}" if where else message
    raise MalformedScript(f"fails the schema: {located}")


# The deepest a script may nest, the script itself being level 1. The
# runner's recursive walks take up to two frames a level, so a deeper
# script could run them out of Python's default limit of 1,000 frames.
MAX_NESTING = 400
_TOO_DEEP = "nested too deeply to read"


def _integral(node: dict | list, level: int = 1) -> dict | list:
    """`node`, at `level`, with every integral float under it made an int:
    JSON Schema counts `25.0` as an integer, so the runner must too. One
    walk, copy-on-write: a container that holds none, the usual case, is
    returned itself, and only the containers on the path to one are copied.
    The walk visits every value even once a float is found, so that a script
    nested deeper than MAX_NESTING is always refused with MalformedScript."""
    if level > MAX_NESTING:
        raise MalformedScript(_TOO_DEEP)
    copy = None
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            new = _integral(value, level + 1)
        else:
            new = int(value) if isinstance(value, float) and value.is_integer() else value
        if new is not value:
            copy = node.copy() if copy is None else copy
            copy[key] = new
    return node if copy is None else copy


# ---- running a script ------------------------------------------------------------


def _call_op(world: World, op: str, step: Mapping[str, Any]) -> Any:
    if "dispute" in step:
        # an unknown dispute is an unknown reference for every op, whether
        # the world or the engine would look it up first, and before any draw
        world.engine.disputes[step["dispute"]]
    fields = {key: value for key, value in step.items() if key not in _STEP_KEYS}
    if op in _TIMED:
        fields["now"] = step["t"]
    return getattr(world, op)(**fields)


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
    more than MAX_NESTING levels deep. Protocol rejections do not raise —
    each step says what it expects ("ok" by default, or "error:SomeError")
    and the report records whether expectations held. `seed` overrides the
    script's own seed.

    The report's `view`, its largest part, is rendered only after the
    world that played the timeline is freed, and each public event is
    dropped as its row is built, so no event outlives its row.
    """
    try:
        validate(script)
        script = _integral(script)
    except RecursionError:
        raise MalformedScript(_TOO_DEEP) from None
    timeline = script["timeline"]
    for position, (before, step) in enumerate(zip(timeline, timeline[1:]), 1):
        if step["t"] < before["t"]:
            raise MalformedScript(
                f"timeline[{position}].t: {step['t']} follows {before['t']}; "
                "timestamps must be non-decreasing"
            )

    effective_seed = seed if seed is not None else script["seed"]
    report, view = _play(script, effective_seed)
    report["view"] = view.as_jsonable()
    if "expected" in script:
        matched = matches_expected(report["snapshot"], script["expected"])
        report["expected_match"] = matched
        report["ok"] = report["ok"] and matched
    return report


def _step(world: World, position: int, step: Mapping[str, Any]) -> dict[str, Any]:
    """Apply one step; its report entry, with whether it met its expectations."""
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
        raise MalformedScript(f"step {position}: unknown reference {exc}") from None
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
    return entry


def _play(script: Mapping[str, Any], seed: int) -> tuple[dict, AdversaryView]:
    """Play the timeline on a fresh world; returns the report without its
    `view`, and the world's public record. The world dies on return, and
    its coordinator's workers are stopped whichever way the timeline ends."""
    world = World(seed, **script.get("config", {}))
    try:
        steps_report = [
            _step(world, position, step)
            for position, step in enumerate(script["timeline"])
        ]
    finally:
        world.coordinator.close()

    report: dict[str, Any] = {
        "seed": seed,
        "steps": steps_report,
        "snapshot": world.snapshot(),
        "ok": all(entry["pass"] for entry in steps_report),
    }
    # the replay checks every prefix of the ledger, so once covers every step,
    # but it cannot tell which step broke it: it is named on the report
    if not world.engine.escrow.conserved():
        report["ok"] = False
        report["invariant"] = "escrow conservation violated"
    return report, world.view
