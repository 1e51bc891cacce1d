"""Records: every immutable record refuses assignment to its fields, every
record type in the package is listed here, and each record that is not a
plain named tuple keeps its own contract."""
from __future__ import annotations

import importlib
import pkgutil
import random

import pytest

import disputekit
from disputekit.attacks import AttackReport
from disputekit.engine import (
    Dispute,
    DisputeConfig,
    EscrowEntry,
    EvidenceRef,
)
from disputekit.errors import MutableRecord, Verdict
from disputekit.identity import HumanRecord, Identity, RegistryStatus, Signal
from disputekit.incentives import SbtToken
from disputekit.maci import (
    AuditTranscript,
    Command,
    MaciMessage,
    Proposal,
    TranscriptEntry,
    _Run,
)
from disputekit.oracle import OracleResult, SweepReport
from disputekit.primitives import DecryptionKey, KeyPair, MerklePath
from disputekit.scenario import PublicEvent
from disputekit.voting import Phase2Tally, QuadraticAllocation

_RNG = random.Random(3)
_TRANSCRIPT = AuditTranscript(
    0, "linear", 2, ((b"k" * 32, 4),),
    (TranscriptEntry(b"d" * 32, None, False, "AuthFailure"),), {0: 1}, b"s" * 32,
)
_PATH = MerklePath(0, (b"z" * 32,))

IMMUTABLE = [
    Verdict.reject("Reason"),
    EvidenceRef("alice", b"h" * 32, "invoice"),
    Proposal(b"p" * 32, 0, b"k" * 32),
    EscrowEntry("deposit", 0, "alice", 10),
    Identity.generate(_RNG),
    Signal(b"data", _PATH, b"r" * 32, 7, b"n" * 32),
    SbtToken("PartyCompliant", "bob", 0),
    Command(b"k" * 32, (0,), (1,), b"", 0),
    MaciMessage(b"ciphertext"),
    _TRANSCRIPT.entries[0],
    _TRANSCRIPT,
    _Run(_TRANSCRIPT, ((0, Command(b"k" * 32, (0,), (1,), b"", 0)), None)),
    _PATH,
    PublicEvent("group_join", {"leaf": 0}),
    QuadraticAllocation("alice", {0: 1}),
    Phase2Tally({0: 1}, 0),
    OracleResult(2, 1, True, (0, 1), True),
    SweepReport(()),
    # named tuples with a contract of their own: equality by seed alone,
    # validation when built
    KeyPair.generate(_RNG),
    DecryptionKey.generate(_RNG),
    DisputeConfig(1, 2, 1),
    AttackReport("sybil", "attempt", "defense", "Blocked", {}),
]
MUTABLE = {Dispute, HumanRecord}


def _field_names(record) -> list[str]:
    """The fields of a named tuple, or of a record that changes in place."""
    if isinstance(record, tuple):
        return list(record._fields)
    return list(record.__slots__)


@pytest.mark.parametrize("record", IMMUTABLE, ids=lambda record: type(record).__name__)
def test_no_record_field_can_be_assigned(record) -> None:
    for name in _field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_every_record_type_is_listed() -> None:
    """Each named tuple and each `MutableRecord` the package defines is
    either in IMMUTABLE or one of the mutable records."""
    defined = set()
    for info in pkgutil.iter_modules(disputekit.__path__):
        module = importlib.import_module(f"disputekit.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and (issubclass(value, MutableRecord) and value is not MutableRecord
                     or issubclass(value, tuple) and hasattr(value, "_fields"))
            ):
                defined.add(value)
    assert defined == {type(record) for record in IMMUTABLE} | MUTABLE


@pytest.mark.parametrize("key_type", [KeyPair, DecryptionKey])
def test_keys_are_their_seed(key_type) -> None:
    """Two keys from one seed are equal and hash alike, whatever else they
    hold; a key equals no plain tuple of its fields; and its repr shows no
    private-key object."""
    key = key_type.generate(random.Random(5))
    private = key[2]
    twin = key_type(key.seed, b"other", None)
    assert key == twin and not key != twin and hash(key) == hash(twin)
    assert key != key_type.generate(random.Random(6))
    assert key != tuple(key) and not key == tuple(key)
    assert len({key, twin}) == 1
    assert repr(key) == f"{key_type.__name__}(seed={key.seed!r}, public={key.public!r})"
    assert type(private).__name__ not in repr(key)
    assert KeyPair.from_seed(key.seed) == KeyPair.from_seed(key.seed)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: DisputeConfig(0, 2, 1), ValueError),
        (lambda: DisputeConfig(t1=0, t2=2, min_judges=1), ValueError),
        (lambda: DisputeConfig(2, 2, 1), ValueError),
        (lambda: DisputeConfig(t1=3, t2=2, min_judges=1), ValueError),
        (lambda: DisputeConfig(1, 2, 0), ValueError),
        (lambda: DisputeConfig(1, 2, min_judges=0), ValueError),
    ],
    ids=[
        "config-t1-positional", "config-t1-keyword", "config-t2-positional",
        "config-t2-keyword", "config-quorum-positional", "config-quorum-keyword",
    ],
)
def test_validated_records_refuse_bad_values_either_way(build, error) -> None:
    with pytest.raises(error):
        build()


def test_validated_records_are_named_tuples_either_way() -> None:
    config = DisputeConfig(t1=1, t2=3, min_judges=2)
    assert config == DisputeConfig(1, 3, 2) and config.span == 2
    assert repr(config) == "DisputeConfig(t1=1, t2=3, min_judges=2)"
    assert not hasattr(config, "__dict__")


def _human(**changes) -> HumanRecord:
    fields = {"human_id": "alice", "video_hash": b"v" * 32, "voucher": None,
              "status": RegistryStatus.PENDING, "challenge_deadline": 5}
    return HumanRecord(**{**fields, **changes})


def _dispute(**changes) -> Dispute:
    fields = {"dispute_id": 0, "parties": ["alice", "bob"], "fee": 10,
              "config": DisputeConfig(1, 2, 1), "phase1_poll": None}
    return Dispute(**{**fields, **changes})


@pytest.mark.parametrize("build", [_human, _dispute], ids=["HumanRecord", "Dispute"])
def test_mutable_records_compare_by_value(build) -> None:
    """Records that change in place compare by every field, so they are
    unhashable, take assignment to any field, and show each field."""
    record, same = build(), build()
    assert record == same and not record != same
    with pytest.raises(TypeError):
        hash(record)
    for name, value in zip(record.__slots__, record._values()):
        assert f"{name}={value!r}" in repr(record)
    for name in record.__slots__:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed" and record != same
        setattr(record, name, getattr(same, name))
    assert record == same and record != tuple(record._values())


def test_mutable_records_keep_their_defaults() -> None:
    human, challenged = _human(), _human()
    assert human.challenge_reason is None
    challenged.challenge_reason = "fake"
    assert challenged != human
    first, second = _dispute(), _dispute()
    assert (first.party_keys, first.evidence, first.proposals) == ({}, [], [])
    # each dispute starts with containers of its own
    first.party_keys["alice"] = b"k" * 32
    first.evidence.append(EvidenceRef("alice", b"h" * 32, "invoice"))
    assert second.party_keys == {} and second.evidence == []
    assert (first.state, first.settled, first.phase2_poll) == (
        _dispute().state, False, None)
