"""Records: every immutable record refuses assignment to its fields, and
every record type in the package is listed here."""
from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import random

import pytest

import disputekit
from disputekit.attacks import AttackReport
from disputekit.engine import (
    Dispute,
    DisputeConfig,
    EngineProposal,
    EscrowEntry,
    EvidenceRef,
)
from disputekit.errors import Verdict
from disputekit.identity import HumanRecord, Identity, Signal
from disputekit.incentives import SbtToken
from disputekit.maci import (
    AuditTranscript,
    Command,
    FinalVote,
    MaciMessage,
    TranscriptEntry,
    VoterFinalState,
    _Run,
)
from disputekit.oracle import BResponse, OracleResult, SweepReport
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
    EngineProposal(b"p" * 32, 0),
    EscrowEntry("deposit", 0, "alice", 10),
    Identity.generate(_RNG),
    Signal(b"data", _PATH, b"r" * 32, 7, b"n" * 32),
    SbtToken("PartyCompliant", "bob", 0),
    Command(b"k" * 32, (0,), (1,), b"", 0),
    MaciMessage(b"ciphertext"),
    FinalVote((0,), (1,), b"", 0),
    VoterFinalState(b"k" * 32, FinalVote((0,), (1,), b"", 0)),
    _TRANSCRIPT.entries[0],
    _TRANSCRIPT,
    _Run(_TRANSCRIPT, (VoterFinalState(b"k" * 32, None),)),
    _PATH,
    PublicEvent("group_join", {"leaf": 0}),
    QuadraticAllocation("alice", {0: 1}),
    Phase2Tally({0: 1}, 0),
    OracleResult(2.0, 1.0, "quadratic", BResponse(0.0, 1.0, 1.0), True),
    SweepReport(0.5, ()),
    # kept as frozen dataclasses: equality that ignores fields, validation,
    # a default factory
    KeyPair.generate(_RNG),
    DecryptionKey.generate(_RNG),
    DisputeConfig(1, 2, 1),
    BResponse(0.0, 1.0, 1.0),
    AttackReport("sybil", "attempt", "defense", "Blocked"),
]
MUTABLE = {Dispute, HumanRecord}


def _field_names(record) -> list[str]:
    if isinstance(record, tuple):
        return list(record._fields)
    return [field.name for field in dataclasses.fields(record)]


@pytest.mark.parametrize("record", IMMUTABLE, ids=lambda record: type(record).__name__)
def test_no_record_field_can_be_assigned(record) -> None:
    for name in _field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_every_record_type_is_listed() -> None:
    """Each named tuple and dataclass the package defines is either in
    IMMUTABLE or one of the mutable records."""
    defined = set()
    for info in pkgutil.iter_modules(disputekit.__path__):
        module = importlib.import_module(f"disputekit.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and (dataclasses.is_dataclass(value)
                     or issubclass(value, tuple) and hasattr(value, "_fields"))
            ):
                defined.add(value)
    assert defined == {type(record) for record in IMMUTABLE} | MUTABLE
