"""Shared exception hierarchy, the accept/reject verdict type, and the base
of the records that change in place.

Every rule violation in the protocol surfaces either as a ProtocolError
subclass (for operations that must not proceed) or as a rejecting Verdict
(for checks whose callers need the reason without a control-flow break,
e.g. signal verification and audit replay).
"""
from __future__ import annotations

from typing import NamedTuple


class ProtocolError(Exception):
    """Base class for every rule violation raised by this package."""


# ---- crypto primitives ------------------------------------------------------

class InvalidKey(ProtocolError):
    """Public key material is malformed or does not decode."""


class AuthFailure(ProtocolError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""


class TreeFull(ProtocolError):
    """Merkle tree has no free leaf slots left."""


class IndexOutOfRange(ProtocolError):
    """Leaf index does not refer to an occupied tree slot."""


class DecodeError(ProtocolError):
    """Canonical byte string is truncated, oversized, or malformed."""


# ---- identity / registry ----------------------------------------------------

class DuplicateHuman(ProtocolError):
    """A non-rejected registry record already exists for this human."""


class VoucherNotApproved(ProtocolError):
    """The vouching registrant is not in the Approved state."""


class ChallengeTooLate(ProtocolError):
    """The challenge window for this registration has already closed."""


class NotApproved(ProtocolError):
    """The human behind this action has no Approved registry record."""


class AlreadyJoined(ProtocolError):
    """This human is already bound to a leaf of the group (bans persist)."""


class NotAMember(ProtocolError):
    """The identity commitment is not an occupied leaf of the group."""


# ---- coordinator / polls ----------------------------------------------------

class DuplicateKey(ProtocolError):
    """This public key is already registered for the poll."""


class PollClosed(ProtocolError):
    """Message intake deadline has passed (or the poll was finalized)."""


class CommitBeforeProcessing(ProtocolError):
    """Tally commitment requested before message processing ran."""


class AlreadyCommitted(ProtocolError):
    """The poll already has a tally commitment (single-commitment rule)."""


# ---- dispute lifecycle ------------------------------------------------------

class ZeroFee(ProtocolError):
    """Disputes require a positive fee."""


class SelfDispute(ProtocolError):
    """A party cannot open a dispute against itself."""


class WrongFee(ProtocolError):
    """Join deposit does not match the dispute fee."""


class JoinAfterDeadline(ProtocolError):
    """Party tried to join once the joining window was over."""


class NotAParty(ProtocolError):
    """Actor is not one of the dispute's named parties."""


class NotAJuror(ProtocolError):
    """The human never enrolled in the dispute, so holds no ballot key in it."""


class WrongState(ProtocolError):
    """Operation is not legal in the dispute's current state."""


class EnrollmentClosed(ProtocolError):
    """Judge enrollment window (before t1) is over."""


class InvalidSignal(ProtocolError):
    """Judge enrollment signal was rejected; .reason carries the cause."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TooEarly(ProtocolError):
    """Deadline-gated operation attempted before its deadline."""


# ---- incentives -------------------------------------------------------------

class NotTheAuthor(ProtocolError):
    """Fee claim by a judge who did not author the winning proposal."""


class AlreadyRecorded(ProtocolError):
    """A one-time record (a dispute's reputation, a status token) exists."""


# ---- scenario harness -------------------------------------------------------

class MalformedScript(ProtocolError):
    """Scenario script violates ordering or references unknown actors/ops."""


# ---- verdicts ---------------------------------------------------------------

# Reason strings reused across modules; kept here so verdict producers and
# the tests agree on spelling.
REASON_BAD_MEMBERSHIP = "BadMembership"
REASON_DOUBLE_SIGNAL = "DoubleSignal"
REASON_AUTH_FAILURE = "AuthFailure"
REASON_DECODE_ERROR = "DecodeError"
REASON_UNKNOWN_VOTER = "UnknownVoter"
REASON_BAD_SIGNATURE = "BadSignature"
REASON_BAD_OPTION = "BadOption"
REASON_BAD_AMOUNT = "BadAmount"
REASON_OVER_BUDGET = "OverBudget"
REASON_MESSAGE_SET_MISMATCH = "MessageSetMismatch"
REASON_REPLAY_MISMATCH = "ReplayMismatch"
REASON_TALLY_MISMATCH = "TallyMismatch"
REASON_COMMITMENT_MISMATCH = "CommitmentMismatch"


class Verdict(NamedTuple):
    """Outcome of a check: accepted, or rejected with a named reason."""

    ok: bool
    reason: str | None = None

    @staticmethod
    def accept() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def reject(reason: str) -> "Verdict":
        return Verdict(False, reason)

    def __bool__(self) -> bool:
        return self.ok


class MutableRecord:
    """Base of the records that change in place (every other record is a
    named tuple). A subclass names its fields in ``__slots__``; records
    compare by those fields, in order, so they are unhashable, and their
    repr shows each field."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
