"""Reputation, soulbound status tokens, and fee distribution.

After a dispute resolves, each juror's proposal carries a quadratic score;
that score is the juror's reputation delta, credited to the identity the
simulation knows authored it. Cumulative reputation drives two one-way
status changes, both materialized as non-transferable tokens:

  * falling strictly below the ban threshold removes the juror from the
    voting group forever (their leaf is zeroed, the identity binding keeps
    them from rejoining) and mints JudgeBanned;
  * rising strictly above the trust threshold mints JudgeTrusted; holders
    of JudgeTrusted who were never banned form the governance set.

Parties get a compliance token per dispute: PartyCompliant if they carried
out the judgment, PartyNonCompliant once the compliance deadline lapses.

The fee pool moves only to whoever can sign a claim with the winning
proposal's published author key — authorship is proven, not asserted, so
the juror stays anonymous all the way through payout.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .canonical import encode_uint32
from .engine import Dispute, DisputeEngine, DisputeState, EscrowEntry, Observer
from .errors import AlreadyRecorded, NotAParty, NotTheAuthor, TooEarly, WrongState
from .identity import SemaphoreGroup
from .primitives import KeyPair, hash_fields, sign, verify_sig

JUDGE_TRUSTED = "JudgeTrusted"
JUDGE_BANNED = "JudgeBanned"
PARTY_COMPLIANT = "PartyCompliant"
PARTY_NON_COMPLIANT = "PartyNonCompliant"

_KINDS = {JUDGE_TRUSTED, JUDGE_BANNED, PARTY_COMPLIANT, PARTY_NON_COMPLIANT}

# Reputation thresholds: ban strictly below, trust strictly above.
BAN_BELOW = -10
TRUST_ABOVE = 25


# ---- reputation ---------------------------------------------------------------


class ReputationLedger:
    """Cumulative score per juror identity; unknown jurors sit at zero."""

    def __init__(self) -> None:
        self.scores: dict[str, int] = {}
        self.applied_disputes: set[int] = set()

    def add(self, judge: str, delta: int) -> int:
        self.scores[judge] = self.scores.get(judge, 0) + delta
        return self.scores[judge]

    def get(self, judge: str) -> int:
        return self.scores.get(judge, 0)


def apply_phase2_scores(
    ledger: ReputationLedger,
    dispute: Dispute,
    judges_by_registration: Mapping[int, str],
) -> dict[str, int]:
    """Credit each proposal's quadratic score to its author, once.

    The engine only ever sees ballot keys; which human sat behind
    registration index i is the simulation's knowledge, passed in here.
    Returns the deltas applied.
    """
    if dispute.state != DisputeState.RESOLVED or dispute.phase2_tally is None:
        raise WrongState("reputation settles after resolution")
    if dispute.dispute_id in ledger.applied_disputes:
        raise AlreadyRecorded(f"dispute {dispute.dispute_id} already applied")
    deltas: dict[str, int] = {}
    for k, proposal in enumerate(dispute.proposals):
        try:
            judge = judges_by_registration[proposal.author_registration_index]
        except KeyError:
            raise ValueError(
                f"no judge known for registration index "
                f"{proposal.author_registration_index}"
            ) from None
        score = dispute.phase2_tally.proposal_scores[k]
        deltas[judge] = deltas.get(judge, 0) + score
    for judge, delta in deltas.items():
        ledger.add(judge, delta)
    ledger.applied_disputes.add(dispute.dispute_id)
    return deltas


# ---- status tokens ----------------------------------------------------------------


class SbtToken(NamedTuple):
    kind: str
    subject: str
    dispute_id: Optional[int] = None  # set on per-dispute compliance tokens


class SbtRegistry:
    """Non-transferable tokens; one of each (kind, subject, dispute) ever."""

    def __init__(self) -> None:
        self.tokens: list[SbtToken] = []
        self._index: set[tuple[str, str, Optional[int]]] = set()
        self._held: set[tuple[str, str]] = set()  # (kind, subject) of every token

    def issue(
        self, kind: str, subject: str, dispute_id: Optional[int] = None
    ) -> SbtToken:
        if kind not in _KINDS:
            raise ValueError(f"unknown token kind {kind!r}")
        key = (kind, subject, dispute_id)
        if key in self._index:
            raise AlreadyRecorded(f"{kind} already issued to {subject!r}")
        token = SbtToken(kind, subject, dispute_id)
        self._index.add(key)
        self._held.add((kind, subject))
        self.tokens.append(token)
        return token

    def has(self, kind: str, subject: str) -> bool:
        return (kind, subject) in self._held

    def holders(self, kind: str) -> set[str]:
        return {t.subject for t in self.tokens if t.kind == kind}

    def tokens_for(self, subject: str) -> list[SbtToken]:
        return [t for t in self.tokens if t.subject == subject]


def governance_set(sbts: SbtRegistry) -> set[str]:
    """Jurors trusted with protocol governance; a ban always dominates."""
    return sbts.holders(JUDGE_TRUSTED) - sbts.holders(JUDGE_BANNED)


def enforce_thresholds(
    ledger: ReputationLedger, sbts: SbtRegistry, group: SemaphoreGroup, observe: Observer
) -> list[tuple[str, str]]:
    """Apply both one-way status changes; safe to call repeatedly. Each ban
    observes a ``group_remove`` with the root right after its removal.
    Returns the actions taken this call as ("ban" | "trust", judge) pairs.
    """
    actions: list[tuple[str, str]] = []
    for judge in sorted(ledger.scores):
        score = ledger.scores[judge]
        if score < BAN_BELOW and not sbts.has(JUDGE_BANNED, judge):
            leaf = group.member_bindings.get(judge)
            if leaf is not None:
                root = group.remove(leaf)
                observe("group_remove", {"leaf_index": leaf, "root": root})
            sbts.issue(JUDGE_BANNED, judge)
            actions.append(("ban", judge))
        elif (
            score > TRUST_ABOVE
            and not sbts.has(JUDGE_TRUSTED, judge)
            and not sbts.has(JUDGE_BANNED, judge)
        ):
            sbts.issue(JUDGE_TRUSTED, judge)
            actions.append(("trust", judge))
    return actions


def issue_party_sbt(
    sbts: SbtRegistry,
    dispute: Dispute,
    party: str,
    *,
    complied: bool,
    deadline_passed: bool,
) -> SbtToken:
    """Record whether a party carried out the judgment against them.

    Compliance itself happens off-protocol (payment, delivery, an apology);
    the caller tells us the observed facts and gets the matching token.
    """
    if dispute.state != DisputeState.RESOLVED:
        raise WrongState("compliance tokens follow a resolved dispute")
    if party not in dispute.parties:
        raise NotAParty(party)
    if complied:
        kind = PARTY_COMPLIANT
    elif deadline_passed:
        kind = PARTY_NON_COMPLIANT
    else:
        raise TooEarly("compliance window still open; nothing to record")
    return sbts.issue(kind, party, dispute.dispute_id)


# ---- fee distribution -----------------------------------------------------------


def claim_bytes(dispute_id: int, wallet: str) -> bytes:
    return hash_fields(b"reward-claim", encode_uint32(dispute_id), wallet.encode())


def sign_claim(ballot_key: KeyPair, dispute_id: int, wallet: str) -> bytes:
    """Produced by the winning juror, with the key their final ballot used."""
    return sign(ballot_key, claim_bytes(dispute_id, wallet))


def distribute_fee(
    engine: DisputeEngine, dispute_id: int, wallet: str, claim_signature: bytes
) -> EscrowEntry:
    """Pay the pool to `wallet` iff the claim is signed by the winning
    proposal's author key, as the coordinator published it. The wallet is
    fresh and the key anonymous, so the juror is paid unidentified."""
    dispute = engine.disputes.get(dispute_id)
    if (
        dispute is None
        or dispute.state != DisputeState.RESOLVED
        or dispute.phase2_tally is None
    ):
        raise WrongState("fee distribution follows a resolved dispute")
    author_key = dispute.proposals[dispute.phase2_tally.winner].author_key
    if not verify_sig(author_key, claim_bytes(dispute_id, wallet), claim_signature):
        raise NotTheAuthor("claim not signed by the winning proposal's key")
    return engine.settle(dispute_id, wallet)
