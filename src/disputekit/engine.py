"""Dispute lifecycle: escrowed fees, strict deadlines, two voting phases.

The clock is a logical integer supplied by the caller on every operation;
nothing in here reads wall time. Deadline semantics are uniformly strict:
an action gated by deadline T is allowed while ``now < T`` and refused at
``now == T``.

Lifecycle (states in parentheses):

    open (Opened -> AwaitingJoin) -> all parties join (EvidenceOpen)
    -> t1 reached (Phase1Voting) -> close at t2:
         quorum met      -> Phase1Tallied -> Phase2Voting -> Resolved
         quorum missed   -> one deadline extension, then Aborted + refunds
    missing party at t1  -> DefaultJudgment + refunds

The state guard at the top of each operation is the lifecycle's one
statement: every ``_transition`` follows a guard that pins its source state,
so no table restates the edges. The paper's edges, written once as a
reference, live in the lifecycle model test (``tests/test_engine.py``), which
drives disputes through random operations and checks every ``dispute_state``
event against them.

Each voting phase is one MACI poll, and both take the same path: intake
(a ``ballot`` event per message), then close, process and commit
(``tally_commitment``), then publish tally and salt (``tally_published``) —
Phase 1's when Phase 2 starts, Phase 2's when it closes. Phase deadlines
live on the polls alone. Which ballots count is the poll's rule alone (the
ballot-replay rule, ``maci``): a Phase-1 poll's options are the parties, a
Phase-2 poll's the proposals, and each phase applies exactly the tally its
poll commits to. A juror whose last valid vote spends their one credit is
counted toward quorum and proposes that vote's memo.

The engine is the contract: it never decrypts and draws no randomness. It
calls the coordinator (``maci.Coordinator``) after its own guards pass, tells
it of each ballot taken and of each poll an abort leaves unprocessed, and
keeps only its public key and what it publishes.

Fees: every party escrows the same fee f at entry; a resolved dispute
pays the whole pool (n*f) to the judge who authored the winning proposal;
aborts and defaults refund everyone in full. The escrow ledger records
every movement; each write keeps the balances up to date, so reads are
lookups, and replaying the ledger is the audit that conservation held.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    AlreadyJoined,
    EnrollmentClosed,
    InvalidKey,
    InvalidSignal,
    JoinAfterDeadline,
    MutableRecord,
    NotAParty,
    SelfDispute,
    TooEarly,
    WrongFee,
    WrongState,
    ZeroFee,
)
from .identity import SemaphoreGroup, Signal
from .maci import Coordinator, MaciPoll, Proposal
from .primitives import public_key
from .voting import Phase2Tally, tally_phase1, tally_phase2

Observer = Callable[[str, dict], None]


def enrollment_scope(dispute_id: int) -> int:
    """External nullifier for judge enrollment: one slot per dispute."""
    return (dispute_id << 4) | 1


class DisputeState(Enum):
    OPENED = "Opened"
    AWAITING_JOIN = "AwaitingJoin"
    EVIDENCE_OPEN = "EvidenceOpen"
    PHASE1_VOTING = "Phase1Voting"
    PHASE1_TALLIED = "Phase1Tallied"
    PHASE2_VOTING = "Phase2Voting"
    RESOLVED = "Resolved"
    DEFAULT_JUDGMENT = "DefaultJudgment"
    ABORTED = "Aborted"


class DisputeConfig(NamedTuple("DisputeConfig", [("t1", int), ("t2", int),
                                                  ("min_judges", int)])):
    """Per-dispute timing and quorum. Deadlines are absolute logical times:
    judges enroll before t1, Phase-1 votes land before t2. A missed quorum
    extends Phase 1 by one voting span, and Phase 2 runs for one span.
    Built positionally or by keyword, it refuses bad values either way."""

    __slots__ = ()

    def __new__(cls, t1: int, t2: int, min_judges: int) -> "DisputeConfig":
        if not 0 < t1 < t2:
            raise ValueError("need 0 < t1 < t2")
        if min_judges < 1:
            raise ValueError("quorum must be at least one judge")
        return tuple.__new__(cls, (t1, t2, min_judges))

    @property
    def span(self) -> int:
        """t2 - t1: both the quorum extension and the Phase-2 window."""
        return self.t2 - self.t1


class EvidenceRef(NamedTuple):
    party: str
    content_hash: bytes
    label: str


# ---- escrow -------------------------------------------------------------------


class EscrowEntry(NamedTuple):
    kind: str  # deposit | refund | payout
    dispute_id: int
    actor: str
    amount: int

    @property
    def delta(self) -> int:  # to the dispute's balance; the actor's net moves opposite
        return self.amount if self.kind == "deposit" else -self.amount


class Escrow:
    """Append-only ledger of fee movements. Every write goes through
    ``_append``, which keeps each dispute's balance and each actor's net
    position, so reads are lookups; ``conserved`` replays the ledger as the
    independent audit of both."""

    def __init__(self) -> None:
        self.entries: list[EscrowEntry] = []
        self._balances: dict[int, int] = {}
        self._net: dict[str, int] = {}

    def _append(self, kind: str, dispute_id: int, actor: str, amount: int) -> EscrowEntry:
        if amount <= 0:
            raise ValueError(f"{kind} amounts must be positive")
        entry = EscrowEntry(kind, dispute_id, actor, amount)
        held = self._balances.get(dispute_id, 0)
        if held + entry.delta < 0:
            raise ValueError(f"dispute {dispute_id} holds {held}, cannot pay {amount}")
        self.entries.append(entry)
        self._balances[dispute_id] = held + entry.delta
        self._net[actor] = self._net.get(actor, 0) - entry.delta
        return entry

    def deposit(self, dispute_id: int, actor: str, amount: int) -> EscrowEntry:
        return self._append("deposit", dispute_id, actor, amount)

    def refund(self, dispute_id: int, actor: str, amount: int) -> EscrowEntry:
        return self._append("refund", dispute_id, actor, amount)

    def payout(self, dispute_id: int, actor: str, amount: int) -> EscrowEntry:
        return self._append("payout", dispute_id, actor, amount)

    def balance(self, dispute_id: int) -> int:
        return self._balances.get(dispute_id, 0)

    def total(self, kind: str) -> int:
        return sum(e.amount for e in self.entries if e.kind == kind)

    def conserved(self) -> bool:
        """Replay the ledger: deposits fund outflows exactly, never below zero."""
        balances: dict[int, int] = {}
        net: dict[str, int] = {}
        for entry in self.entries:
            balances[entry.dispute_id] = balances.get(entry.dispute_id, 0) + entry.delta
            if balances[entry.dispute_id] < 0:
                return False
            net[entry.actor] = net.get(entry.actor, 0) - entry.delta
        outflows = self.total("refund") + self.total("payout")
        balanced = self.total("deposit") == outflows + sum(balances.values())
        return balanced and (balances, net) == (self._balances, self._net)

    def net_position(self, actor: str) -> int:
        """Actor's cumulative flow: refunds and payouts minus deposits."""
        return self._net.get(actor, 0)


# ---- dispute record --------------------------------------------------------------


class Dispute(MutableRecord):
    """One dispute, changed in place as it moves through its states."""

    __slots__ = ("dispute_id", "parties", "fee", "config", "phase1_poll", "state",
                 "party_keys", "evidence", "phase1_scores", "proposals",
                 "phase2_poll", "phase2_tally", "default_winner", "settled")

    def __init__(
        self,
        dispute_id: int,
        parties: list[str],  # initiator first
        fee: int,
        config: DisputeConfig,
        phase1_poll: MaciPoll,  # its deadline is t2, moved once by an extension
    ) -> None:
        self.dispute_id = dispute_id
        self.parties = parties
        self.fee = fee
        self.config = config
        self.phase1_poll = phase1_poll
        self.state = DisputeState.OPENED
        self.party_keys: dict[str, bytes] = {}  # who joined
        self.evidence: list[EvidenceRef] = []
        self.phase1_scores: Optional[dict[str, int]] = None
        self.proposals: list[Proposal] = []
        self.phase2_poll: Optional[MaciPoll] = None
        self.phase2_tally: Optional[Phase2Tally] = None
        self.default_winner: Optional[str] = None
        self.settled = False

    @property
    def initiator(self) -> str:
        return self.parties[0]


class DisputeEngine:
    """Owns every dispute, the juror group and the escrow; calls the coordinator."""

    def __init__(
        self, coordinator: Coordinator, group: SemaphoreGroup, observer: Observer
    ):
        self.coordinator = coordinator
        self.group = group
        self.escrow = Escrow()
        self.observe = observer
        self.disputes: dict[int, Dispute] = {}  # dispute i is the i-th opened

    # -- helpers ---------------------------------------------------------

    def _get(self, dispute_id: int) -> Dispute:
        try:
            return self.disputes[dispute_id]
        except KeyError:
            raise WrongState(f"no dispute {dispute_id}") from None

    def _transition(self, dispute: Dispute, new: DisputeState, now: int) -> None:
        old = dispute.state
        dispute.state = new
        self.observe(
            "dispute_state",
            {
                "dispute_id": dispute.dispute_id,
                "old": old.value,
                "new": new.value,
                "time": now,
            },
        )

    def _sync(self, dispute: Dispute, now: int) -> None:
        """Deadline-driven transition: evidence freezes when voting begins."""
        if dispute.state == DisputeState.EVIDENCE_OPEN and now >= dispute.config.t1:
            self._transition(dispute, DisputeState.PHASE1_VOTING, now)

    # -- lifecycle ---------------------------------------------------------

    def open_dispute(
        self,
        initiator: str,
        respondents: Sequence[str],
        fee: int,
        config: DisputeConfig,
        initiator_key: bytes,
        now: int,
    ) -> Dispute:
        if fee <= 0:
            raise ZeroFee("dispute fee must be positive")
        if initiator in respondents:
            raise SelfDispute(initiator)
        if not respondents:
            raise ValueError("a dispute needs at least one respondent")
        if len(set(respondents)) != len(respondents):
            raise ValueError("duplicate respondent")

        dispute_id = len(self.disputes)
        parties = [initiator, *respondents]
        dispute = Dispute(
            dispute_id=dispute_id,
            parties=parties,
            fee=fee,
            config=config,
            phase1_poll=MaciPoll(
                dispute_id * 2,
                self.coordinator.public,
                deadline=config.t2,
                cost_rule="linear",
                options=len(parties),
            ),
        )
        self.disputes[dispute_id] = dispute
        dispute.party_keys[initiator] = initiator_key
        entry = self.escrow.deposit(dispute_id, initiator, fee)
        self.observe("escrow", entry._asdict())
        self._transition(dispute, DisputeState.AWAITING_JOIN, now)
        return dispute

    def join_dispute(
        self,
        dispute_id: int,
        party: str,
        fee: int,
        party_key: bytes,
        now: int,
    ) -> None:
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.AWAITING_JOIN:
            raise WrongState(f"cannot join in {dispute.state.value}")
        if party not in dispute.parties:
            raise NotAParty(party)
        if party in dispute.party_keys:
            raise AlreadyJoined(party)
        if now >= dispute.config.t1:
            raise JoinAfterDeadline(f"joining closed at t1={dispute.config.t1}")
        if fee != dispute.fee:
            raise WrongFee(f"fee is {dispute.fee}, got {fee}")
        entry = self.escrow.deposit(dispute_id, party, fee)
        self.observe("escrow", entry._asdict())
        dispute.party_keys[party] = party_key
        if dispute.party_keys.keys() == set(dispute.parties):
            self._transition(dispute, DisputeState.EVIDENCE_OPEN, now)

    def default_if_absent(self, dispute_id: int, now: int) -> str:
        """Close a dispute nobody answered: initiator wins by default and
        every deposit goes back."""
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.AWAITING_JOIN:
            raise WrongState(f"no default from {dispute.state.value}")
        if now < dispute.config.t1:
            raise TooEarly(f"joining stays open until t1={dispute.config.t1}")
        self._refund_joined(dispute)
        dispute.default_winner = dispute.initiator
        self._transition(dispute, DisputeState.DEFAULT_JUDGMENT, now)
        return dispute.initiator

    def submit_evidence(
        self, dispute_id: int, party: str, content_hash: bytes, label: str, now: int
    ) -> EvidenceRef:
        dispute = self._get(dispute_id)
        self._sync(dispute, now)
        if dispute.state != DisputeState.EVIDENCE_OPEN:
            raise WrongState(f"evidence not accepted in {dispute.state.value}")
        if party not in dispute.parties:
            raise NotAParty(party)
        ref = EvidenceRef(party, content_hash, label)
        dispute.evidence.append(ref)
        self.observe(
            "evidence",
            {
                "dispute_id": dispute_id,
                "party": party,
                "content_hash": content_hash,
                "label": label,
            },
        )
        return ref

    # -- judges and phase 1 --------------------------------------------------

    def enroll_judge(self, dispute_id: int, signal: Signal, now: int) -> int:
        """Admit a juror: the signal's path shows group membership and
        delivers the fresh ballot key; its nullifier hash is spent for this
        dispute. The hash is not yet bound to the path's leaf; see
        `SemaphoreGroup.verify_signal`."""
        dispute = self._get(dispute_id)
        self._sync(dispute, now)
        if now >= dispute.config.t1:
            raise EnrollmentClosed(f"enrollment closed at t1={dispute.config.t1}")
        if dispute.state != DisputeState.EVIDENCE_OPEN:
            raise WrongState(f"cannot enroll in {dispute.state.value}")
        if signal.external_nullifier != enrollment_scope(dispute_id):
            raise InvalidSignal("BadScope")
        try:
            ballot_key = public_key(signal.data)
        except InvalidKey:
            raise InvalidSignal("BadKey") from None
        poll = dispute.phase1_poll
        if poll.has_key(ballot_key):
            # refuse before burning the nullifier
            raise InvalidSignal("DuplicateKey")
        verdict = self.group.verify_signal(signal)
        if not verdict.ok:
            raise InvalidSignal(verdict.reason or "BadMembership")
        index = poll.register_voter(ballot_key, credits=1)
        self.observe(
            "judge_enrolled",
            {
                "dispute_id": dispute_id,
                "registration_index": index,
                "nullifier_hash": signal.nullifier_hash,
                "root": signal.claimed_root,
            },
        )
        return index

    def submit_phase1_ballot(self, dispute_id: int, ciphertext: bytes, now: int) -> int:
        dispute = self._get(dispute_id)
        self._sync(dispute, now)
        if dispute.state not in (
            DisputeState.EVIDENCE_OPEN,
            DisputeState.PHASE1_VOTING,
        ):
            raise WrongState(f"no Phase-1 intake in {dispute.state.value}")
        return self._intake(dispute_id, dispute.phase1_poll, ciphertext, now)

    def close_phase1(self, dispute_id: int, now: int) -> str:
        """Returns "tallied", "extended", or "aborted"."""
        dispute = self._get(dispute_id)
        self._sync(dispute, now)
        if dispute.state != DisputeState.PHASE1_VOTING:
            raise WrongState(f"cannot close Phase 1 from {dispute.state.value}")
        poll = dispute.phase1_poll
        if now < poll.deadline:
            raise TooEarly(f"Phase 1 runs until {poll.deadline}")

        proposals = self.coordinator.proposals(poll)
        if len(proposals) >= dispute.config.min_judges:
            tally = self._commit(dispute_id, poll, now)
            dispute.phase1_scores = tally_phase1(tally, dispute.parties)
            dispute.proposals = proposals
            self._transition(dispute, DisputeState.PHASE1_TALLIED, now)
            return "tallied"

        # the deadline only moves forward, so it still reads t2 until extended
        if poll.deadline == dispute.config.t2:
            new_deadline = poll.deadline + dispute.config.span
            poll.extend_deadline(new_deadline)
            self.observe(
                "deadline_extended",
                {"dispute_id": dispute_id, "new_deadline": new_deadline},
            )
            return "extended"

        self.coordinator.release(poll)
        self._refund_joined(dispute)
        self._transition(dispute, DisputeState.ABORTED, now)
        return "aborted"

    # -- phase 2 -----------------------------------------------------------

    def start_phase2(self, dispute_id: int, now: int) -> MaciPoll:
        """Open the runoff: reveal Phase-1 scores, register the parties as
        voters funded by their own scores."""
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.PHASE1_TALLIED:
            raise WrongState(f"cannot start Phase 2 from {dispute.state.value}")
        assert dispute.phase1_scores is not None
        self._publish(dispute_id, dispute.phase1_poll)
        poll = MaciPoll(
            dispute_id * 2 + 1,
            self.coordinator.public,
            deadline=now + dispute.config.span,
            cost_rule="quadratic",
            options=len(dispute.proposals),
        )
        for party in dispute.parties:
            poll.register_voter(
                dispute.party_keys[party],
                credits=dispute.phase1_scores[party],
            )
        dispute.phase2_poll = poll
        self._transition(dispute, DisputeState.PHASE2_VOTING, now)
        return poll

    def submit_phase2_ballot(self, dispute_id: int, ciphertext: bytes, now: int) -> int:
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.PHASE2_VOTING:
            raise WrongState(f"no Phase-2 intake in {dispute.state.value}")
        assert dispute.phase2_poll is not None
        return self._intake(dispute_id, dispute.phase2_poll, ciphertext, now)

    def close_phase2(self, dispute_id: int, now: int) -> Phase2Tally:
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.PHASE2_VOTING:
            raise WrongState(f"cannot close Phase 2 from {dispute.state.value}")
        poll = dispute.phase2_poll
        assert poll is not None
        tally = self._commit(dispute_id, poll, now)  # TooEarly before its deadline
        dispute.phase2_tally = tally_phase2(tally, len(dispute.proposals))
        self._publish(dispute_id, poll)
        self._transition(dispute, DisputeState.RESOLVED, now)
        return dispute.phase2_tally

    # -- one poll lifecycle, shared by both phases -------------------------------

    def _intake(
        self, dispute_id: int, poll: MaciPoll, ciphertext: bytes, now: int
    ) -> int:
        index = poll.submit_message(ciphertext, now)
        self.observe(
            "ballot",
            {
                "dispute_id": dispute_id,
                "poll_id": poll.poll_id,
                "arrival_index": index,
                "ciphertext": ciphertext,
            },
        )
        self.coordinator.intake(poll)
        return index

    def _commit(self, dispute_id: int, poll: MaciPoll, now: int) -> dict[int, int]:
        """Close the poll and have the coordinator commit to its tally; returns it."""
        poll.close(now)
        tally, digest = self.coordinator.commit(poll)
        self.observe(
            "tally_commitment",
            {"dispute_id": dispute_id, "poll_id": poll.poll_id, "digest": digest},
        )
        return tally

    def _publish(self, dispute_id: int, poll: MaciPoll) -> None:
        tally, salt = self.coordinator.publish(poll)
        self.observe(
            "tally_published",
            {
                "dispute_id": dispute_id,
                "poll_id": poll.poll_id,
                "tally": tally,
                "salt": salt,
            },
        )

    # -- settlement -----------------------------------------------------------

    def settle(self, dispute_id: int, winning_judge: str) -> EscrowEntry:
        """Pay the escrowed pool (n*f) to the winning juror's wallet.
        Authorship of the winning proposal is the caller's claim to check —
        see the incentives layer."""
        dispute = self._get(dispute_id)
        if dispute.state != DisputeState.RESOLVED or dispute.settled:
            raise WrongState("settle requires a freshly resolved dispute")
        pool = dispute.fee * len(dispute.parties)
        entry = self.escrow.payout(dispute_id, winning_judge, pool)
        dispute.settled = True
        self.observe("escrow", entry._asdict())
        return entry

    def _refund_joined(self, dispute: Dispute) -> None:
        for party in dispute.parties:
            if party in dispute.party_keys:
                entry = self.escrow.refund(dispute.dispute_id, party, dispute.fee)
                self.observe("escrow", entry._asdict())
