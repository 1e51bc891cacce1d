"""Tally rules for both phases: pure functions, no I/O, no crypto.

Phase 1 is one-juror-one-vote over the parties, each ballot carrying the
juror's proposed resolution. Phase 2 is quadratic voting by the parties
over those proposals: casting v votes on a proposal costs v² credits,
negative votes allowed, ties broken toward the earliest-submitted
proposal.

Which ballots count, and what each may spend, is decided once, by the
ballot-replay rule of ``maci`` under the cost rules below. The tallies here
only map a poll's committed tally, keyed by vote option, onto the parties
or the proposals.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import REASON_OVER_BUDGET, Verdict

# Spending rules, keyed by name so ballot transcripts can say which one
# applied: the credits an allocation spends, or None when the rule forbids
# its amounts. "linear": unit-priced, no negatives (juror phase).
# "quadratic": v votes cost v*v, negatives allowed (party runoff phase).
COST_RULES: dict[str, Callable[[Sequence[int]], Optional[int]]] = {
    "linear": lambda amounts: None if any(a < 0 for a in amounts) else sum(amounts),
    "quadratic": lambda amounts: sum(a * a for a in amounts),
}


def tally_phase1(tally: Mapping[int, int], parties: Sequence[str]) -> dict[str, int]:
    """Map a Phase-1 poll's tally (option i is party i) onto the parties'
    scores; every party appears, even at 0."""
    return {party: tally.get(i, 0) for i, party in enumerate(parties)}


# ---- quadratic phase -----------------------------------------------------------


class QuadraticAllocation(NamedTuple):
    """One party's Phase-2 ballot: signed votes per proposal index."""

    voter: str
    votes: Mapping[int, int]


def quadratic_cost(votes: Mapping[int, int]) -> int:
    """Credits consumed by an allocation: sum of squared vote counts."""
    return COST_RULES["quadratic"](votes.values())


def validate_allocation(
    allocation: QuadraticAllocation, credits: int
) -> Verdict:
    """Budget rule: the whole allocation must fit, not each entry alone."""
    if quadratic_cost(allocation.votes) > credits:
        return Verdict.reject(REASON_OVER_BUDGET)
    return Verdict.accept()


class Phase2Tally(NamedTuple):
    proposal_scores: Mapping[int, int]
    winner: int


def tally_phase2(tally: Mapping[int, int], proposals: int) -> Phase2Tally:
    """Map a Phase-2 poll's tally onto proposals 0 .. proposals-1 (option k
    is proposal k, in submission order); highest score wins, the
    earliest-submitted proposal wins ties. A proposal no ballot named
    scores 0."""
    scores = {k: tally.get(k, 0) for k in range(proposals)}
    # max keeps the first maximal item: the earliest-submitted proposal
    winner = max(scores, key=scores.__getitem__)
    return Phase2Tally(scores, winner)
