"""Strategy oracle for the runoff game the engine plays.

Party A holds V_A credits and goes all in on its proposal: ``isqrt(V_A)``
votes, the most its credits buy under ``COST_RULES["quadratic"]``. Party B
holds V_B < V_A and replies with integers: y1 votes against A's proposal
and y2 for its own, affordable under the same rule. ``b_first`` says
whether B's proposal was submitted before A's; a tie goes to the earlier
one.

Two exact routes answer "can B win?", and must agree on every pair:

* ``first_winning_reply`` tries every affordable reply in (y1, y2) order,
  priced by the engine's cost rule and judged by ``voting.tally_phase2``,
  and returns the first that wins, or None.
* ``b_can_win`` uses no engine code. For each y1, B's best y2 is
  ``isqrt(V_B - y1²)``, since more votes for B's own proposal never hurt
  it; B wins if that beats A's ``isqrt(V_A) - y1``, or ties it while B's
  proposal comes first.

``consistency_sweep`` runs both over every pair 1 <= V_B < V_A <= v_max,
in both orders.
"""
from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional

from .voting import COST_RULES, tally_phase2


def first_winning_reply(v_a: int, v_b: int, b_first: bool) -> Optional[tuple[int, int]]:
    """B's first affordable (y1, y2), in lexicographic order, that makes
    the engine's tally name B's proposal; None when no reply does."""
    a_option, b_option = (1, 0) if b_first else (0, 1)
    votes = isqrt(v_a)
    for y1 in range(isqrt(v_b) + 1):
        for y2 in range(isqrt(v_b) + 1):
            if COST_RULES["quadratic"]((y1, y2)) > v_b:
                break
            if tally_phase2({a_option: votes - y1, b_option: y2}, 2).winner == b_option:
                return y1, y2
    return None


def b_can_win(v_a: int, v_b: int, b_first: bool) -> bool:
    """Whether some y1 leaves B's best y2 ahead of A, or level with it
    while B's proposal comes first."""
    votes = isqrt(v_a)
    for y1 in range(isqrt(v_b) + 1):
        margin = isqrt(v_b - y1 * y1) - (votes - y1)
        if margin > 0 or margin == 0 and b_first:
            return True
    return False


class OracleResult(NamedTuple):
    """Both routes for one budget pair and proposal order: ``witness`` is
    ``first_winning_reply``'s answer, ``b_can_win`` the other route's."""

    v_a: int
    v_b: int
    b_first: bool
    witness: Optional[tuple[int, int]]
    b_can_win: bool


class SweepReport(NamedTuple):
    """One ``OracleResult`` per pair and order; what disagrees is derived
    from them."""

    rows: tuple[OracleResult, ...]

    @property
    def disagreements(self) -> tuple[OracleResult, ...]:
        """Rows where a winning reply exists but ``b_can_win`` says no, or
        the reverse."""
        return tuple(r for r in self.rows if (r.witness is not None) != r.b_can_win)


def consistency_sweep(v_max: int) -> SweepReport:
    """Both routes over every pair 1 <= V_B < V_A <= v_max, A's proposal
    first and then B's."""
    return SweepReport(tuple(
        OracleResult(v_a, v_b, b_first, first_winning_reply(v_a, v_b, b_first),
                     b_can_win(v_a, v_b, b_first))
        for v_a in range(2, v_max + 1)
        for v_b in range(1, v_a)
        for b_first in (False, True)
    ))
