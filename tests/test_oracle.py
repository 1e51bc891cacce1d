"""Strategy oracle: the integer runoff game, its two exact routes, and the
engine playing the oracle's answer through `World`."""
from __future__ import annotations

from math import isqrt
from typing import Optional

import pytest

from disputekit.cli import SWEEP_V_MAX
from disputekit.oracle import (
    OracleResult,
    SweepReport,
    b_can_win,
    consistency_sweep,
    first_winning_reply,
)
from disputekit.scenario import World
from disputekit.voting import COST_RULES, tally_phase2

ORDERS = pytest.mark.parametrize("b_first", [False, True], ids=["a-first", "b-first"])


def affordable_replies(v_b: int) -> list[tuple[int, int]]:
    """Every (y1, y2) with y1² + y2² <= V_B, in lexicographic order."""
    return [
        (y1, y2)
        for y1 in range(v_b + 1)
        for y2 in range(v_b + 1)
        if y1 * y1 + y2 * y2 <= v_b
    ]


def naive_first_reply(v_a: int, v_b: int, b_first: bool) -> Optional[tuple[int, int]]:
    """Literal double loop with the scores and the tie rule written out:
    A's all-in score isqrt(V_A) - y1 against B's y2."""
    for y1, y2 in affordable_replies(v_b):
        a_score = isqrt(v_a) - y1
        if y2 > a_score or (y2 == a_score and b_first):
            return y1, y2
    return None


# ---- the two routes ------------------------------------------------------------


def test_region_examples() -> None:
    """Pinned answers. At (4, 3) and (2, 1) B's best reply only ties, 1-1,
    so B wins exactly when its proposal was submitted first; the continuous
    model said B wins at (4, 3) and loses at (2, 1), in either order."""
    cases = {
        (12, 10, False): (1, 3),
        (12, 10, True): (0, 3),
        (4, 3, False): None,
        (4, 3, True): (1, 1),
        (2, 1, False): None,
        (2, 1, True): (0, 1),
        (16, 4, False): None,
        (16, 4, True): None,
    }
    for (v_a, v_b, b_first), reply in cases.items():
        assert first_winning_reply(v_a, v_b, b_first) == reply, (v_a, v_b, b_first)
        assert b_can_win(v_a, v_b, b_first) == (reply is not None), (v_a, v_b, b_first)


def test_quadratic_scores() -> None:
    """A's all-in score, isqrt(V_A), is the most votes its credits buy
    under the engine's quadratic cost rule."""
    cost = COST_RULES["quadratic"]
    for v_a in range(1, 401):
        votes = isqrt(v_a)
        assert cost((votes,)) <= v_a < cost((votes + 1,)), v_a


def test_region_matches_numeric_scan_on_integer_grid() -> None:
    """`b_can_win` against the literal scan of every affordable reply."""
    for v_a in range(1, 13):
        for v_b in range(0, 13):
            for b_first in (False, True):
                assert b_can_win(v_a, v_b, b_first) == (
                    naive_first_reply(v_a, v_b, b_first) is not None
                ), (v_a, v_b, b_first)


@ORDERS
def test_first_reply_matches_naive_double_loop(b_first: bool) -> None:
    for v_a in range(2, 41):
        for v_b in range(1, v_a):
            assert first_winning_reply(v_a, v_b, b_first) == naive_first_reply(
                v_a, v_b, b_first
            ), (v_a, v_b)


def test_quadratic_witness_strictly_wins_and_is_feasible() -> None:
    """The takeover probe's pair: bob's reply costs at most his 10 credits
    and beats alice's 3 votes, her proposal coming first."""
    y1, y2 = first_winning_reply(12, 10, False)
    assert y1 * y1 + y2 * y2 <= 10
    assert y2 > isqrt(12) - y1


def test_no_witness_outside_region() -> None:
    """Wherever `b_can_win` says no, every affordable reply leaves B below
    A, or level with A while A's proposal comes first."""
    for v_a in range(2, 31):
        for v_b in range(1, v_a):
            for b_first in (False, True):
                if b_can_win(v_a, v_b, b_first):
                    continue
                assert first_winning_reply(v_a, v_b, b_first) is None
                for y1, y2 in affordable_replies(v_b):
                    assert y2 < isqrt(v_a) - y1 + (not b_first), (v_a, v_b, y1, y2)


def test_score_monotonicity() -> None:
    """The rule `b_can_win` rests on, under the engine's tally: when B's
    proposal wins, it still wins with one more vote for it or one more
    against A's, whichever was submitted first."""
    for b_first in (False, True):
        a_option, b_option = (1, 0) if b_first else (0, 1)
        for a_score in range(-4, 6):
            for b_score in range(6):
                if tally_phase2({a_option: a_score, b_option: b_score}, 2).winner != b_option:
                    continue
                for more in ({a_option: a_score, b_option: b_score + 1},
                             {a_option: a_score - 1, b_option: b_score}):
                    assert tally_phase2(more, 2).winner == b_option, (b_first, more)


# ---- the sweep -------------------------------------------------------------------


def test_sweep_routes_agree_on_every_row_up_to_the_bound() -> None:
    report = consistency_sweep(SWEEP_V_MAX)
    assert len(report.rows) == SWEEP_V_MAX * (SWEEP_V_MAX - 1)
    assert report.disagreements == ()


def test_sweep_skips_pairs_without_budget_gap() -> None:
    """A row for each pair 1 <= V_B < V_A <= v_max, A's proposal first and
    then B's, and for no other pair."""
    report = consistency_sweep(5)
    assert [(r.v_a, r.v_b, r.b_first) for r in report.rows] == [
        (v_a, v_b, b_first)
        for v_a in range(2, 6)
        for v_b in range(1, v_a)
        for b_first in (False, True)
    ]


def test_sweep_rows_carry_witness_coordinates() -> None:
    rows = {(r.v_a, r.v_b, r.b_first): r for r in consistency_sweep(12).rows}
    assert rows[12, 10, False] == OracleResult(12, 10, False, (1, 3), True)
    assert rows[4, 3, False] == OracleResult(4, 3, False, None, False)
    assert rows[2, 1, True] == OracleResult(2, 1, True, (0, 1), True)


def test_sweep_disagreements_are_derived_from_the_rows() -> None:
    agree = OracleResult(4, 3, True, (1, 1), True)
    missing = OracleResult(4, 3, False, None, True)
    found = OracleResult(2, 1, True, (0, 1), False)
    report = SweepReport((agree, missing, found))
    assert report.disagreements == (missing, found)
    assert SweepReport((agree,)).disagreements == ()


# ---- the oracle's answer, played by the engine ---------------------------------


def bob_wins_runoff(v_a: int, v_b: int, b_first: bool, reply: tuple[int, int]) -> bool:
    """Stage one dispute whose Phase 1 funds alice with V_A credits and bob
    with V_B, and whose first two proposals are alice's and bob's in the
    stated order; alice goes all in, bob plays `reply`. Whether the
    engine's runoff winner is bob's proposal."""
    alice = [f"a{i}" for i in range(v_a)]
    bob = [f"b{i}" for i in range(v_b)]
    first, second = (bob, alice) if b_first else (alice, bob)
    jurors = [first[0], second[0], *first[1:], *second[1:]]
    world = World(100 * v_a + v_b, genesis_humans=jurors, tree_depth=4)
    for juror in jurors:
        world.group_join(juror)
    dispute = world.open_dispute("alice", ["bob"], 10, t1=100, t2=200, min_judges=1, now=0)
    world.join_dispute(dispute, "bob", 10, now=1)
    for offset, juror in enumerate(jurors):
        world.enroll_judge(dispute, juror, now=10 + offset)
    for offset, juror in enumerate(jurors):
        party = "alice" if juror in alice else "bob"
        world.phase1_vote(dispute, juror, party, f"proposal by {juror}", now=150 + offset)
    world.close_phase1(dispute, now=200)
    assert world.start_phase2(dispute, now=210) == {"alice": v_a, "bob": v_b}
    a_option, b_option = (1, 0) if b_first else (0, 1)
    against, own = reply
    world.phase2_vote(dispute, "alice", {a_option: isqrt(v_a)}, now=220)
    world.phase2_vote(dispute, "bob", {a_option: -against, b_option: own}, now=221)
    return world.close_phase2(dispute, now=310)["winner"] == b_option


@ORDERS
def test_the_engine_plays_the_oracles_answer(b_first: bool) -> None:
    """For every pair up to 8 credits: a reply the oracle names wins the
    engine's runoff, and where it names none, every affordable reply
    loses."""
    wrong = []
    for v_a in range(2, 9):
        for v_b in range(1, v_a):
            reply = first_winning_reply(v_a, v_b, b_first)
            if reply is not None:
                if not bob_wins_runoff(v_a, v_b, b_first, reply):
                    wrong.append((v_a, v_b, reply))
            elif any(bob_wins_runoff(v_a, v_b, b_first, r) for r in affordable_replies(v_b)):
                wrong.append((v_a, v_b, None))
    assert wrong == []
