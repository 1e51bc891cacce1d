"""Tally rules: mapping a poll's tally onto parties and proposals,
quadratic budgets, winners, and tie-breaks."""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from disputekit.voting import (
    COST_RULES,
    QuadraticAllocation,
    quadratic_cost,
    tally_phase1,
    tally_phase2,
    validate_allocation,
)

def test_phase1_counts_per_party() -> None:
    tally = tally_phase1({0: 3, 1: 1}, ["A", "B"])  # option i is party i
    assert tally == {"A": 3, "B": 1}


def test_phase1_zero_ballots_all_zero() -> None:
    tally = tally_phase1({}, ["A", "B"])
    assert tally == {"A": 0, "B": 0}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), max_size=40))
def test_phase1_conservation(choices: list[int]) -> None:
    poll_tally: dict[int, int] = {}
    for option in choices:
        poll_tally[option] = poll_tally.get(option, 0) + 1
    tally = tally_phase1(poll_tally, ["A", "B", "C"])
    assert sum(tally.values()) == len(choices)


# ---- quadratic costs -------------------------------------------------------------


def test_quadratic_cost_worked_example() -> None:
    assert quadratic_cost({1: 3, 2: -2}) == 13


def test_quadratic_cost_square_law() -> None:
    for n in range(0, 101):
        assert quadratic_cost({1: n}) == n * n
        assert quadratic_cost({1: -n}) == n * n


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(INT64, max_size=8),
        st.lists(st.integers(0, 2**63 - 1), max_size=8),
    )
)
def test_cost_rules_price_amounts_or_forbid_them(amounts: list[int]) -> None:
    """Each cost rule gives the credits an allocation spends, or None when it
    forbids the amounts: linear forbids exactly the lists with a negative
    amount and otherwise charges their sum; quadratic forbids none."""
    linear = COST_RULES["linear"](amounts)
    if any(a < 0 for a in amounts):
        assert linear is None
    else:
        assert linear == sum(amounts)
    assert COST_RULES["quadratic"](amounts) == sum(a * a for a in amounts)


def test_validate_allocation_budget_boundary() -> None:
    alloc = QuadraticAllocation("A", {1: 3, 2: -2})  # cost 13
    assert validate_allocation(alloc, 13).ok
    verdict = validate_allocation(alloc, 12)
    assert not verdict.ok and verdict.reason == "OverBudget"


def test_budget_is_aggregate_not_per_entry() -> None:
    alloc = QuadraticAllocation("A", {1: 2, 2: 2})  # 4 + 4 = 8
    assert not validate_allocation(alloc, 7).ok
    assert validate_allocation(alloc, 8).ok


# ---- phase-2 tally ----------------------------------------------------------------


def test_phase2_signed_sum_and_winner() -> None:
    # the poll's signed sums of {0: 3, 1: -2} and {1: 3}
    tally = tally_phase2({0: 3, 1: 1}, 2)
    assert tally.proposal_scores == {0: 3, 1: 1}
    assert tally.winner == 0


def test_phase2_tie_goes_to_earliest_submitted() -> None:
    tally = tally_phase2({2: 2, 1: 2}, 3)
    assert tally.proposal_scores == {0: 0, 1: 2, 2: 2}
    assert tally.winner == 1


def test_phase2_zero_allocations_tie_break() -> None:
    tally = tally_phase2({}, 3)
    assert tally.proposal_scores == {0: 0, 1: 0, 2: 0}
    assert tally.winner == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2]),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=20,
    ),
    st.randoms(use_true_random=False),
)
def test_phase2_is_linear_and_order_invariant(
    entries: list[tuple[int, int]], rng: random.Random
) -> None:
    def poll_tally(votes: list[tuple[int, int]]) -> dict[int, int]:
        summed: dict[int, int] = {}
        for pid, amount in votes:
            summed[pid] = summed.get(pid, 0) + amount
        return summed

    expected = {0: 0, 1: 0, 2: 0}
    for pid, votes in entries:
        expected[pid] += votes
    tally = tally_phase2(poll_tally(entries), 3)
    assert dict(tally.proposal_scores) == expected

    shuffled = entries[:]
    rng.shuffle(shuffled)
    assert tally_phase2(poll_tally(shuffled), 3) == tally
