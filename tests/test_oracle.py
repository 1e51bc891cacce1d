"""Strategy oracle: score laws, the analytic region, and the grid search."""
from __future__ import annotations

import math
from typing import Optional

import pytest

from disputekit.errors import InvalidResponse, NonPositiveBudget
from disputekit.oracle import (
    BResponse,
    brute_force_defeat,
    consistency_sweep,
    region_nonempty,
    score_1d1v,
    score_quadratic,
    square_grid_pairs,
)


def test_response_budget_validation() -> None:
    BResponse(1.0, 2.0, 3.0)  # exactly on budget: fine
    with pytest.raises(InvalidResponse):
        BResponse(3.0, 3.0, 3.0)
    with pytest.raises(InvalidResponse):
        BResponse(-0.5, 1.0, 3.0)
    with pytest.raises(InvalidResponse):
        BResponse(0.5, -1.0, 3.0)


def test_linear_scores() -> None:
    assert score_1d1v(10.0, BResponse(4.0, 6.0, 10.0)) == (6.0, 6.0)
    # strict win needs y2 > V_A - y1
    assert score_1d1v(10.0, BResponse(4.0, 5.0, 10.0)) == (6.0, 5.0)


def test_quadratic_scores() -> None:
    p1, p2 = score_quadratic(16.0, BResponse(4.0, 9.0, 16.0))
    assert p1 == pytest.approx(4.0 - 2.0)
    assert p2 == pytest.approx(3.0)


# ---- analytic region ---------------------------------------------------------------


def test_region_examples() -> None:
    assert region_nonempty(16.0, 4.0) is False
    assert region_nonempty(10.0, 10.0) is True
    assert region_nonempty(10.0, 0.0) is False
    assert region_nonempty(12.0, 10.0) is True


def test_region_witness_point_from_band() -> None:
    # At (V_A, V_B) = (10, 10), y2 = 4 satisfies the strict band condition.
    v_a, v_b, y2 = 10.0, 10.0, 4.0
    assert abs(v_b - v_a - 2 * y2) < 2 * math.sqrt(v_a * y2)


def test_region_rejects_bad_budgets() -> None:
    for v_a, v_b in [(0.0, 5.0), (-1.0, 5.0), (5.0, -1.0)]:
        with pytest.raises(NonPositiveBudget):
            region_nonempty(v_a, v_b)


def scan_region(v_a: float, v_b: float, step: float = 1e-3) -> bool:
    """Independent oracle: numerically scan the band condition itself."""
    steps = int(v_b / step) + 1
    for j in range(steps + 1):
        y2 = min(j * step, v_b)
        if abs(v_b - v_a - 2 * y2) < 2 * math.sqrt(v_a * y2):
            return True
    return False


def test_region_matches_numeric_scan_on_integer_grid() -> None:
    for v_a in range(1, 13):
        for v_b in range(0, 13):
            assert region_nonempty(float(v_a), float(v_b)) == scan_region(
                float(v_a), float(v_b)
            ), (v_a, v_b)


# ---- brute force -------------------------------------------------------------------


def naive_search(
    v_a: float, v_b: float, mechanism: str, step: float
) -> Optional[BResponse]:
    """Literal double loop over the whole grid; first strict win in
    (y1, y2)-lexicographic order."""
    scorer = score_1d1v if mechanism == "1d1v" else score_quadratic
    n = int(math.floor(v_b / step + 1e-6))
    for i in range(n + 1):
        for j in range(n - i + 1):
            response = BResponse(i * step, j * step, v_b)
            p1_score, p2_score = scorer(v_a, response)
            if p2_score > p1_score:
                return response
    return None


@pytest.mark.parametrize("mechanism", ["1d1v", "quadratic"])
def test_search_matches_naive_double_loop(mechanism: str) -> None:
    for v_a in (1.0, 2.0, 3.0, 4.5, 6.0):
        for v_b in (0.0, 0.75, 1.0, 2.0, 3.0, 4.0, 5.5):
            result = brute_force_defeat(v_a, v_b, mechanism, 0.25)
            expected = naive_search(v_a, v_b, mechanism, 0.25)
            assert result.witness == expected, (v_a, v_b, mechanism)
            assert result.a_all_in_always_wins == (expected is None)


def test_linear_mechanism_richer_party_always_wins() -> None:
    for v_a in range(2, 16):
        for v_b in range(1, v_a):
            result = brute_force_defeat(float(v_a), float(v_b), "1d1v", 0.05)
            assert result.a_all_in_always_wins, (v_a, v_b)


def test_quadratic_witness_strictly_wins_and_is_feasible() -> None:
    result = brute_force_defeat(12.0, 10.0, "quadratic", 0.001)
    assert result.witness is not None
    p1_score, p2_score = score_quadratic(12.0, result.witness)
    assert p2_score > p1_score
    assert result.witness.y1 + result.witness.y2 <= 10.0 + 1e-6


def test_no_witness_outside_region() -> None:
    result = brute_force_defeat(16.0, 4.0, "quadratic", 0.001)
    assert result.witness is None and result.a_all_in_always_wins


def test_score_monotonicity() -> None:
    # defender score falls as y1 grows; attacker score rises with y2
    for mechanism, scorer in [("1d1v", score_1d1v), ("quadratic", score_quadratic)]:
        last_p1 = math.inf
        for i in range(0, 21):
            p1_score, _ = scorer(9.0, BResponse(i * 0.25, 0.0, 10.0))
            assert p1_score <= last_p1
            last_p1 = p1_score
        last_p2 = -math.inf
        for j in range(0, 21):
            _, p2_score = scorer(9.0, BResponse(0.0, j * 0.25, 10.0))
            assert p2_score >= last_p2
            last_p2 = p2_score


def test_brute_force_input_validation() -> None:
    with pytest.raises(NonPositiveBudget):
        brute_force_defeat(0.0, 1.0, "1d1v", 0.1)
    with pytest.raises(ValueError):
        brute_force_defeat(2.0, 1.0, "1d1v", 0.0)
    with pytest.raises(ValueError):
        brute_force_defeat(2.0, 1.0, "cubic", 0.1)


# ---- consistency sweep ---------------------------------------------------------------


def test_sweep_small_grid_no_hard_disagreements() -> None:
    report = consistency_sweep(square_grid_pairs(10), 0.01)
    assert report.hard_disagreements == ()
    # both mechanisms reported for every V_A > V_B pair
    assert len(report.rows) == 2 * sum(range(10))  # 2 * C(10,2)


def test_sweep_disagreements_are_derived_from_the_rows() -> None:
    """At a grid step of 4 the brute force misses 24 quadratic witnesses,
    every one within quantization reach of the region boundary."""
    report = consistency_sweep(square_grid_pairs(16), 4.0)
    assert len(report.rows) == 240
    assert len(report.disagreements) == 24
    assert report.hard_disagreements == ()
    for row in report.disagreements:
        assert row.mechanism == "quadratic"
        assert row.witness is None and row.region_nonempty


def test_sweep_rows_carry_witness_coordinates() -> None:
    report = consistency_sweep([(12.0, 10.0)], 0.01)
    quad_rows = [r for r in report.rows if r.mechanism == "quadratic"]
    assert len(quad_rows) == 1
    assert quad_rows[0].witness is not None
    assert quad_rows[0].witness.y1 >= 0 and quad_rows[0].witness.y2 > 0
    linear_rows = [r for r in report.rows if r.mechanism == "1d1v"]
    assert linear_rows[0].a_all_in_always_wins and linear_rows[0].witness is None


def test_sweep_skips_pairs_without_budget_gap() -> None:
    report = consistency_sweep([(5.0, 5.0), (4.0, 6.0)], 0.01)
    assert report.rows == ()
