"""Strategy oracle for the two-mechanism runoff game.

Model: party A holds V_A credits and goes all-in on its proposal; party B
holds V_B < V_A and splits its budget into y1 votes *against* A's
proposal and y2 votes *for* its own. Under one-dollar-one-vote the final
scores are (V_A - y1, y2); under quadratic pricing they are
(sqrt(V_A) - sqrt(y1), sqrt(y2)). "B defeats A" means strictly greater —
ties never win.

Two independent routes answer "can B ever win?":

* ``region_nonempty`` — closed-form: some y2 in [0, V_B] satisfies
  |V_B - V_A - 2*y2| < 2*sqrt(V_A*y2), the non-empty-band condition for
  the quadratic mechanism.
* ``brute_force_defeat`` — grid search over B's responses, returning the
  first winning response in (y1, y2)-lexicographic order.

``consistency_sweep`` runs both routes over a grid of budget pairs; its
report holds one ``OracleResult`` per pair and mechanism, and derives where
the routes disagree from them. Disagreements are only tolerated within
2 * grid_step of the region boundary, where grid quantization is allowed
to miss (or float ties to fabricate) a witness.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Literal, NamedTuple, Optional, Sequence

from .errors import InvalidResponse, NonPositiveBudget

Mechanism = Literal["1d1v", "quadratic"]
MECHANISMS: tuple[Mechanism, ...] = ("1d1v", "quadratic")

# slack for grid arithmetic: i*step may overshoot the budget by rounding
_GRID_SLACK = 1e-6


class BResponse(NamedTuple("BResponse", [("y1", float), ("y2", float),
                                          ("budget", float)])):
    """B's counter-allocation: y1 against A's proposal, y2 for B's own.
    Built positionally or by keyword, it refuses bad values either way."""

    __slots__ = ()

    def __new__(cls, y1: float, y2: float, budget: float) -> "BResponse":
        if y1 < 0 or y2 < 0:
            raise InvalidResponse("vote amounts must be non-negative")
        if y1 + y2 > budget + _GRID_SLACK:
            raise InvalidResponse(f"y1+y2 = {y1 + y2} exceeds budget {budget}")
        return tuple.__new__(cls, (y1, y2, budget))


def score_1d1v(v_a: float, response: BResponse) -> tuple[float, float]:
    """Linear pricing: every vote lands at face value."""
    return v_a - response.y1, response.y2


def score_quadratic(v_a: float, response: BResponse) -> tuple[float, float]:
    """Quadratic pricing: y credits buy sqrt(y) effective votes."""
    return math.sqrt(v_a) - math.sqrt(response.y1), math.sqrt(response.y2)


_SCORERS: dict[str, Callable[[float, BResponse], tuple[float, float]]] = {
    "1d1v": score_1d1v,
    "quadratic": score_quadratic,
}


def region_nonempty(v_a: float, v_b: float) -> bool:
    """Closed form for the quadratic mechanism: does any y2 in [0, V_B]
    satisfy |V_B - V_A - 2*y2| < 2*sqrt(V_A*y2)?

    With s = sqrt(y2) and a = sqrt(V_A) the two strict inequalities become
    2s^2 - 2as + (V_A - V_B) < 0 and 2s^2 + 2as + (V_A - V_B) > 0, sharing
    the discriminant 2*V_B - V_A. A solution interval exists iff
    max(lower roots) < min(upper root, sqrt(V_B)).
    """
    if v_a <= 0 or v_b < 0:
        raise NonPositiveBudget(f"V_A must be > 0 and V_B >= 0, got {v_a}, {v_b}")
    disc = 2.0 * v_b - v_a
    if disc <= 0:
        return False
    a = math.sqrt(v_a)
    d = math.sqrt(disc)
    lower = max((a - d) / 2.0, (-a + d) / 2.0)
    upper = min((a + d) / 2.0, math.sqrt(v_b))
    return lower < upper


def _always_win_region_nonempty(v_a: float, v_b: float, mechanism: str) -> bool:
    """Analytic 'B can strictly win' for either mechanism."""
    if mechanism == "quadratic":
        return region_nonempty(v_a, v_b)
    # linear: best case is all-in y2 = V_B against V_A - y1 >= V_A - 0
    return v_b > v_a


class OracleResult(NamedTuple):
    """Both routes for one budget pair and mechanism; ``witness`` is the
    brute force's first winning response for B, None when there is none."""

    v_a: float
    v_b: float
    mechanism: str
    witness: Optional[BResponse]
    region_nonempty: bool

    @property
    def a_all_in_always_wins(self) -> bool:
        return self.witness is None


def brute_force_defeat(
    v_a: float,
    v_b: float,
    mechanism: Mechanism,
    grid_step: float,
) -> OracleResult:
    """Search B's response grid {(i*step, j*step) : i+j <= V_B/step} for
    the first response (lexicographic in (y1, y2)) that strictly beats A's
    all-in score.

    Within each y1 row the defender's score is constant and B's own score
    is strictly increasing in y2, so a row holds a winner exactly when
    all-in on y2 wins. Rows that cannot win are skipped, and the first one
    that can is scanned for its smallest winning y2; results are identical
    to scanning every grid point.
    """
    if v_a <= 0 or v_b < 0:
        raise NonPositiveBudget(f"V_A must be > 0 and V_B >= 0, got {v_a}, {v_b}")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if mechanism not in _SCORERS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    scorer = _SCORERS[mechanism]

    n = int(math.floor(v_b / grid_step + _GRID_SLACK))
    witness: Optional[BResponse] = None
    for i in range(n + 1):
        y1 = i * grid_step
        budget_left = n - i
        if not _wins(scorer, v_a, y1, budget_left, grid_step, v_b):
            continue  # even all-in on y2 cannot win this row
        j = 0  # the row's first winner; at the latest j = budget_left, all-in
        while not _wins(scorer, v_a, y1, j, grid_step, v_b):
            j += 1
        witness = BResponse(y1, j * grid_step, v_b)
        break

    return OracleResult(
        v_a=v_a,
        v_b=v_b,
        mechanism=mechanism,
        witness=witness,
        region_nonempty=_always_win_region_nonempty(v_a, v_b, mechanism),
    )


def _wins(scorer, v_a: float, y1: float, j: int, grid_step: float, v_b: float) -> bool:
    p1_score, p2_score = scorer(v_a, BResponse(y1, j * grid_step, v_b))
    return p2_score > p1_score


# ---- two-route consistency ---------------------------------------------------


class SweepReport(NamedTuple):
    """The ``OracleResult`` of each pair and mechanism; what disagrees is
    derived from them."""

    grid_step: float
    rows: tuple[OracleResult, ...]

    @property
    def disagreements(self) -> tuple[OracleResult, ...]:
        """Rows whose witness existence differs from the closed form's."""
        return tuple(
            r for r in self.rows if (r.witness is not None) != r.region_nonempty
        )

    @property
    def hard_disagreements(self) -> tuple[OracleResult, ...]:
        """Disagreements beyond quantization reach of the region boundary."""
        band = 2.0 * self.grid_step
        return tuple(
            r for r in self.disagreements
            if not _near_region_boundary(r.v_a, r.v_b, r.mechanism, band)
        )


def _near_region_boundary(
    v_a: float, v_b: float, mechanism: str, tolerance: float
) -> bool:
    """True when nudging V_B by the tolerance flips the analytic region —
    i.e. (V_A, V_B) sits within quantization reach of the boundary."""
    below = max(v_b - tolerance, 0.0)
    return _always_win_region_nonempty(
        v_a, below, mechanism
    ) != _always_win_region_nonempty(v_a, v_b + tolerance, mechanism)


def consistency_sweep(
    pairs: Iterable[tuple[float, float]],
    grid_step: float,
) -> SweepReport:
    """Run both mechanisms' brute force against the analytic region over
    every (V_A, V_B) pair with V_A > V_B.

    The richer party must always win under 1d1v (the brute force must find
    no witness), and under quadratic pricing witness existence must match
    the analytic band except within 2*grid_step of its boundary.
    """
    rows = tuple(
        brute_force_defeat(v_a, v_b, mechanism, grid_step)
        for v_a, v_b in pairs
        if v_a > v_b
        for mechanism in MECHANISMS
    )
    return SweepReport(grid_step, rows)


def square_grid_pairs(v_max: int) -> list[tuple[float, float]]:
    """All integer budget pairs {1..v_max}^2 (the sweep filters V_A > V_B)."""
    if v_max < 2:
        raise ValueError("v_max must be at least 2")
    return [
        (float(v_a), float(v_b))
        for v_a in range(1, v_max + 1)
        for v_b in range(1, v_max + 1)
    ]
