"""Size sweep: how each hot path grows, with a fitted growth exponent.

    python3 benchmarks/sweep.py [--out .bench_work/sweep.json]

Not part of the gated benchmark runs. Times four cases at several sizes,
in this one process:

  * `close_phase1` on one dispute whose J jurors each cast one ballot;
  * Merkle insert + root for G members, reading the root after every
    insert as `group_join` does;
  * escrow deposit, deposit, payout for each of D disputes;
  * `disputekit sweep` (the oracle layer) at two `v_max`.

Each point is the median of up to three timings (fewer when one timing
takes over a second). The exponent is the least-squares slope of
log(time) against log(size): about 1 for linear growth, 2 for quadratic.
Prints a Markdown table and writes the same numbers as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from disputekit.cli import main as cli_main  # noqa: E402
from disputekit.engine import Escrow  # noqa: E402
from disputekit.primitives import MerkleTree, hash_bytes  # noqa: E402
from disputekit.scenario import World  # noqa: E402


def _time(prepare: Callable[[], Callable[[], object]]) -> float:
    """Median of up to three timings of the callable `prepare` returns;
    preparation is not timed."""
    samples: list[float] = []
    while len(samples) < 3 and sum(samples) < 1.0:
        action = prepare()
        start = perf_counter()
        action()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def close_phase1(jurors: int) -> Callable[[], object]:
    names = [f"juror{i:04d}" for i in range(jurors)]
    world = World(jurors, genesis_humans=names, tree_depth=12)
    for human in names:
        world.group_join(human)
    d = world.open_dispute("alice", ["bob"], 10, t1=1000, t2=3000, min_judges=1, now=1)
    world.join_dispute(d, "bob", 10, now=2)
    for human in names:
        world.enroll_judge(d, human, now=10)
    for i, human in enumerate(names):
        world.phase1_vote(d, human, ("alice", "bob")[i % 2], f"ruling {i}", 1000 + i)
    return lambda: world.close_phase1(d, 3000)


def merkle(members: int) -> Callable[[], object]:
    leaves = [hash_bytes(i.to_bytes(4, "big")) for i in range(members)]

    def run() -> None:
        tree = MerkleTree(12)
        for leaf in leaves:
            tree.insert(leaf)
            tree.root
    return run


def escrow(disputes: int) -> Callable[[], object]:
    def run() -> None:
        ledger = Escrow()
        for d in range(disputes):
            ledger.deposit(d, "a", 10)
            ledger.deposit(d, "b", 10)
            ledger.payout(d, "w", 20)
    return run


def oracle_sweep(v_max: int) -> Callable[[], object]:
    out = HERE.parent / ".bench_work" / "sweep.csv"

    def run() -> None:
        with contextlib.redirect_stderr(io.StringIO()):
            cli_main(["sweep", str(v_max), "0.05", "--out", str(out)])
    return run


CASES: list[tuple[str, str, Callable[[int], Callable[[], object]], tuple[int, ...]]] = [
    ("close_phase1", "jurors", close_phase1, (25, 200, 400, 800)),
    ("Merkle insert + root", "members", merkle, (1000, 2000, 4000)),
    ("Escrow, deposit-deposit-payout", "disputes", escrow, (2000, 4000, 8000)),
    ("disputekit sweep", "v_max", oracle_sweep, (40, 80)),
]


def growth_exponent(sizes: list[int], times: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Size sweep of the hot paths.")
    parser.add_argument("--out", default=str(HERE.parent / ".bench_work" / "sweep.json"))
    args = parser.parse_args(argv)
    (HERE.parent / ".bench_work").mkdir(exist_ok=True)
    rows = []
    print("| Case | Size | Time | Growth exponent |")
    print("| --- | --- | --- | --- |")
    for case, unit, build, sizes in CASES:
        times = [_time(lambda: build(size)) for size in sizes]
        exponent = growth_exponent(list(sizes), times)
        rows.append({"case": case, "unit": unit, "sizes": list(sizes),
                     "seconds": times, "exponent": exponent})
        print(f"| {case} | {' / '.join(map(str, sizes))} {unit} | "
              f"{' / '.join(f'{t:.3g}' for t in times)} s | {exponent:.2f} |", flush=True)
    Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
