"""The repository benchmark: seeded court workloads, end to end through the CLI.

    python3 benchmarks/run.py --workload jury --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table

Each workload is one closed-loop caller in one process, no threads. Inputs
are generated once per seed (under `.bench_work/`, reused while the seed and
the sources are unchanged), then the workload's command is repeated, each
repetition in a fresh interpreter (`worker.py`), until `--seconds` have
passed and at least `MIN_REPS` repetitions ran. Every repetition's output
is checked against the generator's oracle and must be byte-identical to the
first repetition's.

With `--trace 0` the result carries the end-to-end metrics (medians over the
repetitions of times at the host's reference speed, see `pace.py`); with
`--trace 1`, untraced and traced repetitions alternate and the result
carries the per-layer metrics of the traced ones plus `trace.overhead_s`.
The last line of standard output is the JSON result. Exit status is 0 when
a result was printed (correct or not), 2 when the benchmark could not run
at all, for example without the program's sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import LATENCY_OPS, tail_percentile  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
DEFAULT_SECONDS = 20
MIN_REPS = 3
MIN_TRACED_REPS = 2
AUDIT_PASSES = 4
# every workload's run must end within this many seconds of starting
TIME_LIMIT_S = 170

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".writes", ".scans",
                      ".entries_scanned", ".decrypt_attempts")):
        return "count"
    return "ratio"


def _fingerprint() -> str:
    digest = hashlib.sha256()
    for path in [HERE / "workloads.py", *sorted((ROOT / "src" / "disputekit").glob("*.py"))]:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def prepare_inputs(workload: str, seed: int) -> Path:
    """Generate the workload's inputs for this seed, or reuse them."""
    work = ROOT / ".bench_work"
    key = f"{workload}-{seed}-{_fingerprint()}"
    target = work / key
    if (target / "oracle.json").is_file():
        return target
    for stale in work.glob(f"{workload}-*"):
        shutil.rmtree(stale)
    partial = work / f"partial-{key}"
    shutil.rmtree(partial, ignore_errors=True)
    workloads.generate(workload, seed, partial)
    partial.rename(target)
    return target


def _run_worker(workload: str, inputs: Path, trace: bool,
                started: float) -> dict[str, Any]:
    remaining = TIME_LIMIT_S - (perf_counter() - started)
    if remaining <= 1:
        raise BenchmarkError("out of time before the minimum repetitions ran")
    command = [sys.executable, str(HERE / "worker.py"), workload, str(inputs),
               "1" if trace else "0", str(AUDIT_PASSES)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a repetition ran past the time limit") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(
            f"repetition failed with exit {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check(workload: str, inputs: Path, oracle: dict, sample: dict,
           checked: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """(attempted, failed) for one repetition, against the oracle."""
    if workload == "audit":
        expected = [item["verdict"] for item in oracle["batch"]] * AUDIT_PASSES
        codes = [0 if verdict == "accepted" else 1 for verdict in expected]
        got = list(zip(sample["lines"], sample["codes"]))
        failed = sum(g != e for g, e in zip(got, zip(expected, codes)))
        return len(expected), failed + abs(len(got) - len(expected))
    key = sample["sha256"]
    if key not in checked:
        report = json.loads((inputs / "report.json").read_text())
        checked[key] = workloads.check_run_report(report, oracle)
    return checked[key]


def measure(workload: str, inputs: Path, seconds: float, trace: bool,
            started: float) -> dict[str, Any]:
    """Run one workload on generated inputs; returns the result object plus
    a `summary` of human-readable lines. `started` is when this workload's
    run began, for the time limit."""
    oracle = json.loads((inputs / "oracle.json").read_text())
    modes = (False, True) if trace else (False,)
    minimum = {False: MIN_REPS if not trace else 1, True: MIN_TRACED_REPS}
    samples: dict[bool, list[dict]] = {False: [], True: []}
    checked: dict[str, tuple[int, int]] = {}
    attempted = failed = diverged = 0
    reference = None
    deadline = perf_counter() + seconds
    longest = 0.0
    while True:
        enough = all(len(samples[m]) >= minimum[m] for m in modes)
        if enough and (perf_counter() >= deadline or
                       perf_counter() + longest > started + TIME_LIMIT_S - 5):
            break
        mode = modes[sum(len(s) for s in samples.values()) % len(modes)]
        began = perf_counter()
        sample = _run_worker(workload, inputs, mode, started)
        longest = max(longest, perf_counter() - began)
        items, misses = _check(workload, inputs, oracle, sample, checked)
        reference = reference or sample["sha256"]
        if sample["sha256"] != reference:
            misses = items  # not byte-identical to the first repetition
            diverged += 1
        attempted += items
        failed += misses
        samples[mode].append(sample)

    summary = [f"workload {workload}  trace {int(trace)}  inputs {inputs.name}"]
    if diverged:
        summary.append(f"  {diverged} repetitions were not byte-identical to the first")
    plain = samples[False]
    if trace:
        metrics, repeat_misses = _layer_metrics(samples[True], plain, summary)
        failed += repeat_misses
    else:
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            values = [s[name] for s in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            summary.append(_describe(name, unit, values))
        for name in ("wall_s", "setup_wall_s"):
            summary.append(_describe(f"({name}, unscaled)", "s", [s[name] for s in plain]))
        summary.append(_describe("(host speed ÷ reference)", "x", [s["speed"] for s in plain]))
    summary.append(f"  {'fail_ratio':28s} {failed / attempted:.6g} ratio   "
                   f"({failed} of {attempted} checked items failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summary": summary}


def _describe(name: str, unit: str, values: list[float]) -> str:
    line = f"  {name:28s} {statistics.median(values):.6g} {unit:5s} median of {len(values)}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  (quartiles {q1:.6g} .. {q3:.6g})"
    return line


def _layer_metrics(traced: list[dict], plain: list[dict],
                   summary: list[str]) -> tuple[dict[str, Any], int]:
    """Medians of the traced repetitions' per-layer metrics. Counts and
    ratios must repeat exactly; each one that does not counts as a miss."""
    misses = 0
    metrics: dict[str, Any] = {}
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        unit = metric_unit(name)
        if unit in ("count", "ratio") and len(set(values)) != 1:
            misses += 1
            summary.append(f"  {name} did not repeat: {values}")
        value = statistics.median(values)
        metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
        summary.append(_describe(name, unit, values))
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    summary.append(f"  {'trace.overhead_s':28s} {overhead:.6g} s     traced wall time median "
                   f"of {len(traced)} minus untraced median of {len(plain)}")
    for op in LATENCY_OPS:
        count = traced[0]["latency_samples"][op]
        pct = tail_percentile(count)
        if pct is not None:
            summary.append(f"  scenario.op.{op}.tail_ms is p{pct:g} of {count} samples")
    return metrics, misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held out for re-checking claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import disputekit.cli
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(disputekit.cli.__file__).resolve().parent != ROOT / "src" / "disputekit":
        print(f"disputekit was imported from {disputekit.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            started = perf_counter()
            inputs = prepare_inputs(name, args.seed)
            result = measure(name, inputs, args.seconds, bool(args.trace), started)
            print("\n".join(result.pop("summary")), flush=True)
            results[name] = result
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
