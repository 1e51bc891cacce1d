"""Tests of the benchmark itself, on small sizes.

    python3 -m pytest benchmarks -q

Outside the repository's Tier-1 run (its `testpaths` is `tests`).
"""
from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE_SIZES = {
    "jury": {"jurors": 12},
    "docket": {"disputes": 10, "pool": 6, "parties": 6},
    "registry": {"humans": 240, "batch": 10},
    "audit": {"jurors": 12, "messages": 15},
}


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("inputs")
    inputs = {}
    for name, sizes in SMOKE_SIZES.items():
        inputs[name] = root / name
        workloads.generate(name, 5, inputs[name], **sizes)
    return inputs


def _metric_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(smoke_inputs, name, trace) -> None:
    result = run.measure(name, smoke_inputs[name], 0, trace, perf_counter())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = _metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_trace_output_holds_only_numbers_and_fixed_labels(smoke_inputs) -> None:
    labels = {target[2] for target in tracing._TARGETS} | {"cli.schema", "cli.report_dump"}
    metric_names = set(_metric_units("per_layer"))
    for name, inputs in smoke_inputs.items():
        subprocess.run([sys.executable, str(HERE / "worker.py"), name, str(inputs), "1", "1"],
                       check=True, capture_output=True)
        trace = json.loads((inputs / "trace.json").read_text())
        assert set(trace) == {"metrics", "spans"}
        assert set(trace["metrics"]) <= metric_names
        assert all(type(v) in (int, float) for v in trace["metrics"].values())
        assert trace["spans"], name
        for span_name, start, end, parent in trace["spans"]:
            assert span_name in labels
            assert type(start) is float and type(end) is float and start <= end
            assert type(parent) is int and -1 <= parent < len(trace["spans"])


def test_every_traced_layer_sees_work_somewhere(smoke_inputs) -> None:
    seen: set[str] = set()
    for name, inputs in smoke_inputs.items():
        result = run.measure(name, inputs, 0, True, perf_counter())
        seen |= {k for k, v in result["metrics"].items() if v["value"]}
    assert set(_metric_units("per_layer")) - seen == set()


def test_oracle_rejects_a_wrong_step_result_and_a_wrong_final_state(smoke_inputs) -> None:
    inputs = smoke_inputs["docket"]
    subprocess.run([sys.executable, str(HERE / "worker.py"), "docket", str(inputs), "0", "1"],
                   check=True, capture_output=True)
    report = json.loads((inputs / "report.json").read_text())
    oracle = json.loads((inputs / "oracle.json").read_text())
    attempted, failed = workloads.check_run_report(report, oracle)
    assert failed == 0 and attempted == len(report["steps"]) + 1

    closes = [s for s in report["steps"] if s["op"] == "close_phase1"]
    closes[0]["result"] = "aborted" if closes[0]["result"] != "aborted" else "tallied"
    assert workloads.check_run_report(report, oracle)[1] == 1
    report = json.loads((inputs / "report.json").read_text())
    report["snapshot"]["escrow_net"]["party00"] = 10**6
    assert workloads.check_run_report(report, oracle)[1] == 1


def test_audit_oracle_names_a_rejection_for_every_tampering(smoke_inputs) -> None:
    oracle = json.loads((smoke_inputs["audit"] / "oracle.json").read_text())
    verdicts = {item["name"]: item["verdict"] for item in oracle["batch"]}
    assert verdicts["phase1"] == verdicts["phase2"] == "accepted"
    for kind, reason in workloads.AUDIT_REASONS.items():
        assert verdicts[kind] == f"rejected: {reason}"


@pytest.mark.parametrize("name", ["jury", "docket", "registry"])
def test_inputs_are_a_function_of_the_seed(name) -> None:
    generate = workloads.GENERATORS[name]
    assert generate(3, **SMOKE_SIZES[name]) == generate(3, **SMOKE_SIZES[name])
    assert generate(3, **SMOKE_SIZES[name]) != generate(4, **SMOKE_SIZES[name])


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(400) == 95.0
    assert tracing.tail_percentile(1000) == 99.0
    p50, tail, pct = tracing.latency_summary([i / 1000 for i in range(1, 101)])
    assert (p50, tail, pct) == (50.0, 90.0, 90.0)


def test_pacer_scales_by_the_mean_speed_and_restores_the_alarm() -> None:
    pacer = pace.Pacer()
    pacer.start()
    began = perf_counter()
    while perf_counter() - began < 5 * pace.PERIOD_S:
        pace.reference()
    wall_s = perf_counter() - began
    pacer.stop()
    assert len(pacer.ticks) >= 4 and 0 < pacer.handler_s < wall_s
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pacer.scaled(wall_s) == pytest.approx((wall_s - pacer.handler_s) * pacer.speed())
    pacer.ticks = [2 * pace.REFERENCE_S, pace.REFERENCE_S / 2]  # half speed, then double
    assert pacer.speed() == pytest.approx(1.25)


def test_benchmark_json_names_the_metrics_the_tracer_emits() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    for metric in BENCHMARK["per_layer"]:
        assert run.metric_unit(metric["name"]) == metric["unit"]
