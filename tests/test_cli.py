"""Command-line surface: exit codes, byte-stable reports, artifact formats."""
from __future__ import annotations

import copy
import csv
import gc
import hashlib
import inspect
import io
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from support import (
    REFERENCE_STEPS,
    STRUCTURAL_FAULTS,
    load_workloads,
    naive_replay,
    plant_double_booked_payouts,
    reference_fault,
    reference_refusal,
    reference_transcript,
    resolved_court,
)

import disputekit.cli as cli
import disputekit.oracle as oracle
from disputekit.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    commitment_to_jsonable,
    main,
    transcript_from_jsonable,
    transcript_to_jsonable,
)
from disputekit import maci
from disputekit.engine import Escrow
from disputekit.errors import MalformedScript
from disputekit.maci import (
    AuditTranscript,
    Command,
    TranscriptEntry,
    digest_over_entries,
    message_set_digest,
    sign_command,
)
from disputekit.primitives import KeyPair, hash_bytes
from disputekit.scenario import (
    _FIELD_SCHEMAS,
    _OPS,
    _STEP_CHECKS,
    SCENARIO_SCHEMA,
    World,
    _call_op,
    _check,
    _document_schema,
    _integral,
    _step_schema,
    run_scenario,
    scenario_schema,
    validate,
)

REPO = Path(__file__).resolve().parent.parent
HAPPY = REPO / "scenarios" / "happy_path.json"
STALLED = REPO / "scenarios" / "stalled_court.json"


def write_json(path: Path, document) -> str:
    path.write_text(json.dumps(document, indent=2))
    return str(path)


# ---- run -------------------------------------------------------------------------


def test_run_happy_path_exits_zero(capsys) -> None:
    assert main(["run", str(HAPPY)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["expected_match"]
    assert all("invariant" not in entry for entry in (report, *report["steps"]))


@pytest.mark.parametrize(
    "step",
    [
        {"op": "apply_reputation", "t": 400, "dispute": 0,
         "expect": "error:AlreadyRecorded"},
        {"op": "issue_party_sbt", "t": 400, "dispute": 0, "party": "bob",
         "complied": True, "deadline_passed": False,
         "expect": "error:AlreadyRecorded"},
        {"op": "issue_party_sbt", "t": 400, "dispute": 0, "party": "alice",
         "complied": False, "deadline_passed": False, "expect": "error:TooEarly"},
    ],
    ids=["reputation-twice", "token-twice", "window-open"],
)
def test_protocol_refusals_are_step_errors(tmp_path, capsys, step) -> None:
    """A refusal by the protocol is a step error a script can expect, not
    a malformed script (exit 2)."""
    script = json.loads(HAPPY.read_text())
    script["timeline"].append(step)
    assert main(["run", write_json(tmp_path / "s.json", script)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["steps"][-1]["error"] == step["expect"].split(":")[1]


@pytest.mark.parametrize(
    "position, step",
    [
        (16, {"op": "phase1_vote", "t": 150, "dispute": 0, "judge": "judge0",
              "party": "mallory", "proposal": "mallory keeps the crate"}),
        (22, {"op": "phase2_vote", "t": 220, "dispute": 0, "party": "mallory",
              "allocations": {"0": 1}}),
    ],
    ids=["phase1_vote", "phase2_vote"],
)
def test_a_vote_naming_an_outsider_is_not_a_party(position, step) -> None:
    """A vote for or by someone outside the dispute is the step error
    NotAParty, as evidence and a compliance token are, not a malformed
    script; it is refused before any draw, so every other step, the
    snapshot and the public record read as in a run without it."""
    assert_refused_before_any_draw(position, step, "NotAParty")


def assert_refused_before_any_draw(position: int, step: dict, error: str) -> None:
    """`step`, inserted into the happy path at `position`, reads as the step
    error `error`, and every other step, the snapshot and the public record
    read as in a run without it."""
    script = json.loads(HAPPY.read_text())
    plain = run_scenario(script)
    script["timeline"].insert(position, dict(step, expect=f"error:{error}"))
    report = run_scenario(script)
    refused = report["steps"].pop(position)
    assert (refused["status"], refused["error"], refused["pass"]) == (
        "error", error, True)
    assert report["ok"]
    for entry in report["steps"][position:]:
        entry["position"] -= 1
    assert report == plain


@pytest.mark.parametrize(
    "position, step",
    [
        (16, {"op": "phase1_vote", "t": 150, "dispute": 0, "judge": "judge3",
              "party": "alice", "proposal": "judge3 was never drawn"}),
        (29, {"op": "claim_fee", "t": 400, "dispute": 0, "judge": "judge3",
              "wallet": "wallet-judge3"}),
    ],
    ids=["phase1_vote", "claim_fee"],
)
def test_a_juror_who_never_enrolled_is_not_a_juror(position, step) -> None:
    """A Phase-1 vote or a fee claim by a group member who never enrolled in
    the dispute (judge3) is the step error NotAJuror, not a malformed
    script, and is refused before any draw."""
    assert_refused_before_any_draw(position, step, "NotAJuror")


@pytest.mark.parametrize(
    "op", sorted(op for op, (required, _) in _OPS.items() if "dispute" in required)
)
def test_a_step_naming_a_dispute_never_opened_is_an_unknown_reference(
    tmp_path, capsys, op
) -> None:
    """Whether the world or the engine would look the dispute up first, a
    step naming one never opened makes the script malformed (exit 2), as a
    step naming an unknown actor does; it is not the step error WrongState."""
    step = {**minimal_step(op), "t": 400, "dispute": 9}
    # actors the happy path knows, so the dispute is the one unknown reference
    step.update({k: v for k, v in (("judge", "judge0"), ("party", "alice")) if k in step})
    script = json.loads(HAPPY.read_text())
    script["timeline"].append(step)
    assert main(["run", write_json(tmp_path / "s.json", script)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "malformed scenario: step 29: unknown reference 9\n"


def test_run_stalled_court_exits_zero(capsys) -> None:
    assert main(["run", str(STALLED)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["snapshot"]["disputes"]["0"]["state"] == "Aborted"
    assert report["snapshot"]["disputes"]["1"]["state"] == "DefaultJudgment"


def test_run_reports_are_byte_identical(tmp_path) -> None:
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(HAPPY), "--out", str(first)]) == EXIT_OK
    assert main(["run", str(HAPPY), "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_run_writes_one_line_of_sorted_compact_json(tmp_path) -> None:
    out = tmp_path / "report.json"
    assert main(["run", str(HAPPY), "--out", str(out)]) == EXIT_OK
    report = run_scenario(json.loads(HAPPY.read_text()))
    assert out.read_text() == (
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(HAPPY)],
        ["sweep", "4", "0.5"],
    ],
)
@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, argv, where) -> None:
    """A file that cannot be written is a usage error: one line, no
    traceback. `sweep` learns it before any sweep work."""

    def sweep(*args):
        raise AssertionError("swept before checking --out")

    monkeypatch.setattr(oracle, "consistency_sweep", sweep)
    out = tmp_path / where
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


# SHA-256 of `disputekit run` stdout for each bundled scenario. A change
# that alters report bytes on purpose updates these and says why.
GOLDEN_REPORT_DIGESTS = {
    "happy_path.json": "02cca7d29445d3e793b908fdcd800927df27df735fceafc72ac00ed23fda61d6",
    "stalled_court.json": "5d62ace72b57a22e53597f547bb85a49e4ba0e67f540ab3c11f17d2cb47c1ead",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_DIGESTS))
def test_run_report_bytes_are_pinned(capsys, name) -> None:
    assert main(["run", str(REPO / "scenarios" / name)]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_REPORT_DIGESTS[name]


# SHA-256 of the `--out` report of each benchmark workload, at full size, at
# the default seed and the held-out one. Pinned with the bundled scenarios'
# digests above; a change to the workload generator updates these too.
GOLDEN_WORKLOAD_DIGESTS = {
    ("jury", 1): "cb3aceb97fe285fe4414cac9b594867cb550c097040d4d34d31647d9b23c4a9a",
    ("jury", 7919): "41d9e7c756ca7ae938ae2d8ca648699294cc9ecbb5dd4850ed87c49f53dcb2f6",
    ("docket", 1): "cd34676b26c7c98e79b59a66ec4880b3aded9c382968c3f88897d09350e00c22",
    ("docket", 7919): "877bd23ac7aae934c4aad2e4a9b0333abe54361b02180c21f4438b3163203649",
    ("registry", 1): "03fb5b0f4181774d5feaf5524d5bdcd0c976d22e60a09154ed8eb2c7eb9c409e",
    ("registry", 7919): "55016771cbfe675c6e4075c37f11ef89a64318e1a438dcc0d1b025e0ef4e029d",
}


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN_WORKLOAD_DIGESTS))
def test_workload_report_bytes_are_pinned(tmp_path, workload, seed) -> None:
    script, _ = load_workloads().GENERATORS[workload](seed)
    out = tmp_path / "report.json"
    assert main(["run", write_json(tmp_path / "s.json", script), "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_WORKLOAD_DIGESTS[(workload, seed)]


# ---- a large poll's worker -----------------------------------------------------


@pytest.fixture(scope="module")
def forked_jury() -> dict:
    """A generated jury of MIN_FORKED_COMMANDS jurors, whose Phase-1 poll
    is processed by a worker as its ballots arrive."""
    script, _ = load_workloads().jury(1, jurors=maci.MIN_FORKED_COMMANDS)
    return script


def assert_no_child_process() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def drop_a_world_with_an_open_large_poll() -> int:
    """Votes into a poll large enough for a worker, then drops the world
    before the poll closes; returns the number of workers started."""
    names = [f"juror{i:03d}" for i in range(maci.MIN_FORKED_COMMANDS)]
    world = World(5, genesis_humans=names)
    for human in names:
        world.group_join(human)
    d = world.open_dispute("alice", ["bob"], 10, t1=100, t2=200, min_judges=1, now=0)
    world.join_dispute(d, "bob", 10, now=1)
    for human in names:
        world.enroll_judge(d, human, now=10)
    for human in names[:20]:
        world.phase1_vote(d, human, "alice", "a ruling", now=100)
    workers = len(world.engine.coordinator._forked)
    del world
    return workers


@pytest.mark.parametrize("case", ["jury", "malformed", "unwritable-out", "dropped-world"])
def test_no_process_outlives_a_command(tmp_path, monkeypatch, forked_jury, case) -> None:
    """After a run whose large poll had a worker, this process has no child
    left, running or exited: a jury run, a script that turns malformed while
    the worker runs, a run whose `--out` cannot be written, and a world
    dropped while its large poll is still open."""
    gc.collect()  # finalize what earlier tests dropped
    assert_no_child_process()
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    started = []
    start = maci._start_worker
    monkeypatch.setattr(
        maci, "_start_worker", lambda *args: started.append(1) or start(*args)
    )
    script = copy.deepcopy(forked_jury)
    out = tmp_path / "report.json"
    if case == "dropped-world":
        assert drop_a_world_with_an_open_large_poll() == 1
    elif case == "malformed":
        timeline = script["timeline"]
        votes = [i for i, step in enumerate(timeline) if step["op"] == "phase1_vote"]
        middle = votes[len(votes) // 2]
        timeline.insert(middle, {"op": "enroll_judge", "t": timeline[middle]["t"],
                                 "dispute": 0, "judge": "nobody"})
        assert main(["run", write_json(tmp_path / "s.json", script)]) == EXIT_USAGE
        assert_no_child_process()
        # reaped even while the caller holds the traceback, and with it the world
        with pytest.raises(MalformedScript):
            try:
                run_scenario(script)
            finally:
                assert_no_child_process()
    else:
        if case == "unwritable-out":
            out = tmp_path / "missing" / "report.json"
        code = main(["run", write_json(tmp_path / "s.json", script), "--out", str(out)])
        assert code == (EXIT_OK if case == "jury" else EXIT_USAGE)
    assert started  # a worker ran
    assert_no_child_process()


def _no_process() -> int:
    raise OSError("no more processes")


@pytest.mark.parametrize("failure", ["killed mid-intake", "fork fails"])
def test_a_failed_worker_gives_the_same_report(
    tmp_path, monkeypatch, forked_jury, failure
) -> None:
    """A worker killed halfway through the ballots, or one that cannot be
    forked: the Phase-1 poll's replay continues here from the start, and the
    report is byte for byte the one of a run with one usable core, where no
    worker starts."""
    path = write_json(tmp_path / "s.json", forked_jury)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 1)
    assert main(["run", path, "--out", str(tmp_path / "here.json")]) == EXIT_OK

    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    sends, opened = [], []
    send, real_open = maci._Driver.send, maci._open

    def send_then_kill(driver, poll, ask):
        sends.append(1)
        if len(sends) == maci.MIN_FORKED_COMMANDS // 2:
            os.kill(driver.child.pid, signal.SIGKILL)
        return send(driver, poll, ask)

    if failure == "fork fails":
        monkeypatch.setattr(os, "fork", _no_process)
    else:
        monkeypatch.setattr(maci._Driver, "send", send_then_kill)
    monkeypatch.setattr(maci, "_open", lambda key, ct: opened.append(1) or real_open(key, ct))
    assert main(["run", path, "--out", str(tmp_path / "failed.json")]) == EXIT_OK
    report = json.loads((tmp_path / "failed.json").read_text())
    ballots = sum(kind == "ballot" for _, kind, _ in report["view"])
    assert len(opened) == ballots  # both polls' ballots, each opened here once
    assert (tmp_path / "failed.json").read_bytes() == (tmp_path / "here.json").read_bytes()
    assert_no_child_process()


@pytest.mark.parametrize("scenario", [HAPPY, STALLED], ids=["happy", "stalled"])
def test_the_stdout_report_is_the_out_report(tmp_path, capsys, scenario) -> None:
    out = tmp_path / "report.json"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(["run", str(scenario)]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def naive_report_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fault", [False, True], ids=["honest", "ledger-fault"])
def test_an_empty_timeline_reports_as_the_naive_writer_writes(
    tmp_path, monkeypatch, capsys, fault
) -> None:
    """No steps: the `steps` list is empty, and a broken invariant is named
    on the report, as in every run."""
    if fault:
        monkeypatch.setattr(Escrow, "conserved", lambda self: False)
    script = {"seed": 4, "config": {"genesis_humans": ["ana"]}, "timeline": [],
              "expected": {"poh": {"ana": "Approved"}}}
    path = write_json(tmp_path / "empty.json", script)
    assert main(["run", path]) == (EXIT_FAIL if fault else EXIT_OK)
    report = run_scenario(script)
    assert ("invariant" in report) == fault and report["expected_match"]
    assert capsys.readouterr().out == naive_report_text(report)


_ROWS = cli.REPORT_SLICE_ROWS
_TEXT = st.text(max_size=6)  # any code point, so non-ASCII ones too
_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _TEXT
# int keys sort as numbers before JSON writes them as strings: a tally with
# ten or more options sorts "10" after "9"
_TALLIES = st.dictionaries(st.integers(0, 14), st.integers(0, 99), max_size=15) | st.builds(
    lambda options: {option: 7 * option for option in range(options)},
    st.integers(10, 13),
)
_VALUES = st.recursive(
    _SCALARS | _TALLIES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _rows(draw) -> list:
    """A top-level list of 0, 1, N-1, N, N+1 or 2N+1 rows, N rows a slice."""
    count = draw(st.sampled_from([0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1]))
    shapes = draw(st.lists(_VALUES, min_size=1, max_size=4))
    return [[seq, "event", shapes[seq % len(shapes)]] for seq in range(count)]


@st.composite
def _reports(draw) -> dict:
    report = {
        "seed": draw(st.integers(-(2**63), 2**63)),
        "steps": draw(_rows()),
        "snapshot": draw(st.dictionaries(_TEXT, _VALUES, max_size=4)),
        "view": draw(_rows()),
        "ok": draw(st.booleans()),
    }
    if draw(st.booleans()):
        report["invariant"] = draw(_TEXT)
    if draw(st.booleans()):
        report["expected_match"] = draw(st.booleans())
    return report


@settings(max_examples=50, deadline=None)
@given(report=_reports())
def test_report_pieces_are_the_naive_text(report) -> None:
    """Differential check of the piecewise writer against one `json.dumps`
    of the whole report."""
    assert "".join(cli.report_pieces(report)) == naive_report_text(report)


def test_writing_a_report_holds_a_slice_not_the_text(tmp_path, monkeypatch) -> None:
    """`run` writes a report of 4 MB or more while holding under a quarter
    of its text: never the whole text, its newline copy or its bytes."""
    view = [[seq, "ballot", {"ciphertext": f"{seq:08x}" * 50, "dispute_id": seq}]
            for seq in range(10_000)]
    report = {"seed": 1, "steps": [], "snapshot": {}, "view": view, "ok": True}
    length = len(naive_report_text(report))
    assert length >= 4 * 2**20
    monkeypatch.setattr(cli, "run_scenario", lambda script, seed: report)
    out = tmp_path / "report.json"
    cli.build_parser()
    tracemalloc.start()
    try:
        assert main(["run", str(HAPPY), "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == length
    assert peak < length / 4


def test_run_seed_override_changes_bytes(tmp_path, capsys) -> None:
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(HAPPY), "--out", str(first)]) == EXIT_OK
    assert main(["run", str(HAPPY), "--seed", "99", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() != second.read_bytes()
    assert json.loads(second.read_text())["seed"] == 99


def test_run_wrong_expectation_exits_one(tmp_path, capsys) -> None:
    script = json.loads(HAPPY.read_text())
    script["expected"]["disputes"]["0"]["winner"] = 3
    path = write_json(tmp_path / "wrong.json", script)
    assert main(["run", path]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert json.loads(captured.out)["expected_match"] is False
    assert "final-state expectation" in captured.err


def test_run_failed_step_exits_one_and_names_it(tmp_path, capsys) -> None:
    script = json.loads(HAPPY.read_text())
    for step in script["timeline"]:
        if step["op"] == "close_phase1":
            step["expect_result"] = "aborted"
    path = write_json(tmp_path / "wrong-step.json", script)
    assert main(["run", path]) == EXIT_FAIL
    assert "close_phase1" in capsys.readouterr().err


def test_run_ledger_fault_exits_one_without_traceback(monkeypatch, capsys) -> None:
    plant_double_booked_payouts(monkeypatch)
    assert main(["run", str(HAPPY)]) == EXIT_FAIL
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["invariant"] == "escrow conservation violated"
    assert all(step["pass"] and "invariant" not in step for step in report["steps"])
    # the invariant is named once, on its own, and blames no step
    assert captured.err == "failed: escrow conservation violated\n"


def test_run_names_a_broken_invariant_with_no_steps(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setattr(Escrow, "conserved", lambda self: False)
    path = write_json(tmp_path / "empty.json", {"seed": 1, "timeline": []})
    assert main(["run", path]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert json.loads(captured.out)["invariant"] == "escrow conservation violated"
    assert captured.err == "failed: escrow conservation violated\n"


@pytest.mark.parametrize("corrupt", STRUCTURAL_FAULTS)
def test_run_schema_violations_exit_two(tmp_path, capsys, corrupt) -> None:
    script = json.loads(HAPPY.read_text())
    named = corrupt(script)
    path = write_json(tmp_path / "bad.json", script)
    assert main(["run", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # no report on a rejected file
    assert captured.err.startswith("malformed scenario: ")
    for words in named:
        assert words in captured.err


# nested past the interpreter's recursion limit, so a recursive parser fails
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def test_run_deeply_nested_json_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "deep.json"
    path.write_text(DEEP_ARRAY)
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read scenario: ")
    assert captured.err.count("\n") == 1


def test_run_deeply_nested_expected_block_exits_two(tmp_path, capsys) -> None:
    # parses and fits the schema (`expected` is any object), but is too deep
    # for the runner to walk
    path = tmp_path / "deep-expected.json"
    path.write_text(
        '{"seed": 1, "timeline": [], "expected": '
        + '{"a": ' * 900 + "{}" + "}" * 900 + "}"
    )
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "malformed scenario: nested too deeply to read\n"


def as_floats(node):
    """`node` with every integer, booleans aside, written as a float."""
    if isinstance(node, dict):
        return {key: as_floats(value) for key, value in node.items()}
    if isinstance(node, list):
        return [as_floats(value) for value in node]
    if isinstance(node, int) and not isinstance(node, bool):
        return float(node)
    return node


def at_depth_two(script):
    script["config"]["tree_depth"] = 2
    return script


@pytest.mark.parametrize(
    "script",
    [
        json.loads(HAPPY.read_text()),
        json.loads(STALLED.read_text()),
        at_depth_two(json.loads(STALLED.read_text())),
    ],
    ids=["happy", "stalled", "stalled_depth_2"],
)
def test_integral_floats_run_as_integers(tmp_path, script) -> None:
    """JSON Schema counts `25.0` as an integer, so the runner must too: a
    scenario with every integer written as a float, or with one deep in
    its timeline, reports the same bytes. A script with no float is not
    copied."""
    assert _integral(script) is script
    twin = as_floats(script)
    assert isinstance(twin["config"]["tree_depth"], float)
    nested = copy.deepcopy(script)
    nested["timeline"][-1]["t"] = float(nested["timeline"][-1]["t"])
    reports = []
    for name, doc in (("original", script), ("twin", twin), ("nested", nested)):
        out = tmp_path / f"{name}.report.json"
        path = write_json(tmp_path / f"{name}.json", doc)
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_run_accepts_the_deepest_tree(tmp_path, capsys) -> None:
    script = json.loads(HAPPY.read_text())
    script["config"]["tree_depth"] = 32
    assert main(["run", write_json(tmp_path / "deep.json", script)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"]


def test_run_unparseable_file_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "garbage.json"
    path.write_text('{"seed": 7, "timeline": [')
    assert main(["run", str(path)]) == EXIT_USAGE
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_duplicate_key_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "twice.json"
    path.write_text(HAPPY.read_text().replace('"seed": 7,', '"seed": 7, "seed": 8,', 1))
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot read scenario: duplicate key 'seed'\n"


def test_run_non_utf8_file_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"seed": 7, "timeline": [], "note": "\xff"}')
    assert main(["run", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("cannot read scenario: 'utf-8' codec")


def test_run_missing_file_exits_two(tmp_path, capsys) -> None:
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_USAGE
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_out_of_order_timestamps_exit_two(tmp_path, capsys) -> None:
    script = json.loads(HAPPY.read_text())
    script["timeline"][0], script["timeline"][-1] = (
        script["timeline"][-1],
        script["timeline"][0],
    )
    path = write_json(tmp_path / "shuffled.json", script)
    assert main(["run", path]) == EXIT_USAGE
    assert "malformed scenario" in capsys.readouterr().err


def test_published_schema_file_matches_the_generator() -> None:
    published = json.loads((REPO / "scenarios" / "scenario.schema.json").read_text())
    assert published == scenario_schema() == SCENARIO_SCHEMA


def test_schema_conforms_to_its_metaschema() -> None:
    # so `REFERENCE` below is the judge `jsonschema.validate` would use
    draft = jsonschema.validators.validator_for(SCENARIO_SCHEMA)
    assert draft is jsonschema.Draft202012Validator
    draft.check_schema(SCENARIO_SCHEMA)


# ---- the scenario check against the reference validator -----------------------

BUNDLED = [json.loads(path.read_text()) for path in (HAPPY, STALLED)]
# one value of each JSON type; 2.0 is an integer to JSON Schema, not to Python
OTHER_TYPES = [0, 2.0, 1.5, "x", True, None, [], {}]


def paths(node, prefix=()):
    """The path of every value inside `node`, itself included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, (*prefix, key))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


INTEGER_FIELDS = ["t", "fee", "t1", "t2", "min_judges", "dispute"]
# step field values of the field's own type, or of none, at a keyword's edge
REVALUES = [
    ("t", -1),
    ("expect", "ok\n"),
    ("expect", "maybe"),
    ("respondents", []),
    ("respondents", ["bob", "bob"]),
    ("allocations", {"x": 1}),
    ("allocations", {"00": 1}),
    ("allocations", {"1": 1.5}),
    *[(field, value) for field in INTEGER_FIELDS for value in (2.0, 2.5, True)],
    ("t", -0.5),
    ("t1", 0.5),
]


def takers(doc, field):
    """The positions of `doc`'s steps whose op's branch declares `field`."""
    return [
        position
        for position, step in enumerate(doc["timeline"])
        if field in _step_schema(step["op"])["properties"]
    ]


def revalued(doc, position, field, value):
    doc = copy.deepcopy(doc)
    doc["timeline"][position][field] = copy.deepcopy(value)
    return doc


@st.composite
def one_field_mutations(draw):
    """A bundled scenario with one key dropped or added, one value's type
    swapped, one step field set to a `REVALUES` value, one step's `op` made
    unknown, or one step made a non-object."""
    doc = draw(st.sampled_from(BUNDLED))
    kind = draw(
        st.sampled_from(["drop", "add", "retype", "revalue", "op", "non_object"])
    )
    if kind == "revalue":
        field, value = draw(
            st.sampled_from([(f, v) for f, v in REVALUES if takers(doc, f)])
        )
        return revalued(doc, draw(st.sampled_from(takers(doc, field))), field, value)
    doc = copy.deepcopy(doc)
    if kind in ("drop", "retype"):
        *parent, key = draw(st.sampled_from([p for p in paths(doc) if p]))
        container = value_at(doc, parent)
        if kind == "drop":
            del container[key]
        else:
            old = container[key]
            container[key] = draw(
                st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)])
            )
    elif kind == "add":
        objects = [p for p in paths(doc) if isinstance(value_at(doc, p), dict)]
        container = value_at(doc, draw(st.sampled_from(objects)))
        key = draw(st.sampled_from(["unknown", "fee", "human", "dispute", "expect"]))
        container.setdefault(key, draw(st.sampled_from(OTHER_TYPES)))
    else:
        position = draw(st.integers(0, len(doc["timeline"]) - 1))
        if kind == "op":
            doc["timeline"][position]["op"] = draw(
                st.sampled_from(["fly_to_moon", "", ["group_join"], 3, 2.5])
            )
        else:
            doc["timeline"][position] = draw(st.sampled_from([1, "step", None, [], True]))
    return doc


# the class `jsonschema.validate` picks for the schema, built once: the call
# form re-checks the schema against its meta-schema every time; it tries
# every branch of the `oneOf`
REFERENCE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def refusal(doc):
    """The words `scenario.validate` refuses `doc` with, or None."""
    try:
        validate(doc)
    except MalformedScript as exc:
        return str(exc).removeprefix("fails the schema: ")
    return None


# document values at a keyword's edge, or of a type its key does not take
ENVELOPE_EDGES = [
    # 0.5 and 32.5 break two keywords at one path: `type` is named, found first
    *[(("config", "tree_depth"), value) for value in (0, 1, 32, 33, 32.0, True, 0.5, 32.5)],
    *[(("config", "challenge_window"), value) for value in (0, 1.0)],
    *[
        (("config", "genesis_humans"), value)
        for value in (["judge0", "judge0"], ["judge0", 3], [])
    ],
    *[(("seed",), value) for value in (2.0, True, "7")],
    (("unknown",), 1),
    (("config", "unknown"), 1),
    (("expected",), []),
    (("timeline",), {}),
]


def with_each_envelope_edge(test):
    """`test` with one explicit example per `ENVELOPE_EDGES` entry, set on
    the first bundled scenario."""
    for (*parent, key), value in ENVELOPE_EDGES:
        doc = copy.deepcopy(BUNDLED[0])
        value_at(doc, parent)[key] = copy.deepcopy(value)
        test = example(doc=doc)(test)
    return test


def with_each_revalue(test):
    """`test` with one explicit example per `REVALUES` entry, on the first
    bundled step that takes its field, so each edge value runs every time
    and not only when drawn."""
    for field, value in REVALUES:
        doc = next(doc for doc in BUNDLED if takers(doc, field))
        test = example(doc=revalued(doc, takers(doc, field)[0], field, value))(test)
    return test


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@with_each_revalue
@with_each_envelope_edge
@given(doc=one_field_mutations())
def test_scenario_check_agrees_with_the_reference_validator(tmp_path, doc) -> None:
    """The check refuses what jsonschema refuses, in jsonschema's words."""
    words = refusal(doc)
    assert (words is None) == REFERENCE.is_valid(doc)
    assert words == reference_refusal(doc)
    path = write_json(tmp_path / "mutated.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", path])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if words is not None:
        assert (code, out.getvalue()) == (EXIT_USAGE, "")
        assert err.getvalue() == f"malformed scenario: fails the schema: {words}\n"


# the least of each JSON type a step field takes, unless it states a minimum
MINIMAL = {"string": "x", "integer": 0, "boolean": False, "array": ["x"], "object": {}}


def minimal_step(op):
    branch = _step_schema(op)
    fields = {field: branch["properties"][field] for field in branch["required"]}
    return {
        "op": op,
        **{
            field: schema.get("minimum", MINIMAL[schema["type"]])
            for field, schema in fields.items()
            if field != "op"
        },
    }


@pytest.mark.parametrize("op", sorted(_OPS))
def test_each_compiled_branch_accepts_a_minimal_step(op) -> None:
    step = minimal_step(op)
    jsonschema.validate(step, _step_schema(op))
    check = _STEP_CHECKS[op]
    assert check(step) is None
    assert check({**step, "op": f"not_{op}"}) == (("op",), f"{op!r} was expected")


class RecordingWorld:
    """Stands in for a World: records each op call, and knows dispute 0,
    the one a minimal step names."""

    def __init__(self) -> None:
        self.engine = SimpleNamespace(disputes={0: None})
        self.calls: list = []

    def __getattr__(self, op):
        return lambda *args, **kwargs: self.calls.append((op, args, kwargs))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_the_runner_calls_each_op_as_its_world_method_binds_it(op) -> None:
    """`_call_op` gives the World method of a step's op each of the step's
    fields, optional ones included, under the parameter of its name, and
    the step's `t` as `now` exactly when the method takes `now`; checked
    against the method's signature as `inspect` reads it."""
    optional = {field: MINIMAL[_FIELD_SCHEMAS[field]["type"]] for field in _OPS[op][1]}
    step = {**minimal_step(op), **optional, "t": 17}
    world = RecordingWorld()
    _call_op(world, op, step)
    [(called, args, kwargs)] = world.calls
    signature = inspect.signature(getattr(World, op))
    bound = signature.bind(world, *args, **kwargs).arguments
    fields = {key: value for key, value in step.items() if key not in ("op", "t")}
    if "now" in signature.parameters:
        fields["now"] = 17
    assert called == op
    assert bound == {"self": world, **fields}


# values at a keyword's edge, of a type no field takes, or of a field's own type
STEP_VALUES = [
    2.0, 2.5, True, -1, "ok\n", [], {"x": 1}, {"1": 1.5},
    0, 7, False, "x", "ok", "error:WrongFee", ["x", "y"], [3], {}, {"-3": 2}, None,
]


def step_keys(op):
    """`op`'s own keys, and some it does not take."""
    own = sorted(_step_schema(op)["properties"])
    return own, sorted(set(_FIELD_SCHEMAS) - set(own)) + ["unknown"]


def assert_step_check_agrees(op, step) -> None:
    """The compiled branch names the fault jsonschema's names, if any."""
    assert _STEP_CHECKS[op](step) == reference_fault(REFERENCE_STEPS[op], step), step


@pytest.mark.parametrize("op", sorted(_OPS))
def test_each_step_check_agrees_with_its_branch_on_one_edit(op) -> None:
    """A minimal step with one key dropped, or set to each `STEP_VALUES`."""
    own, foreign = step_keys(op)
    for key in own:
        assert_step_check_agrees(op, {k: v for k, v in minimal_step(op).items() if k != key})
    for key in own + foreign:
        for value in STEP_VALUES:
            assert_step_check_agrees(op, {**minimal_step(op), key: copy.deepcopy(value)})


@pytest.mark.parametrize("op", sorted(_OPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_step_check_agrees_with_its_branch(op, data) -> None:
    """A minimal step with up to four keys dropped, set or added."""
    own, foreign = step_keys(op)
    step = minimal_step(op)
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["drop", "set", "set", "add"]))
        if kind == "drop" and step:
            del step[data.draw(st.sampled_from(sorted(step)))]
        elif kind != "drop":
            key = data.draw(st.sampled_from(own if kind == "set" else foreign))
            step[key] = copy.deepcopy(data.draw(st.sampled_from(STEP_VALUES)))
    assert_step_check_agrees(op, step)


@pytest.mark.parametrize(
    "envelope, extend",
    [
        (False, lambda branch: branch.update(maxProperties=99)),
        (False, lambda branch: branch.update(additionalProperties=True)),
        (False, lambda branch: branch["properties"]["t"].update(exclusiveMaximum=99)),
        (True, lambda doc: doc["properties"]["config"]["properties"]["genesis_humans"]
         .update(maxItems=99)),
    ],
    ids=["on_the_branch", "open_branch", "on_a_field", "on_the_envelope"],
)
def test_a_keyword_the_step_check_does_not_read_fails_to_compile(envelope, extend) -> None:
    schema = _document_schema(True) if envelope else _step_schema("group_join")
    extend(schema)
    jsonschema.validate(BUNDLED[0] if envelope else minimal_step("group_join"), schema)
    with pytest.raises(ValueError, match="does not read"):
        _check(schema)


@pytest.mark.parametrize(
    "items",
    [
        [], ["a", "b"], ["a", "a"], [1, "1"], [1, 1.0], [1, True], [0, False],
        [True, True], [None, None], [{}, {}], [[], {}], [[1], [1.0]], [[1], [True]],
        [{"a": 1}, {"a": 1.0}], [{"a": 1}, {"a": True}], [{"a": [1]}, {"a": [1]}],
    ],
)
def test_unique_items_is_json_equality(items) -> None:
    """`uniqueItems` reads any array: a bool is no number, `1 == 1.0`, and
    lists and objects compare by their members."""
    schema = {"uniqueItems": True}
    validator = jsonschema.Draft202012Validator(schema)
    assert _check(schema)(items) == reference_fault(validator, items)


# ---- any document given to `run` keeps the exit contract ------------------------

NAMES = st.sampled_from(["alice", "bob", "judge0", "judge1", "judge2", "nobody", ""])
# negatives, past int64, past a float's exact range, and integral floats
NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, 10, 200, 2**63, 10**25, -5.0, 2.0, 200.0])
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | NUMBERS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["seed", "config", "timeline", "op", "t"])
        | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=10,
)
WELL_TYPED = {
    "integer": NUMBERS,
    "string": NAMES,
    "boolean": st.booleans(),
    "array": st.lists(NAMES, min_size=1, max_size=3),
    "object": st.dictionaries(
        st.sampled_from(["0", "1", "2", "-1"]), NUMBERS, max_size=3
    ),
}
# each op's schema branch, for the JSON type of its fields
BRANCHES = {
    branch["properties"]["op"]["const"]: branch["properties"]
    for branch in SCENARIO_SCHEMA["properties"]["timeline"]["items"]["oneOf"]
}


@st.composite
def schema_shaped_scenarios(draw):
    """A scenario of steps drawn from the runner's op table, each with its
    op's fields at edge values; one time step in five goes back."""
    timeline, t = [], 0
    for _ in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from(sorted(_OPS)))
        required, optional = _OPS[op]
        t += draw(st.sampled_from([0, 1, 10, 100, -1]))
        step = {"op": op, "t": t}
        for field in sorted(required) + sorted(optional):
            if field in required or draw(st.booleans()):
                step[field] = draw(WELL_TYPED[BRANCHES[op][field]["type"]])
        if draw(st.booleans()):
            step["expect"] = draw(st.sampled_from(["ok", "error:ZeroFee", "error:X"]))
        timeline.append(step)
    config = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "genesis_humans": st.lists(NAMES, unique=True, max_size=4),
                "challenge_window": NUMBERS,
                "tree_depth": st.sampled_from([0, 1, 2, 4, 12, 32, 33, 3.0]),
            },
        )
    )
    return {"seed": draw(NUMBERS), "config": config, "timeline": timeline}


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=JSON_VALUES | schema_shaped_scenarios())
def test_run_keeps_the_exit_contract_on_any_document(tmp_path, doc) -> None:
    path = write_json(tmp_path / "any.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", path])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == ""


# every JSON type, two kinds of bad hex, and the empty list and object
VERIFY_SWAPS = [*OTHER_TYPES, "zz", "abc"]


@st.composite
def one_field_verify_mutations(draw, transcript, record):
    """A real transcript and its commitment record, one of them with one
    key or list item dropped, or one value swapped for a `VERIFY_SWAPS`
    value."""
    docs = json.loads(json.dumps([transcript, record]))
    doc = draw(st.sampled_from(docs))
    *parent, key = draw(st.sampled_from([p for p in paths(doc) if p]))
    container = value_at(doc, parent)
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(st.sampled_from(VERIFY_SWAPS))
    return docs


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verify_keeps_the_exit_contract_under_mutation(
    tmp_path, audit_artifacts, data
) -> None:
    doc, record, _ = audit_artifacts
    doc, record = data.draw(one_field_verify_mutations(doc, record))
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["verify", t, c])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()


# ---- sweep -----------------------------------------------------------------------


def test_sweep_csv_shape_and_exit(tmp_path) -> None:
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "6", "0.05", "--out", str(out)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == [
        "V_A",
        "V_B",
        "mechanism",
        "always_wins",
        "region_nonempty",
        "witness_y1",
        "witness_y2",
    ]
    pairs = sum(1 for a in range(1, 7) for b in range(1, 7) if a > b)
    assert len(rows) == 1 + 2 * pairs
    for v_a, v_b, mechanism, always_wins, region, y1, y2 in rows[1:]:
        assert float(v_a) > float(v_b)
        assert mechanism in ("1d1v", "quadratic")
        assert always_wins in ("true", "false")
        assert region in ("true", "false")
        # a witness exists exactly when the all-in defence fails
        assert (y1 == "" and y2 == "") == (always_wins == "true")
        if mechanism == "1d1v":
            assert always_wins == "true"  # richer party cannot lose here


def test_sweep_names_each_hard_disagreement_and_exits_one(capsys, monkeypatch) -> None:
    """A row far from the region boundary whose witness existence differs
    from the closed form's is a hard disagreement: named on stderr, exit 1."""
    rows = (
        oracle.OracleResult(6.0, 2.0, "quadratic", None, True),
        oracle.OracleResult(6.0, 2.0, "1d1v", None, False),
    )
    monkeypatch.setattr(
        oracle, "consistency_sweep", lambda pairs, step: oracle.SweepReport(step, rows)
    )
    assert main(["sweep", "6", "0.5"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "6,2,quadratic,true,true,,", "6,2,1d1v,true,false,,"
    ]
    assert captured.err == (
        "2 rows, 0 boundary disagreements, 1 hard disagreements\n"
        "disagreement at V_A=6 V_B=2 mechanism=quadratic: "
        "witness missing but region_nonempty=True\n"
    )


def test_sweep_is_deterministic(tmp_path) -> None:
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "5", "0.1", "--out", str(first)]) == EXIT_OK
    assert main(["sweep", "5", "0.1", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_sweep_negative_control_exits_one(tmp_path, monkeypatch, capsys) -> None:
    honest = oracle._always_win_region_nonempty
    monkeypatch.setattr(
        oracle,
        "_always_win_region_nonempty",
        lambda v_a, v_b, mechanism: not honest(v_a, v_b, mechanism),
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "6", "0.05", "--out", str(out)]) == EXIT_FAIL
    assert "hard disagreement" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "1", "0.1"],
        ["sweep", "0", "0.1"],
        ["sweep", "abc", "0.1"],
        ["sweep", "5", "0"],
        ["sweep", "5", "-0.1"],
        ["sweep", "5"],
        ["run"],
        ["unknown-command"],
        [],
        # a step must be finite and no coarser than the budget grid
        ["sweep", "5", "inf"],
        ["sweep", "12", "1e300"],
        ["sweep", "12", "40"],
    ],
)
def test_usage_errors_exit_two(argv) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE


# ---- verify ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def audit_artifacts():
    court, dispute = resolved_court()
    poll = dispute.phase1_poll
    transcript = poll.audit_transcript()
    intake = message_set_digest([m.ciphertext for m in poll.messages])
    return (
        transcript_to_jsonable(transcript),
        commitment_to_jsonable(intake, poll.commitment),
        transcript,
    )


def test_transcript_round_trips(audit_artifacts) -> None:
    doc, _, transcript = audit_artifacts
    assert transcript_from_jsonable(doc) == transcript
    assert transcript_from_jsonable(json.loads(json.dumps(doc))) == transcript


_INT64 = st.integers(-(2**63), 2**63 - 1)
_TRANSCRIPTS = st.builds(
    AuditTranscript,
    poll_id=_INT64,
    cost_rule=st.text(max_size=10),
    options=_INT64,
    initial_voters=st.lists(
        st.tuples(st.binary(max_size=33), _INT64), max_size=3
    ).map(tuple),
    entries=st.lists(
        st.builds(
            TranscriptEntry,
            st.binary(max_size=32),
            st.none() | st.binary(max_size=40),
            st.booleans(),
            st.none() | st.text(max_size=12),
        ),
        max_size=3,
    ).map(tuple),
    tally=st.dictionaries(_INT64, _INT64, max_size=3),
    salt=st.binary(max_size=32),
)
_EDGES = AuditTranscript(
    poll_id=2**63 - 1,
    cost_rule="",
    options=-(2**63),
    initial_voters=((b"", -(2**63)),),
    entries=(TranscriptEntry(b"", None, False, None),),
    tally={},
    salt=b"",
)


@settings(max_examples=200, deadline=None)
@given(transcript=_TRANSCRIPTS)
@example(transcript=_EDGES)
def test_every_transcript_round_trips(transcript) -> None:
    """The writer is the records' fields, so a transcript of any shape reads
    back equal through JSON, and the writer's keys are the reader tables'
    keys, in order, at every level."""
    doc = transcript_to_jsonable(transcript)
    assert transcript_from_jsonable(json.loads(json.dumps(doc))) == transcript
    assert list(doc) == list(cli._TRANSCRIPT)
    assert all(list(entry) == list(cli._ENTRY) for entry in doc["entries"])
    assert list(commitment_to_jsonable(b"", b"")) == list(cli._RECORD)


# what a one-field mutation of a transcript's JSON form does
TRANSCRIPT_MUTATIONS = ("none", "drop", "add", "rename", "retype", "hex", "one")
# strings a hex field may hold instead: not hex, odd length, not ASCII,
# spaced between bytes (`bytes.fromhex` reads that) and upper case
HEX_SWAPS = ["zz", "abc", "\u00e9\u00e9", "ab cd", " ab", "AB0F", ""]


@st.composite
def mutated_transcripts(draw):
    """A transcript's JSON form as written, or with one field mutated: a
    key dropped, added or renamed; a value of another JSON type; a string
    that is not plain hex; `1` for `true` (or `0` for `false`)."""
    doc = json.loads(json.dumps(transcript_to_jsonable(draw(_TRANSCRIPTS))))
    mutation = draw(st.sampled_from(TRANSCRIPT_MUTATIONS))
    where = [path for path in paths(doc) if path]
    # a field of an entry or a voter, the items read in one step, when any
    items = [path for path in where if len(path) == 3]
    if items and draw(st.booleans()):
        where = items
    objects = [path for path in paths(doc) if isinstance(value_at(doc, path), dict)]
    if mutation in ("drop", "add", "rename"):
        container = value_at(doc, draw(st.sampled_from(objects)))
        if mutation == "add" or not container:
            container[draw(st.sampled_from(["junk", "valid", "0"]))] = 1
        else:
            key = draw(st.sampled_from(sorted(container)))
            value = container.pop(key)
            if mutation == "rename":
                container[key + "s"] = value
    elif mutation in ("retype", "hex"):
        *parent, key = draw(st.sampled_from(where))
        swaps = OTHER_TYPES if mutation == "retype" else HEX_SWAPS
        value_at(doc, parent)[key] = draw(st.sampled_from(swaps))
    elif mutation == "one":
        flags = [path for path in where if type(value_at(doc, path)) is bool]
        if flags:
            *parent, key = draw(st.sampled_from(flags))
            value_at(doc, parent)[key] = int(value_at(doc, parent)[key])
    return doc


def read_or_refusal(read, doc):
    try:
        return read(doc)
    except ValueError as exc:
        return f"refused: {exc}"


@settings(max_examples=400, deadline=None)
@given(doc=mutated_transcripts())
def test_the_transcript_reader_reads_as_the_field_by_field_reference(doc) -> None:
    """Differential check of `transcript_from_jsonable`, which reads each
    entry and voter in one step, against `support.reference_transcript`,
    which reads every field through its own reader: on written transcripts
    and on each one-field mutation, the same transcript or the same
    refusal, word for word."""
    expected = read_or_refusal(reference_transcript, doc)
    assert read_or_refusal(transcript_from_jsonable, doc) == expected


def test_each_field_swap_reads_as_the_field_by_field_reference(audit_artifacts) -> None:
    """Every field of an entry (one with a plaintext and no reason, one
    with a reason and no plaintext), at the first and the last place, and
    of a voter, swapped for every other JSON type and every `HEX_SWAPS`
    string, reads as `support.reference_transcript` reads it."""
    doc = audit_artifacts[0]
    unopened = dict(doc["entries"][0], plaintext=None, valid=False, reason="AuthFailure")
    for at in (0, -1):
        for key in cli._ENTRY:
            for swap in [*OTHER_TYPES, *HEX_SWAPS, 1, 0]:
                for entry in (doc["entries"][at], unopened):
                    entries = list(doc["entries"])
                    entries[at] = dict(entry, **{key: swap})
                    mutated = dict(doc, entries=entries)
                    assert read_or_refusal(transcript_from_jsonable, mutated) == (
                        read_or_refusal(reference_transcript, mutated)
                    )
    for field in (0, 1):
        for swap in [*OTHER_TYPES, *HEX_SWAPS, 1, 0]:
            voters = [list(voter) for voter in doc["initial_voters"]]
            voters[-1][field] = swap
            for voter in (voters[-1], voters[-1][:1], [*voters[-1], 0], tuple(voters[-1])):
                mutated = dict(doc, initial_voters=[*voters[:-1], voter])
                assert read_or_refusal(transcript_from_jsonable, mutated) == (
                    read_or_refusal(reference_transcript, mutated)
                )


def test_verify_honest_transcript(tmp_path, capsys, audit_artifacts) -> None:
    doc, record, _ = audit_artifacts
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_OK
    assert capsys.readouterr().out == "accepted\n"


def fresh_python(
    program: str, *args: str, stdout: int = subprocess.PIPE, stderr: int = subprocess.PIPE
) -> subprocess.CompletedProcess:
    """`program` run with `args` by a new interpreter, which finds disputekit
    where this one did; its stdout and stderr go to `stdout` and `stderr`,
    captured by default."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=120,
    )


def test_a_valid_run_and_a_verify_never_import_jsonschema(tmp_path, audit_artifacts) -> None:
    """No path needs jsonschema: with its import blocked, a fresh
    interpreter runs a valid scenario, refuses a malformed one in the
    check's own words, and verifies a transcript."""
    doc, record, _ = audit_artifacts
    transcript = write_json(tmp_path / "t.json", doc)
    commitment = write_json(tmp_path / "c.json", record)
    deep = json.loads(HAPPY.read_text())
    deep["config"]["tree_depth"] = 33
    calls = [
        ["run", str(HAPPY), "--out", str(tmp_path / "report.json")],
        ["run", write_json(tmp_path / "deep.json", deep)],
        ["verify", transcript, commitment],
    ]
    done = fresh_python(
        "import contextlib, io, sys\n"
        "sys.modules['jsonschema'] = None  # so that importing it fails\n"
        "from disputekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes)\n"
    )
    refused = (
        "malformed scenario: fails the schema: "
        "config.tree_depth: 33 is greater than the maximum of 32\n"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 2, 0]\n", refused)


def test_only_sweep_loads_the_oracle() -> None:
    """Importing the CLI loads the scenario layer, so that no import moves
    into the timed run, and not the oracle, which only `sweep` uses; `sweep`
    then imports it and succeeds. No command loads `csv`."""
    done = fresh_python(
        "import contextlib, io, sys\n"
        "import disputekit.cli\n"
        "print(sorted(name for name in ('csv', 'disputekit.oracle', 'disputekit.scenario')\n"
        "             if name in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = disputekit.cli.main(['sweep', '12', '0.5'])\n"
        "print(code, 'csv' in sys.modules)\n"
    )
    assert (done.returncode, done.stdout) == (0, "['disputekit.scenario']\n0 False\n")


def test_no_module_loads_dataclasses() -> None:
    """Importing the CLI loads neither `dataclasses` nor the `inspect` it
    imports, and no package module, the attacks and the oracle included,
    loads `dataclasses`: no record is a dataclass."""
    modules = sorted(
        path.stem for path in Path(cli.__file__).parent.glob("*.py")
        if path.stem != "__init__"
    )
    done = fresh_python(
        "import importlib, sys\n"
        "import disputekit.cli\n"
        "print(sorted(name for name in ('dataclasses', 'inspect') if name in sys.modules))\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('disputekit.' + name)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert "attacks" in modules and "oracle" in modules
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\nFalse\n", "")


_MAIN = "import sys\nfrom disputekit.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_a_stdout_with_no_reader_exits_two(tmp_path, audit_artifacts, command) -> None:
    """Each command that writes stdout, given a pipe whose reader is gone,
    exits 2 with one line on stderr and no traceback, as an unwritable
    --out does; exit 1 would read as a rejection."""
    doc, record, _ = audit_artifacts
    argv = {
        "run": ["run", str(HAPPY)],
        "sweep": ["sweep", "12", "0.5"],
        "verify": ["verify", write_json(tmp_path / "t.json", doc),
                   write_json(tmp_path / "c.json", record)],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = fresh_python(_MAIN, *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "cannot write stdout: Broken pipe\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_full_stdout_exits_two() -> None:
    with open("/dev/full", "w") as full:
        done = fresh_python(_MAIN, "run", str(HAPPY), stdout=full.fileno())
    assert (done.returncode, done.stderr) == (2, "cannot write stdout: No space left on device\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "missing.json"], EXIT_USAGE),
        (["verify", "missing.json", "missing.json"], EXIT_USAGE),
        (["sweep", "12", "0.5", "--out", "sweep.csv"], EXIT_OK),
    ],
    ids=["run", "verify", "sweep"],
)
def test_an_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, code) -> None:
    """A stderr that cannot be written changes no command's exit code: a
    refused input still exits 2 and a clean sweep, whose summary line goes
    to stderr, still exits 0; nothing spills onto stdout."""
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg for arg in argv]
    with open("/dev/full", "w") as full:
        done = fresh_python(_MAIN, *argv, stderr=full.fileno())
    assert (done.returncode, done.stdout) == (code, "")


# SHA-256 of the bundled happy path's two transcripts, as
# `transcript_to_jsonable` and `json.dumps` write them: their keys, in
# order, and their bytes
GOLDEN_TRANSCRIPT_DIGESTS = {
    "phase1": "c9a42fd4b7ebf93fc80e64e4bc6fa1b9a2923d5e735de8a64061c53eceb850cb",
    "phase2": "826c8a50dc4eb84b4c00ba56a1358f29546f26198e65d8adb0012e8ec0d42cd8",
}


def test_transcript_bytes_are_pinned() -> None:
    script = json.loads(HAPPY.read_text())
    world = World(script["seed"], **script["config"])
    for step in script["timeline"]:
        _call_op(world, step["op"], step)
    dispute = world.engine.disputes[0]
    polls = {"phase1": dispute.phase1_poll, "phase2": dispute.phase2_poll}
    digests = {
        phase: hashlib.sha256(
            json.dumps(transcript_to_jsonable(poll.audit_transcript())).encode()
        ).hexdigest()
        for phase, poll in polls.items()
    }
    assert digests == GOLDEN_TRANSCRIPT_DIGESTS


def test_transcript_json_holds_no_position_or_digest_copies(audit_artifacts) -> None:
    """Voter i and entry j are known by their positions alone, the intake
    digest is derived from the entries, and each voter's counted vote from
    the claimed verdicts, so the document states none of them."""
    doc, _, _ = audit_artifacts
    assert set(doc) == {
        "poll_id", "cost_rule", "options", "initial_voters", "entries", "tally", "salt",
    }
    assert all(len(voter) == 2 for voter in doc["initial_voters"])
    assert {frozenset(entry) for entry in doc["entries"]} == {
        frozenset({"ciphertext_digest", "plaintext", "valid", "reason"})
    }


def swap(items, i: int, j: int) -> None:
    items[i], items[j] = items[j], items[i]


def in_the_earlier_format(doc) -> None:
    """Add what the earlier transcript format also stated: each voter's
    final state (here its starting key and no vote)."""
    doc["final_states"] = [
        {"current_key": key, "vote": None} for key, _ in doc["initial_voters"]
    ]


@pytest.mark.parametrize(
    "mutate, reason",
    [
        pytest.param(
            lambda d: d["tally"].__setitem__("0", d["tally"]["0"] + 1),
            "TallyMismatch",
            id="<lambda>-TallyMismatch",
        ),
        pytest.param(
            lambda d: d.__setitem__("salt", "00" * 32),
            "CommitmentMismatch",
            id="<lambda>-CommitmentMismatch",
        ),
        pytest.param(
            lambda d: d["entries"][0].__setitem__(
                "valid", not d["entries"][0]["valid"]
            ),
            "ReplayMismatch",
            id="<lambda>-ReplayMismatch0",
        ),
        pytest.param(
            lambda d: d["entries"][0].__setitem__("ciphertext_digest", "11" * 32),
            "MessageSetMismatch",
            id="<lambda>-MessageSetMismatch",
        ),
        # voter 0's vote costs its one credit; with none, it is OverBudget
        pytest.param(
            lambda d: d["initial_voters"][0].__setitem__(1, 0),
            "ReplayMismatch",
            id="<lambda>-ReplayMismatch1",
        ),
        # the vote for option 1 replays as a BadOption, not as claimed
        pytest.param(
            lambda d: d.__setitem__("options", 1),
            "ReplayMismatch",
            id="<lambda>-ReplayMismatch2",
        ),
        # the commitment binds its poll: relabelled to the same dispute's
        # Phase-2 poll, or to an id past int64, the transcript opens nothing
        pytest.param(
            lambda d: d.__setitem__("poll_id", d["poll_id"] + 1),
            "CommitmentMismatch",
            id="relabelled-to-phase2-CommitmentMismatch",
        ),
        pytest.param(
            lambda d: d.__setitem__("poll_id", 2**70),
            "CommitmentMismatch",
            id="relabelled-past-int64-CommitmentMismatch",
        ),
        # positions bind: the intake digest is derived from the entries in
        # order, and the replay finds each command's voter by its position
        pytest.param(
            lambda d: swap(d["entries"], 0, 1),
            "MessageSetMismatch",
            id="entries-swapped-MessageSetMismatch",
        ),
        pytest.param(
            lambda d: swap(d["initial_voters"], 0, 1),
            "ReplayMismatch",
            id="voters-swapped-ReplayMismatch",
        ),
        # a starting voter's key is read as a 32-byte point; 31 bytes replay
        # nothing, and the audit says so rather than raise
        pytest.param(
            lambda d: d["initial_voters"][0].__setitem__(
                0, d["initial_voters"][0][0][2:]
            ),
            "ReplayMismatch",
            id="31-byte-voter-key-ReplayMismatch",
        ),
        # one edit, two failing checks: voter 0's counted vote claimed
        # invalid leaves final votes that no longer sum to the tally, and
        # the replay no longer gives the claimed verdict; the tally check
        # runs first
        pytest.param(
            lambda d: d["entries"][0].update(valid=False, reason="BadSignature"),
            "TallyMismatch",
            id="final-vote-TallyMismatch",
        ),
        # claims of no shape the replay gives, rejected from the claims
        # alone, before any plaintext is decoded: an invalid verdict with
        # no reason, a valid one with a reason, and a reason the replay
        # never gives
        pytest.param(
            lambda d: d["entries"][0].__setitem__("valid", False),
            "ReplayMismatch",
            id="bare-flip-ReplayMismatch",
        ),
        pytest.param(
            lambda d: d["entries"][0].__setitem__("reason", "BadSignature"),
            "ReplayMismatch",
            id="reason-on-valid-ReplayMismatch",
        ),
        pytest.param(
            lambda d: d["entries"][0].update(valid=False, reason="Coerced"),
            "ReplayMismatch",
            id="unknown-reason-ReplayMismatch",
        ),
    ],
)
def test_verify_tampering_exits_one(
    tmp_path, capsys, audit_artifacts, mutate, reason
) -> None:
    doc, record, _ = audit_artifacts
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"rejected: {reason}\n", "")


def test_verify_swapped_commitment_exits_one(tmp_path, capsys, audit_artifacts) -> None:
    doc, record, _ = audit_artifacts
    record = dict(record, intake_digest="22" * 32)
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_FAIL
    assert "MessageSetMismatch" in capsys.readouterr().out


# Each case's test id is written beside it, so inserting a case renames no
# other; the ids `<lambda>N` are the names these cases first ran under.
@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: d.pop("salt"), id="<lambda>0"),
        pytest.param(lambda d: d.__setitem__("salt", "not hex"), id="<lambda>1"),
        pytest.param(lambda d: d.__setitem__("poll_id", "zero"), id="<lambda>2"),
        pytest.param(lambda d: d["entries"][0].__setitem__("valid", "yes"), id="<lambda>3"),
        # a transcript in the earlier format, which stated final states
        pytest.param(lambda d: d.__setitem__("final_states", None), id="<lambda>4"),
        pytest.param(
            lambda d: d.__setitem__("tally", list(d["tally"].items())), id="<lambda>5"
        ),
        pytest.param(lambda d: d.__setitem__("cost_rule", 7), id="<lambda>6"),
        pytest.param(lambda d: d.__setitem__("cost_rule", None), id="<lambda>7"),
        pytest.param(lambda d: d.pop("options"), id="<lambda>8"),
        pytest.param(lambda d: d.__setitem__("options", "2"), id="<lambda>9"),
        pytest.param(lambda d: d.__setitem__("options", True), id="<lambda>10"),
        *[
            pytest.param(
                lambda d, spell=spell: d.__setitem__(
                    "tally", {spell(k): v for k, v in d["tally"].items()}
                ),
                id=case_id,
            )
            for case_id, spell in (("<lambda>11", lambda k: "0" + k),
                                   ("<lambda>12", lambda k: " " + k),
                                   ("<lambda>13", lambda k: "+" + k))
        ],
        pytest.param(
            lambda d: d.__setitem__("tally", {"0" + min(d["tally"]): 999999, **d["tally"]}),
            id="<lambda>14",
        ),
        # voters written with their index, as `[index, key, credits]`
        pytest.param(
            lambda d: d.__setitem__(
                "initial_voters",
                [[index, *voter[-2:]] for index, voter in enumerate(d["initial_voters"])],
            ),
            id="<lambda>15",
        ),
        # a key no reader reads, at each level
        pytest.param(lambda d: d.__setitem__("junk", 1), id="<lambda>16"),
        pytest.param(
            lambda d: d["entries"][0].__setitem__("arrival_index", 0), id="<lambda>17"
        ),
        pytest.param(in_the_earlier_format, id="<lambda>18"),
        # credits are the starting voters' alone
        pytest.param(
            lambda d: d["entries"][0].__setitem__("voice_credits", 1), id="<lambda>19"
        ),
    ],
)
def test_verify_malformed_transcript_exits_two(
    tmp_path, capsys, audit_artifacts, mutate
) -> None:
    doc, record, _ = audit_artifacts
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_USAGE
    assert "malformed input" in capsys.readouterr().err


# Each case's test id is written beside it, so editing or inserting a case
# renames no other; the ids are the names these cases first ran under.
@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(
            lambda d, r: d.__setitem__(
                "initial_voters", [[0, *voter] for voter in d["initial_voters"]]
            ),
            "initial_voters[0]: expected [key, credits], got [0, ",
            id="<lambda>-initial_voters[0]: expected [key, credits], got [0, ",
        ),
        pytest.param(
            lambda d, r: d.__setitem__("junk", 1),
            "transcript: unknown key 'junk'",
            id="<lambda>-transcript: unknown key 'junk'",
        ),
        pytest.param(
            lambda d, r: d["entries"][0].__setitem__("arrival_index", 0),
            "entries[0]: unknown key 'arrival_index'",
            id="<lambda>-entries[0]: unknown key 'arrival_index'",
        ),
        # a transcript in the earlier format, with each voter's final state
        pytest.param(
            lambda d, r: in_the_earlier_format(d),
            "transcript: unknown key 'final_states'",
            id="earlier-format-final_states",
        ),
        pytest.param(
            lambda d, r: d["entries"][1].pop("reason"),
            "entries[1]: missing key 'reason'",
            id="entry-missing-reason",
        ),
        pytest.param(
            lambda d, r: d.__setitem__("entries", {}),
            "entries: expected a list, got dict",
            id="<lambda>-entries: expected a list, got dict",
        ),
        pytest.param(
            lambda d, r: r.__setitem__("junk", 1),
            "commitment: unknown key 'junk'",
            id="<lambda>-commitment: unknown key 'junk'",
        ),
        # a value that does not read, named by its list, position and key
        pytest.param(
            lambda d, r: d["entries"][2].__setitem__("plaintext", "zz"),
            "entries[2].plaintext: expected a hex string, got 'zz'",
            id="<lambda>-entries[2].plaintext: expected a hex string, got 'zz'",
        ),
        pytest.param(
            lambda d, r: d["entries"][1].__setitem__("ciphertext_digest", 7),
            "entries[1].ciphertext_digest: expected a hex string, got 7",
            id="<lambda>-entries[1].ciphertext_digest: expected a hex string, got 7",
        ),
        pytest.param(
            lambda d, r: d["entries"][0].__setitem__("valid", "true"),
            "entries[0].valid: expected a boolean, got 'true'",
            id="<lambda>-entries[0].valid: expected a boolean, got 'true'",
        ),
        pytest.param(
            lambda d, r: d["initial_voters"][1].__setitem__(1, "x"),
            "initial_voters[1]: expected an integer, got 'x'",
            id="voter-credits-not-an-integer",
        ),
        pytest.param(
            lambda d, r: d.__setitem__("salt", "not hex"),
            "salt: expected a hex string, got 'not hex'",
            id="<lambda>-salt: expected a hex string, got 'not hex'",
        ),
        pytest.param(
            lambda d, r: r.__setitem__("commitment_digest", "zz"),
            "commitment_digest: expected a hex string, got 'zz'",
            id="<lambda>-commitment_digest: expected a hex string, got 'zz'",
        ),
    ],
)
def test_verify_names_what_is_malformed_and_where(
    tmp_path, capsys, audit_artifacts, mutate, message
) -> None:
    doc, record, _ = audit_artifacts
    doc, record = json.loads(json.dumps(doc)), dict(record)
    mutate(doc, record)
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"malformed input: {message}")


def test_verify_duplicate_key_exits_two(tmp_path, capsys, audit_artifacts) -> None:
    """`json` keeps the last of two equal keys, so this tally would read
    {0: 2, 1: 1} and verify, while a reader keeping the first sees 999999."""
    doc, record, _ = audit_artifacts
    assert doc["tally"] == {"0": 2, "1": 1}
    t = tmp_path / "t.json"
    t.write_text(json.dumps(doc).replace('"tally": {', '"tally": {"0": 999999, ', 1))
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", str(t), c]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "malformed input: duplicate key '0'\n"


def test_verify_rejects_a_tally_past_int64(tmp_path, capsys) -> None:
    """Three voters spend 2**62 credits each on one option under the linear
    rule; the replay agrees, but a tally of 3 * 2**62 has no int64 encoding,
    so it opens no commitment."""
    rng = random.Random(3)
    voters = [KeyPair.generate(rng) for _ in range(3)]
    initial = tuple((v.public, 2**62) for v in voters)
    plaintexts = []
    for index, voter in enumerate(voters):
        command = Command(voter.public, (0,), (2**62,), b"", index)
        plaintexts.append(sign_command(voter, command))
    verdicts, _, _ = naive_replay("linear", 1, initial, plaintexts)
    assert verdicts == [(True, None)] * 3
    # the audit reads the message set off the entries' digests alone
    digests = [hash_bytes(plaintext) for plaintext in plaintexts]
    intake = digest_over_entries(digests)
    transcript = AuditTranscript(
        poll_id=0,
        cost_rule="linear",
        options=1,
        initial_voters=initial,
        entries=tuple(
            TranscriptEntry(digest, plaintext, True, None)
            for digest, plaintext in zip(digests, plaintexts)
        ),
        tally={0: 3 * 2**62},
        salt=bytes(32),
    )
    t = write_json(tmp_path / "t.json", transcript_to_jsonable(transcript))
    c = write_json(
        tmp_path / "c.json",
        {"intake_digest": intake.hex(), "commitment_digest": "00" * 32},
    )
    assert main(["verify", t, c]) == EXIT_FAIL
    assert capsys.readouterr().out == "rejected: CommitmentMismatch\n"


def test_verify_deeply_nested_json_exits_two(tmp_path, capsys, audit_artifacts) -> None:
    _, record, _ = audit_artifacts
    t = tmp_path / "t.json"
    t.write_text(DEEP_ARRAY)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", str(t), c]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed input: ")
    assert captured.err.count("\n") == 1


def test_verify_truncated_file_exits_two(tmp_path, capsys, audit_artifacts) -> None:
    doc, record, _ = audit_artifacts
    t = tmp_path / "t.json"
    t.write_text(json.dumps(doc)[:150])
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", str(t), str(c)]) == EXIT_USAGE
    assert "malformed input" in capsys.readouterr().err


def test_verify_missing_commitment_field_exits_two(
    tmp_path, capsys, audit_artifacts
) -> None:
    doc, record, _ = audit_artifacts
    record = {"intake_digest": record["intake_digest"]}
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_USAGE
