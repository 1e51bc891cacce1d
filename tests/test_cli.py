"""Command-line surface: exit codes, byte-stable reports, artifact formats."""
from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from support import STRUCTURAL_FAULTS, plant_double_booked_payouts, resolved_court

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
from disputekit.engine import Escrow
from disputekit.maci import (
    AuditTranscript,
    Command,
    FinalVote,
    TranscriptEntry,
    VoterFinalState,
    digest_over_entries,
    message_set_digest,
    replay_ballots,
)
from disputekit.primitives import KeyPair, hash_bytes, sign
from disputekit.scenario import (
    _FIELD_SCHEMAS,
    _OPS,
    _STEP_ACCEPTS,
    SCENARIO_SCHEMA,
    ScenarioValidator,
    _accepted,
    _accepts,
    _document_schema,
    _step_schema,
    run_scenario,
    scenario_schema,
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

    monkeypatch.setattr(cli, "consistency_sweep", sweep)
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
    assert report["steps"][-1]["invariant"] == "escrow conservation violated"
    assert "issue_party_sbt): escrow conservation violated" in captured.err
    assert "Traceback" not in captured.err


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
    scenario with every integer written as a float reports the same bytes."""
    twin = as_floats(script)
    assert isinstance(twin["config"]["tree_depth"], float)
    reports = []
    for name, doc in (("original", script), ("twin", twin)):
        out = tmp_path / f"{name}.report.json"
        path = write_json(tmp_path / f"{name}.json", doc)
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


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
    ("allocations", {"x": 1}),
    ("allocations", {"00": 1}),
    ("allocations", {"1": 1.5}),
    *[(field, value) for field in INTEGER_FIELDS for value in (2.0, 2.5, True)],
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
# form re-checks the schema against its meta-schema every time
REFERENCE = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def rejects(doc, cls=None) -> bool:
    """Whether `cls` finds `doc` invalid; by default jsonschema's own
    validator for the schema, which tries every branch of the `oneOf`."""
    if cls is None:
        return not REFERENCE.is_valid(doc)
    try:
        jsonschema.validate(doc, SCENARIO_SCHEMA, cls=cls)
    except jsonschema.ValidationError:
        return True
    return False


# document values at a keyword's edge, or of a type its key does not take
ENVELOPE_EDGES = [
    *[(("config", "tree_depth"), value) for value in (0, 1, 32, 33, 32.0, True)],
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
    rejected = rejects(doc)
    assert _accepted(doc) == (not rejected)
    assert rejects(doc, ScenarioValidator) == rejected
    path = write_json(tmp_path / "mutated.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", path])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if rejected:
        assert code == EXIT_USAGE and out.getvalue() == ""


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
    accept = _STEP_ACCEPTS[op]
    assert accept(step)
    assert not accept({**step, "op": f"not_{op}"})


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
    accept = _STEP_ACCEPTS[op]
    reference = jsonschema.Draft202012Validator(_step_schema(op)).is_valid(step)
    assert accept(step) == reference, step


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
        # set distinctness is JSON equality only among strings
        (False, lambda branch: branch["properties"]["t"].update(uniqueItems=True)),
        (True, lambda doc: doc["properties"]["config"]["properties"]["genesis_humans"]
         .update(maxItems=99)),
    ],
    ids=["on_the_branch", "open_branch", "on_a_field", "unique_but_strings",
         "on_the_envelope"],
)
def test_a_keyword_the_step_check_does_not_read_fails_to_compile(envelope, extend) -> None:
    schema = _document_schema(True) if envelope else _step_schema("group_join")
    extend(schema)
    jsonschema.validate(BUNDLED[0] if envelope else minimal_step("group_join"), schema)
    with pytest.raises(ValueError, match="does not read"):
        _accepts(schema)


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
        cli, "consistency_sweep", lambda pairs, step: oracle.SweepReport(step, rows)
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
_INTS = st.lists(_INT64, max_size=3).map(tuple)
_VOTES = st.builds(FinalVote, _INTS, _INTS, st.binary(max_size=8), _INT64)
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
    final_states=st.lists(
        st.builds(
            VoterFinalState,
            st.binary(max_size=33),
            st.none() | _VOTES,
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
    final_states=(
        VoterFinalState(b"", None),
        VoterFinalState(b"", FinalVote((), (), b"", 2**63 - 1)),
    ),
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
    assert all(list(state) == list(cli._STATE) for state in doc["final_states"])
    votes = [state["vote"] for state in doc["final_states"] if state["vote"]]
    assert all(list(vote) == list(cli._VOTE) for vote in votes)
    assert list(commitment_to_jsonable(b"", b"")) == list(cli._RECORD)


def test_verify_honest_transcript(tmp_path, capsys, audit_artifacts) -> None:
    doc, record, _ = audit_artifacts
    t = write_json(tmp_path / "t.json", doc)
    c = write_json(tmp_path / "c.json", record)
    assert main(["verify", t, c]) == EXIT_OK
    assert capsys.readouterr().out == "accepted\n"


def test_a_valid_run_and_a_verify_never_import_jsonschema(tmp_path, audit_artifacts) -> None:
    """Only a refused scenario needs jsonschema, to judge and word the
    refusal, so a fresh interpreter that runs and verifies never loads it."""
    doc, record, _ = audit_artifacts
    transcript = write_json(tmp_path / "t.json", doc)
    commitment = write_json(tmp_path / "c.json", record)
    calls = [
        ["run", str(HAPPY), "--out", str(tmp_path / "report.json")],
        ["verify", transcript, commitment],
    ]
    program = (
        "import contextlib, io, sys\n"
        "from disputekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, 'jsonschema' in sys.modules)\n"
    )
    # the interpreter finds disputekit where this one did
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0] False\n", "")


def test_transcript_json_holds_no_position_or_digest_copies(audit_artifacts) -> None:
    """Voter i and entry j are known by their positions alone, and the
    intake digest is derived from the entries, so the document states none
    of them."""
    doc, _, _ = audit_artifacts
    assert set(doc) == {
        "poll_id", "cost_rule", "options", "initial_voters", "entries",
        "final_states", "tally", "salt",
    }
    assert all(len(voter) == 2 for voter in doc["initial_voters"])
    assert {frozenset(entry) for entry in doc["entries"]} == {
        frozenset({"ciphertext_digest", "plaintext", "valid", "reason"})
    }
    assert {frozenset(state) for state in doc["final_states"]} == {
        frozenset({"current_key", "vote"})
    }
    votes = [state["vote"] for state in doc["final_states"] if state["vote"]]
    assert votes
    assert {frozenset(vote) for vote in votes} == {
        frozenset({"options", "amounts", "memo", "arrival_index"})
    }


def swap(items, i: int, j: int) -> None:
    items[i], items[j] = items[j], items[i]


def swap_voters(doc, i: int, j: int) -> None:
    swap(doc["initial_voters"], i, j)
    swap(doc["final_states"], i, j)


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda d: d["tally"].__setitem__("0", d["tally"]["0"] + 1), "TallyMismatch"),
        (lambda d: d.__setitem__("salt", "00" * 32), "CommitmentMismatch"),
        (
            lambda d: d["entries"][0].__setitem__(
                "valid", not d["entries"][0]["valid"]
            ),
            "ReplayMismatch",
        ),
        (
            lambda d: d["entries"][0].__setitem__("ciphertext_digest", "11" * 32),
            "MessageSetMismatch",
        ),
        # voter 0's vote costs its one credit; with none, it is OverBudget
        (
            lambda d: d["initial_voters"][0].__setitem__(1, 0),
            "ReplayMismatch",
        ),
        # the vote for option 1 replays as a BadOption, not as claimed
        (lambda d: d.__setitem__("options", 1), "ReplayMismatch"),
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
        # (swapped in the starting voters and the final states alike)
        pytest.param(
            lambda d: swap(d["entries"], 0, 1),
            "MessageSetMismatch",
            id="entries-swapped-MessageSetMismatch",
        ),
        pytest.param(
            lambda d: swap_voters(d, 0, 1),
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
        # one edit, two failing checks: the claimed votes no longer sum to
        # the tally, and the replay no longer gives the claimed states; the
        # tally check runs first
        pytest.param(
            lambda d: d["final_states"][0]["vote"].__setitem__("options", [1]),
            "TallyMismatch",
            id="final-vote-TallyMismatch",
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


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("salt"),
        lambda d: d.__setitem__("salt", "not hex"),
        lambda d: d.__setitem__("poll_id", "zero"),
        lambda d: d["entries"][0].__setitem__("valid", "yes"),
        lambda d: d.__setitem__("final_states", None),
        lambda d: d.__setitem__("tally", list(d["tally"].items())),
        lambda d: d.__setitem__("cost_rule", 7),
        lambda d: d.__setitem__("cost_rule", None),
        lambda d: d.pop("options"),
        lambda d: d.__setitem__("options", "2"),
        lambda d: d.__setitem__("options", True),
        *[
            lambda d, spell=spell: d.__setitem__(
                "tally", {spell(k): v for k, v in d["tally"].items()}
            )
            for spell in (lambda k: "0" + k, lambda k: " " + k, lambda k: "+" + k)
        ],
        lambda d: d.__setitem__("tally", {"0" + min(d["tally"]): 999999, **d["tally"]}),
        # voters written with their index, as `[index, key, credits]`
        lambda d: d.__setitem__(
            "initial_voters",
            [[index, *voter[-2:]] for index, voter in enumerate(d["initial_voters"])],
        ),
        # a key no reader reads, at each level
        lambda d: d.__setitem__("junk", 1),
        lambda d: d["entries"][0].__setitem__("arrival_index", 0),
        lambda d: d["final_states"][0]["vote"].__setitem__("extra", 1),
        # credits are the starting voters' alone
        lambda d: d["final_states"][0].__setitem__("voice_credits", 1),
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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d, r: d.__setitem__(
                "initial_voters", [[0, *voter] for voter in d["initial_voters"]]
            ),
            "initial_voters[0]: expected [key, credits], got [0, ",
        ),
        (lambda d, r: d.__setitem__("junk", 1), "transcript: unknown key 'junk'"),
        (
            lambda d, r: d["entries"][0].__setitem__("arrival_index", 0),
            "entries[0]: unknown key 'arrival_index'",
        ),
        (
            lambda d, r: d["final_states"][0]["vote"].__setitem__("extra", 1),
            "final_states[0].vote: unknown key 'extra'",
        ),
        (
            lambda d, r: d["final_states"][1].pop("current_key"),
            "final_states[1]: missing key 'current_key'",
        ),
        (lambda d, r: d.__setitem__("entries", {}), "entries: expected a list, got dict"),
        (lambda d, r: r.__setitem__("junk", 1), "commitment: unknown key 'junk'"),
        # a value that does not read, named by its list, position and key
        (
            lambda d, r: d["entries"][2].__setitem__("plaintext", "zz"),
            "entries[2].plaintext: expected a hex string, got 'zz'",
        ),
        (
            lambda d, r: d["entries"][1].__setitem__("ciphertext_digest", 7),
            "entries[1].ciphertext_digest: expected a hex string, got 7",
        ),
        (
            lambda d, r: d["entries"][0].__setitem__("valid", "true"),
            "entries[0].valid: expected a boolean, got 'true'",
        ),
        (
            lambda d, r: d["final_states"][0]["vote"]["options"].__setitem__(0, "x"),
            "final_states[0].vote.options[0]: expected an integer, got 'x'",
        ),
        (
            lambda d, r: d.__setitem__("salt", "not hex"),
            "salt: expected a hex string, got 'not hex'",
        ),
        (
            lambda d, r: r.__setitem__("commitment_digest", "zz"),
            "commitment_digest: expected a hex string, got 'zz'",
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
        plaintexts.append(command.encode_signed(sign(voter, command.signing_bytes())))
    verdicts, states = replay_ballots("linear", 1, initial, plaintexts)
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
        final_states=states,
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
