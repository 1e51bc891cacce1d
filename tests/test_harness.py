"""Simulation world, public-record schema, scripted runs, attack probes."""
from __future__ import annotations

import hashlib
import json
import re
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from disputekit.attacks import (
    ATTACKS,
    attack_coercion,
    attack_double_vote,
    attack_info_asymmetry,
    attack_spam,
    attack_sybil,
    attack_takeover,
    run_all_attacks,
)
from disputekit import maci, primitives, scenario
from disputekit.engine import Escrow
from disputekit.errors import MalformedScript
from disputekit.scenario import (
    AdversaryView,
    World,
    matches_expected,
    run_scenario,
)

from support import STRUCTURAL_FAULTS, load_workloads, plant_double_booked_payouts

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def happy_path_script() -> dict:
    return json.loads((SCENARIOS / "happy_path.json").read_text())


# ---- the public record ------------------------------------------------------------


def test_view_accepts_only_known_shapes() -> None:
    view = AdversaryView()
    view.append("poh_status", {"human": "ann", "status": "Approved"})
    assert view.kinds() == ["poh_status"]

    with pytest.raises(ValueError):
        view.append("secret_ballot_plaintext", {"vote": 1})
    with pytest.raises(ValueError):
        view.append("poh_status", {"human": "ann"})  # missing field
    with pytest.raises(ValueError):
        view.append("poh_status", {"human": "ann", "status": 3})  # wrong type
    with pytest.raises(ValueError):
        view.append(
            "poh_status",
            {"human": "ann", "status": "Approved", "note": "extra"},
        )
    with pytest.raises(ValueError):
        view.append(
            "tally_published",
            {"dispute_id": 0, "poll_id": 0, "tally": {0: "x"}, "salt": b""},
        )


def test_view_sequence_numbers_are_dense() -> None:
    view = AdversaryView()
    view.append("poh_status", {"human": "a", "status": "Pending"})
    view.append("poh_status", {"human": "a", "status": "Approved"})
    assert [seq for seq, _, _ in view.as_jsonable()] == [0, 1]


# ---- the world -------------------------------------------------------------------


def build_minimal_world(seed: int = 5) -> World:
    world = World(seed, genesis_humans=["j0", "j1", "j2"], tree_depth=8)
    for judge in ("j0", "j1", "j2"):
        world.group_join(judge)
    return world


def drive_minimal_dispute(world: World) -> int:
    dispute_id = world.open_dispute(
        "ann", ["ben"], 10, t1=100, t2=200, min_judges=3, now=0
    )
    world.join_dispute(dispute_id, "ben", 10, now=1)
    for offset, judge in enumerate(("j0", "j1", "j2")):
        world.enroll_judge(dispute_id, judge, now=10 + offset)
    world.phase1_vote(dispute_id, "j0", "ann", "ann is right", now=150)
    world.phase1_vote(dispute_id, "j1", "ann", "mostly ann", now=151)
    world.phase1_vote(dispute_id, "j2", "ben", "ben is right", now=152)
    world.close_phase1(dispute_id, now=200)
    world.start_phase2(dispute_id, now=210)
    world.phase2_vote(dispute_id, "ann", {0: 1}, now=220)
    world.close_phase2(dispute_id, now=310)
    return dispute_id


def test_same_seed_same_world() -> None:
    first = build_minimal_world()
    second = build_minimal_world()
    drive_minimal_dispute(first)
    drive_minimal_dispute(second)
    assert first.snapshot() == second.snapshot()
    assert first.view.as_jsonable() == second.view.as_jsonable()


def test_different_seeds_same_semantics_different_bytes() -> None:
    first = build_minimal_world(seed=5)
    second = build_minimal_world(seed=6)
    drive_minimal_dispute(first)
    drive_minimal_dispute(second)
    a, b = first.snapshot(), second.snapshot()
    assert a["group_root"] != b["group_root"]
    assert a["disputes"] == b["disputes"]


def test_world_claim_fee_pays_the_author() -> None:
    world = build_minimal_world()
    dispute_id = drive_minimal_dispute(world)
    amount = world.claim_fee(dispute_id, "j0", "payout-wallet")
    assert amount == 20
    assert world.engine.escrow.net_position("payout-wallet") == 20


def _replayed_roots(view: list, depth: int) -> list[tuple[str, str, str]]:
    """Rebuild the member tree from the public record alone (hashlib, no
    disputekit code): each group_join fills its leaf, each group_remove
    zeroes one. Returns (kind, root the event carries, rebuilt root)."""
    leaves: dict[int, bytes] = {}
    checked = []
    for _, kind, payload in view:
        if kind == "group_join":
            leaves[payload["leaf_index"]] = bytes.fromhex(payload["commitment"])
        elif kind == "group_remove":
            leaves[payload["leaf_index"]] = bytes(32)
        else:
            continue
        zero = bytes(32)
        level = [leaves.get(i, zero) for i in range(max(leaves) + 1)]
        for _ in range(depth):
            level += [zero] * (len(level) % 2)
            level = [
                hashlib.sha256(level[i] + level[i + 1]).digest()
                for i in range(0, len(level), 2)
            ]
            zero = hashlib.sha256(zero + zero).digest()
        checked.append((kind, payload["root"], level[0].hex()))
    return checked


@pytest.mark.parametrize("name", ["happy_path.json", "stalled_court.json"])
def test_each_member_event_carries_its_own_root_in_scenarios(name) -> None:
    script = json.loads((SCENARIOS / name).read_text())
    report = run_scenario(script)
    checked = _replayed_roots(report["view"], script["config"]["tree_depth"])
    assert checked
    assert [(kind, root) for kind, root, _ in checked] == [
        (kind, rebuilt) for kind, _, rebuilt in checked
    ]


def test_each_ban_in_one_call_carries_the_root_after_it() -> None:
    """Two bans in one `enforce_thresholds` call: each group_remove event
    carries the root right after its own removal, not the final root."""
    world = World(9, genesis_humans=["j0", "j1", "j2"], tree_depth=4)
    for judge in ("j0", "j1", "j2"):
        world.group_join(judge)
    world.reputation.add("j0", -11)
    world.reputation.add("j2", -11)
    assert world.enforce_thresholds() == [("ban", "j0"), ("ban", "j2")]
    checked = _replayed_roots(world.view.as_jsonable(), 4)
    assert [kind for kind, _, _ in checked].count("group_remove") == 2
    assert [(kind, root) for kind, root, _ in checked] == [
        (kind, rebuilt) for kind, _, rebuilt in checked
    ]
    assert checked[-1][1] == world.group.root.hex()


def test_snapshot_is_json_round_trippable() -> None:
    world = build_minimal_world()
    drive_minimal_dispute(world)
    snapshot = world.snapshot()
    assert json.loads(json.dumps(snapshot, sort_keys=True)) == snapshot


def test_the_readme_library_quick_start_holds() -> None:
    """The README's one `python` block runs, and each call whose comment
    states its result (`# -> ...`) returns it: Phase 1 tallied, the
    parties' Phase-1 scores, and proposal 0 the winner."""
    readme = (SCENARIOS.parent / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    results: list = []
    source = re.sub(r"(?m)^(\S.*?)\s+# -> .*$", r"results.append(\1)", block)
    exec(source, {"results": results})
    tallied, scores, phase2 = results
    assert tallied == "tallied"
    assert scores == {"alice": 2, "bob": 1}
    assert phase2["winner"] == 0


# ---- scripted scenarios --------------------------------------------------------


def test_happy_path_scenario_passes() -> None:
    report = run_scenario(happy_path_script())
    assert report["ok"]
    assert report["expected_match"]
    assert all(step["pass"] for step in report["steps"])


def test_reports_replay_byte_identically() -> None:
    script = happy_path_script()
    first = json.dumps(run_scenario(script), sort_keys=True)
    second = json.dumps(run_scenario(script), sort_keys=True)
    assert first == second


def test_seed_override_changes_bytes_not_verdicts() -> None:
    script = happy_path_script()
    default_run = run_scenario(script)
    overridden = run_scenario(script, seed=1234)
    assert overridden["ok"]
    assert overridden["seed"] == 1234
    assert overridden["snapshot"]["group_root"] != default_run["snapshot"]["group_root"]
    assert (
        overridden["snapshot"]["disputes"] == default_run["snapshot"]["disputes"]
    )


@pytest.mark.parametrize("corrupt", STRUCTURAL_FAULTS)
def test_malformed_scripts_are_rejected(corrupt) -> None:
    script = happy_path_script()
    named = corrupt(script)
    with pytest.raises(MalformedScript) as excinfo:
        run_scenario(script)
    for words in named:
        assert words in str(excinfo.value)


def test_unknown_actor_reference_is_malformed() -> None:
    script = {
        "seed": 1,
        "timeline": [
            {"op": "enroll_judge", "t": 0, "dispute": 0, "judge": "nobody"},
        ],
    }
    with pytest.raises(MalformedScript):
        run_scenario(script)


def nested(depth: int) -> dict:
    doc: dict = {}
    for _ in range(depth):
        doc = {"a": doc}
    return doc


@pytest.mark.parametrize(
    "script",
    [
        {"seed": 1, "timeline": [], "expected": nested(900)},
        {
            "seed": 1,
            "timeline": [
                {"op": "group_join", "t": 0, "human": "x", "expect_result": nested(900)}
            ],
        },
    ],
    ids=["expected", "expect_result"],
)
def test_a_block_too_deep_to_walk_is_malformed(script) -> None:
    with pytest.raises(MalformedScript, match="nested too deeply"):
        run_scenario(script)


@pytest.mark.parametrize("bottom", [{}, {"a": 1.0}], ids=["no_float", "a_float"])
def test_a_script_may_nest_max_nesting_levels(bottom) -> None:
    """One limit, whether or not the script holds a float to convert. The
    script is level 1 and its `expected` block level 2."""

    def script(levels: int) -> dict:
        block = bottom
        for _ in range(levels - 2):
            block = {"a": block}
        return {"seed": 1, "timeline": [], "expected": block}

    assert run_scenario(script(scenario.MAX_NESTING))["expected_match"] is False
    with pytest.raises(MalformedScript, match="nested too deeply"):
        run_scenario(script(scenario.MAX_NESTING + 1))


def test_expected_protocol_errors_pass_steps() -> None:
    script = {
        "seed": 3,
        "config": {"genesis_humans": ["j0"]},
        "timeline": [
            {"op": "open_dispute", "t": 0, "initiator": "a", "respondents": ["b"],
             "fee": 5, "t1": 10, "t2": 20, "min_judges": 1},
            {"op": "join_dispute", "t": 0, "dispute": 0, "party": "b", "fee": 4,
             "expect": "error:WrongFee"},
            {"op": "join_dispute", "t": 10, "dispute": 0, "party": "b", "fee": 5,
             "expect": "error:JoinAfterDeadline"},
        ],
    }
    report = run_scenario(script)
    assert report["ok"]
    assert [step["pass"] for step in report["steps"]] == [True, True, True]


def test_unexpected_errors_fail_the_run_without_raising() -> None:
    script = {
        "seed": 3,
        "timeline": [
            {"op": "open_dispute", "t": 0, "initiator": "a", "respondents": ["b"],
             "fee": 0, "t1": 10, "t2": 20, "min_judges": 1},
        ],
    }
    report = run_scenario(script)
    assert not report["ok"]
    assert report["steps"][0]["error"] == "ZeroFee"


def test_expect_result_mismatch_fails_the_run() -> None:
    script = happy_path_script()
    for step in script["timeline"]:
        if step["op"] == "close_phase1":
            step["expect_result"] = "aborted"
    report = run_scenario(script)
    assert not report["ok"]


def test_a_ledger_fault_fails_the_run_and_names_the_invariant(monkeypatch) -> None:
    plant_double_booked_payouts(monkeypatch)
    replays = []
    conserved = Escrow.conserved
    monkeypatch.setattr(
        Escrow, "conserved", lambda self: replays.append(1) or conserved(self)
    )
    report = run_scenario(happy_path_script())
    assert replays == [1]  # the ledger is replayed once per run
    assert report["ok"] is False
    assert report["invariant"] == "escrow conservation violated"
    # the once-per-run replay cannot tell which step broke the ledger, so
    # each step's pass is its own expectation's
    assert all(step["pass"] and "invariant" not in step for step in report["steps"])


def test_a_ledger_fault_fails_an_empty_timeline(monkeypatch) -> None:
    monkeypatch.setattr(Escrow, "conserved", lambda self: False)
    report = run_scenario({"seed": 1, "timeline": []})
    assert report["ok"] is False and report["steps"] == []
    assert report["invariant"] == "escrow conservation violated"


@pytest.mark.parametrize("name", ["happy_path.json", "stalled_court.json"])
def test_a_run_replays_the_ledger_once(monkeypatch, name) -> None:
    """One full ledger replay per run (ROADMAP item 10)."""
    replays = []
    conserved = Escrow.conserved
    monkeypatch.setattr(
        Escrow, "conserved", lambda self: replays.append(1) or conserved(self)
    )
    assert run_scenario(json.loads((SCENARIOS / name).read_text()))["ok"]
    assert replays == [1]


@pytest.mark.parametrize("steps", [10, 100, 1000])
def test_the_scenario_check_is_linear_in_the_steps(monkeypatch, steps) -> None:
    """Exact counts (ROADMAP item 10): checking a script calls the keyword
    checks as often as checking the document without its steps, plus what
    checking each step alone takes, so the calls grow linearly with the
    steps."""
    calls = [0]

    def counting(compile_check):
        def compile_counted(*arguments):
            check = compile_check(*arguments)

            def counted(value):
                calls[0] += 1
                return check(value)

            return counted

        return compile_counted

    for keyword, compile_check in scenario._KEYWORDS.items():
        monkeypatch.setitem(scenario._KEYWORDS, keyword, counting(compile_check))
    # `properties` with `required` and `additionalProperties: false`
    monkeypatch.setattr(scenario, "_object_shape", counting(scenario._object_shape))
    monkeypatch.setattr(
        scenario, "_ENVELOPE_CHECK", scenario._check(scenario._document_schema(True))
    )
    monkeypatch.setattr(scenario, "_STEP_CHECKS", {
        op: scenario._check(scenario._step_schema(op)) for op in scenario._OPS
    })
    script = happy_path_script()

    def calls_for(timeline: list) -> int:
        before = calls[0]
        scenario.validate(dict(script, timeline=timeline))
        return calls[0] - before

    mix = script["timeline"]
    envelope = calls_for([])
    each = [calls_for([step]) - envelope for step in mix]
    assert envelope > 0 and min(each) > 0
    timeline = [mix[n % len(mix)] for n in range(steps)]
    assert calls_for(timeline) == envelope + sum(each[n % len(mix)] for n in range(steps))


class CountedKey:
    """A `cryptography` key whose calls named in `kinds` are counted."""

    def __init__(self, key, counts: Counter, kinds: dict[str, str]):
        self._key, self._counts, self._kinds = key, counts, kinds

    def __getattr__(self, name: str):
        call = getattr(self._key, name)
        if name not in self._kinds:
            return call

        def counted(*args):
            self._counts[self._kinds[name]] += 1
            return call(*args)

        return counted


def count_crypto(monkeypatch) -> Counter:
    """Count every `cryptography` call `primitives` makes, by kind: Ed25519
    key construction, sign and verify, X25519 key construction and
    exchange. (An X25519 peer key is built only to be exchanged with.)"""
    counts: Counter = Counter()

    def loader(load, built: str | None, kinds: dict[str, str]):
        def counted_load(data: bytes):
            if built is not None:
                counts[built] += 1
            return CountedKey(load(data), counts, kinds)

        return counted_load

    for name, load, built, kinds in (
        ("Ed25519PrivateKey", Ed25519PrivateKey.from_private_bytes, "ed25519 key",
         {"sign": "ed25519 sign"}),
        ("Ed25519PublicKey", Ed25519PublicKey.from_public_bytes, None,
         {"verify": "ed25519 verify"}),
        ("X25519PrivateKey", X25519PrivateKey.from_private_bytes, "x25519 key",
         {"exchange": "x25519 exchange"}),
    ):
        load_name = "from_private_bytes" if built else "from_public_bytes"
        shim = SimpleNamespace(**{load_name: loader(load, built, kinds)})
        monkeypatch.setattr(primitives, name, shim)
    return counts


def steps_of(script: dict, op: str) -> list[dict]:
    return [step for step in script["timeline"] if step["op"] == op]


def test_a_small_docket_makes_the_crypto_calls_the_protocol_prescribes(
    monkeypatch,
) -> None:
    """The whole run's crypto budget (ROADMAP item 10): each kind of call a
    small generated docket makes equals a formula written from the
    protocol. Every ballot is signed and sealed by its client (one one-time
    X25519 key and one exchange) and opened once by the coordinator (one
    exchange), where its signature is checked once; a fee claim is signed by
    the juror and checked by the contract. Each signing key is built once:
    a party's (the initiator's at opening, the respondent's at joining) and
    a juror's ballot key at enrollment, plus a fresh one per rotation; the
    coordinator's X25519 key is built once per world."""
    script, _ = load_workloads().docket(3, disputes=12, pool=6, parties=8)
    counts = count_crypto(monkeypatch)
    report = run_scenario(script)
    assert report["ok"]
    ballots = len(steps_of(script, "phase1_vote")) + len(steps_of(script, "phase2_vote"))
    claims = len(steps_of(script, "claim_fee"))
    rotations = sum(step.get("rotate_key", False) for step in steps_of(script, "phase1_vote"))
    parties = {step["initiator"] for step in steps_of(script, "open_dispute")}
    parties |= {step["party"] for step in steps_of(script, "join_dispute")}
    jurors = len(steps_of(script, "enroll_judge"))
    assert ballots and claims and jurors
    assert counts == {
        "ed25519 key": len(parties) + jurors + rotations,
        "ed25519 sign": ballots + claims,
        "ed25519 verify": ballots + claims,
        "x25519 key": 1 + ballots,
        "x25519 exchange": 2 * ballots,
    }


@pytest.mark.parametrize("workload, sizes", [
    ("docket", {"disputes": 12, "pool": 6, "parties": 8}),
    ("registry", {"humans": 60, "batch": 12, "targets": 0}),
])
def test_docket_and_registry_start_no_worker(monkeypatch, workload, sizes) -> None:
    """Their polls (panels of 3 and 5 jurors, 2 parties) are below the
    worker rule, MIN_FORKED_COMMANDS voters, whatever the number of
    disputes, so every poll is processed in this process at its close."""
    script, _ = load_workloads().GENERATORS[workload](1, **sizes)
    monkeypatch.setattr(maci, "_usable_cores", lambda: 2)
    intakes, starts = [], []
    intake, start = maci.Coordinator.intake, maci._start_worker
    monkeypatch.setattr(
        maci.Coordinator, "intake", lambda *args: intakes.append(1) or intake(*args)
    )
    monkeypatch.setattr(maci, "_start_worker", lambda *args: starts.append(1) or start(*args))
    assert run_scenario(script)["ok"]
    assert intakes and starts == []


def test_the_view_is_rendered_once_the_world_is_freed(monkeypatch) -> None:
    """The report's `view` never shares memory with the world that played
    the timeline: the world is dead when the view is rendered."""
    worlds, rendered = [], []

    class Tracked(World):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            worlds.append(weakref.ref(self))

    as_jsonable = AdversaryView.as_jsonable

    def render(view):
        rendered.append([world() is None for world in worlds])
        return as_jsonable(view)

    monkeypatch.setattr(scenario, "World", Tracked)
    monkeypatch.setattr(AdversaryView, "as_jsonable", render)
    report = run_scenario(happy_path_script())
    assert rendered == [[True]]
    assert report["ok"] and report["view"]


def test_rendering_the_view_drops_each_event_as_its_row_is_built(monkeypatch) -> None:
    """Rendering a 40-dispute docket's view raises the traced peak above
    what the played timeline left by less than half of what the rendered
    rows occupy: each event is released as its row is built, so the log
    and its rows are never both whole."""
    script, _ = load_workloads().GENERATORS["docket"](1, disputes=40)
    played = []
    play = scenario._play

    def play_then_mark(*args):
        outcome = play(*args)
        played.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return outcome

    monkeypatch.setattr(scenario, "_play", play_then_mark)
    tracemalloc.start()
    try:
        report = run_scenario(script)
        held, peak = tracemalloc.get_traced_memory()
        rows = len(report.pop("view"))
        occupied = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report["ok"] and rows > 500
    assert peak - played[0] < occupied / 2


def test_matches_expected_is_a_subset_check() -> None:
    snapshot = {"a": {"b": 1, "c": 2}, "d": [1, 2]}
    assert matches_expected(snapshot, {"a": {"b": 1}})
    assert matches_expected(snapshot, {"d": [1, 2]})
    assert not matches_expected(snapshot, {"a": {"b": 2}})
    assert not matches_expected(snapshot, {"missing": 1})
    assert not matches_expected(snapshot, {"d": [1]})


# ---- attack probes ---------------------------------------------------------------


def test_double_vote_is_blocked() -> None:
    report = attack_double_vote()
    assert report.blocked
    assert report.detail["double_enroll_reason"] == "DoubleSignal"
    assert report.detail["baseline_scores"] == report.detail["attacked_scores"]


def test_coercion_is_blocked() -> None:
    report = attack_coercion()
    assert report.blocked
    assert report.detail["public_records_indistinguishable"]
    assert report.detail["defect_scores"] != report.detail["comply_scores"]


def test_sybil_is_blocked() -> None:
    report = attack_sybil()
    assert report.blocked
    assert report.detail["banned_rejoin"] == "AlreadyJoined"


def test_spam_is_blocked() -> None:
    report = attack_spam()
    assert report.blocked
    assert report.detail["spammer_net_position"] < 0


def test_takeover_is_blocked() -> None:
    report = attack_takeover()
    assert report.blocked
    assert report.detail["phase1_scores"] == {"alice": 12, "bob": 10}
    assert report.detail["forged_ballot_reason"] == "BadSignature"


def test_info_asymmetry_is_blocked() -> None:
    report = attack_info_asymmetry()
    assert report.blocked
    assert report.detail["tally_events_before_publication"] == 0


def test_all_attacks_blocked_across_seeds() -> None:
    for seed in (2029, 404, 77):
        for report in run_all_attacks(seed):
            assert report.blocked, f"{report.name} at seed {seed}: {report.detail}"
    assert set(ATTACKS) == {
        "double_vote",
        "coercion",
        "sybil",
        "spam",
        "takeover",
        "info_asymmetry",
    }
