"""Per-layer tracing of one run, installed from outside the program.

`Tracer.install` wraps the public functions of each disputekit layer, and
every other name in the package bound to the same function (for example
`maci.decrypt` and `identity.hash_bytes`), so calls are caught however they
were imported. Each call opens a span with a name, start, end and parent.
Spans are kept in memory: layer boundaries one by one, while the hot leaf
calls (primitives, canonical codec, Merkle tree methods) are only summed,
because keeping millions of them would dominate the run being measured.
Self time is a span's duration minus the time its child spans cover.

Trace output holds only ints, floats and the fixed label strings defined in
this file: no bytes, keys, plaintexts or tallies.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter
from typing import Any, Callable, Optional

# (module, attribute path, span name). One span name may cover several
# functions; its numbers are summed.
_TARGETS: list[tuple[str, str, str]] = [
    ("primitives", "hash_bytes", "primitives.hash"),
    ("primitives", "hash_fields", "primitives.hash"),
    ("primitives", "decrypt", "primitives.decrypt"),
    ("primitives", "encrypt", "primitives.encrypt"),
    ("primitives", "verify_sig", "primitives.verify_sig"),
    ("primitives", "sign", "primitives.sign"),
    ("primitives", "key_agree", "primitives.key_agree"),
    ("primitives", "KeyPair.from_seed", "primitives.keypair"),
    ("primitives", "MerkleTree.insert", "identity.merkle.write"),
    ("primitives", "MerkleTree.update", "identity.merkle.write"),
    ("primitives", "MerkleTree.root", "identity.merkle.read"),
    ("primitives", "MerkleTree.leaf", "identity.merkle.read"),
    ("primitives", "MerkleTree.prove", "identity.merkle.prove"),
    ("primitives", "merkle_verify", "identity.merkle_verify"),
    *[("canonical", name, "canonical") for name in (
        "encode_uint32", "encode_int64", "encode_bytes", "encode_str",
        "encode_int_list", "encode_int_map", "Reader.read_uint32",
        "Reader.read_int64", "Reader.read_bytes", "Reader.read_str",
        "Reader.read_int_list", "Reader.read_int_map", "Reader.expect_end",
    )],
    ("identity", "SemaphoreGroup.verify_signal", "identity.verify_signal"),
    *[("identity", f"SemaphoreGroup.{name}", "identity.group")
      for name in ("join", "remove", "leaf_index_of", "root")],
    ("identity", "create_signal", "identity.signal"),
    ("identity", "nullifier_hash", "identity.signal"),
    ("identity", "Identity.generate", "identity.signal"),
    *[("identity", f"PohRegistry.{name}", "identity.poh") for name in (
        "seed_approved", "register", "challenge", "finalize", "is_approved")],
    ("maci", "MaciPoll.preview_valid_votes", "maci.preview"),
    ("maci", "MaciPoll.process_messages", "maci.process"),
    ("maci", "verify_audit", "maci.verify_audit"),
    ("maci", "build_message", "maci.build_message"),
    *[("maci", f"MaciPoll.{name}", "maci.poll") for name in (
        "register_voter", "submit_message", "has_key", "close",
        "extend_deadline", "commit_tally", "publish_tally", "audit_transcript")],
    *[("voting", name, "voting") for name in (
        "tally_phase1", "tally_phase2", "quadratic_cost", "validate_allocation")],
    ("engine", "DisputeEngine.enroll_judge", "engine.enroll_judge"),
    ("engine", "DisputeEngine.close_phase1", "engine.close_phase1"),
    ("engine", "DisputeEngine.close_phase2", "engine.close_phase2"),
    *[("engine", f"DisputeEngine.{name}", "engine.dispute") for name in (
        "open_dispute", "join_dispute", "default_if_absent", "submit_evidence",
        "submit_phase1_ballot", "start_phase2", "submit_phase2_ballot", "settle")],
    *[("engine", f"Escrow.{name}", "engine.escrow.write")
      for name in ("deposit", "refund", "payout")],
    *[("engine", f"Escrow.{name}", "engine.escrow.scan")
      for name in ("balance", "total", "conserved", "net_position")],
    *[("incentives", name, "incentives") for name in (
        "apply_phase2_scores", "enforce_thresholds", "issue_party_sbt",
        "sign_claim", "distribute_fee", "claim_bytes", "governance_set",
        "ReputationLedger.add", "ReputationLedger.get", "SbtRegistry.issue",
        "SbtRegistry.has", "SbtRegistry.holders", "SbtRegistry.tokens_for")],
    ("scenario", "run_scenario", "scenario.runner"),
    ("scenario", "World.__init__", "scenario.world"),
    ("scenario", "World.snapshot", "scenario.snapshot"),
    *[("scenario", f"World.{op}", f"scenario.op.{op}") for op in (
        "poh_register", "poh_challenge", "poh_finalize", "group_join",
        "open_dispute", "join_dispute", "submit_evidence", "default_if_absent",
        "enroll_judge", "phase1_vote", "close_phase1", "start_phase2",
        "phase2_vote", "close_phase2", "claim_fee", "apply_reputation",
        "enforce_thresholds", "issue_party_sbt")],
    *[("scenario", f"AdversaryView.{name}", "scenario.view")
      for name in ("append", "as_jsonable", "kinds")],
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "_load_json", "cli.load_json"),
    ("cli", "transcript_from_jsonable", "cli.transcript_parse"),
    ("cli", "_emit", "cli.report_dump"),
]

# Hot leaf calls: summed per name, not kept one by one.
_SUMMED_PREFIXES = ("primitives.", "canonical", "identity.merkle")

# scenario ops whose latency distribution is reported
LATENCY_OPS = ("close_phase1", "enroll_judge", "group_join", "phase1_vote")

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class _JsonWithTracedDumps:
    """Stand-in for the `json` module inside `cli`, so the report
    serialization is timed without touching `json` for anyone else."""

    def __init__(self, dumps: Callable[..., str]):
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, raised]
        self.stats: dict[str, list[float]] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.escrow_scans = 0
        self.escrow_entries_scanned = 0
        self.merkle_hashes = 0
        self._merkle_depth = 0
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []
        self._origin = 0.0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        keep = not name.startswith(_SUMMED_PREFIXES)
        merkle = name.startswith("identity.merkle.")
        hashing = name == "primitives.hash"
        scan = name == "engine.escrow.scan"
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if hashing and tracer._merkle_depth:
                tracer.merkle_hashes += 1
            elif scan:
                tracer.escrow_scans += 1
                tracer.escrow_entries_scanned += len(args[0].entries)
            if merkle:
                tracer._merkle_depth += 1
            parent = stack[-1][2] if stack else -1
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if merkle:
                    tracer._merkle_depth -= 1
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    tracer.spans.append((span_id, name, frame[0], end, parent))

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; must run before the traced call starts."""
        modules = {
            name: importlib.import_module(f"disputekit.{name}")
            for name in ("primitives", "canonical", "identity", "maci", "voting",
                         "engine", "incentives", "scenario", "cli")
        }
        package = [m for n, m in sys.modules.items() if n.startswith("disputekit.")]
        for module_name, path, name in _TARGETS:
            owner: Any = modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, property):
                self._patch(owner, attr, property(self._wrap(raw.fget, name)))
            elif classes:
                self._patch(owner, attr, self._wrap(raw, name))
            else:
                traced = self._wrap(raw, name)
                # every module that imported the function by name
                for module in package:
                    if module.__dict__.get(attr) is raw:
                        self._patch(module, attr, traced)
        jsonschema = modules["cli"].jsonschema
        self._patch(jsonschema, "validate", self._wrap(jsonschema.validate, "cli.schema"))
        self._patch(modules["cli"], "json",
                    _JsonWithTracedDumps(self._wrap(json.dumps, "cli.report_dump")))
        self._origin = perf_counter()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return int(self.stats.get(name, [0])[0])

    def _total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def _self(self, *names: str) -> float:
        return sum(self.stats.get(name, [0, 0.0, 0.0])[2] for name in names)

    def _self_prefix(self, prefix: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def latencies(self, op: str) -> list[float]:
        name = f"scenario.op.{op}"
        return [end - start for _, span, start, end, _ in self.spans if span == name]

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced call, by metric name."""
        by_id = {span_id: name for span_id, name, _, _, _ in self.spans}
        under_verify = sum(
            end - start for _, name, start, end, parent in self.spans
            if name == "cli.load_json" and by_id.get(parent) == "cli.cmd_verify"
        )
        close1_passes = sum(
            1 for _, name, _, _, parent in self.spans
            if name in ("maci.preview", "maci.process")
            and by_id.get(parent) == "engine.close_phase1"
        )
        decrypts = self._calls("primitives.decrypt")
        failed_decrypts = int(self.stats.get("primitives.decrypt", [0, 0, 0, 0])[3])
        writes = self._calls("identity.merkle.write")
        out: dict[str, float] = {
            "primitives.decrypt.calls": decrypts,
            "primitives.decrypt.self_s": self._self("primitives.decrypt"),
            "primitives.verify_sig.calls": self._calls("primitives.verify_sig"),
            "primitives.verify_sig.self_s": self._self("primitives.verify_sig"),
            "primitives.key_agree.calls": self._calls("primitives.key_agree"),
            "primitives.keypair.calls": self._calls("primitives.keypair"),
            "primitives.hash.calls": self._calls("primitives.hash"),
            "primitives.hash.self_s": self._self("primitives.hash"),
            "canonical.calls": self._calls("canonical"),
            "canonical.self_s": self._self("canonical"),
            "identity.merkle.writes": writes,
            "identity.merkle.hashes_per_write": (
                self.merkle_hashes / writes if writes else 0.0),
            "identity.merkle.self_s": self._self_prefix("identity.merkle."),
            "identity.prove.calls": self._calls("identity.merkle.prove"),
            "identity.verify_signal.calls": self._calls("identity.verify_signal"),
            "identity.verify_signal.self_s": self._self("identity.verify_signal"),
            "identity.poh.self_s": self._self("identity.poh"),
            "maci.decrypt_attempts": decrypts,
            "maci.decrypt_hit_ratio": (
                (decrypts - failed_decrypts) / decrypts if decrypts else 0.0),
            "maci.passes_per_close": (
                close1_passes / self._calls("engine.close_phase1")
                if self._calls("engine.close_phase1") else 0.0),
            "maci.preview.self_s": self._self("maci.preview"),
            "maci.process.self_s": self._self("maci.process"),
            "maci.verify_audit.calls": self._calls("maci.verify_audit"),
            "maci.verify_audit.self_s": self._self("maci.verify_audit"),
            "voting.self_s": self._self("voting"),
            "engine.close_phase1.self_s": self._self("engine.close_phase1"),
            "engine.close_phase2.self_s": self._self("engine.close_phase2"),
            "engine.enroll_judge.self_s": self._self("engine.enroll_judge"),
            "engine.escrow.scans": self.escrow_scans,
            "engine.escrow.entries_scanned": self.escrow_entries_scanned,
            "engine.escrow.self_s": self._self_prefix("engine.escrow."),
            "incentives.self_s": self._self("incentives"),
        }
        for op in LATENCY_OPS:
            p50, tail, _ = latency_summary(self.latencies(op))
            out[f"scenario.op.{op}.p50_ms"] = p50
            out[f"scenario.op.{op}.tail_ms"] = tail
        out.update({
            "scenario.runner.self_s": self._self("scenario.runner"),
            "scenario.view.self_s": self._self("scenario.view"),
            "scenario.snapshot.self_s": self._self("scenario.snapshot"),
            "cli.schema_s": self._total("cli.schema"),
            "cli.run_scenario_s": self._total("scenario.runner"),
            "cli.report_dump_s": self._total("cli.report_dump"),
            "cli.transcript_parse_s": self._total("cli.transcript_parse") + under_verify,
        })
        return out

    def span_records(self) -> list[list[Any]]:
        """Kept spans as [name, start_s, end_s, parent_index], times relative
        to `install`, parent -1 for a root."""
        index = {span_id: i for i, (span_id, *_rest) in enumerate(self.spans)}
        return [
            [name, start - self._origin, end - self._origin, index.get(parent, -1)]
            for _, name, start, end, parent in self.spans
        ]


def _percentile(ordered: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile on the ladder with at least ten samples
    beyond it; None below twenty samples."""
    if count < 20:
        return None
    return next(p for p in _TAIL_LADDER if count * (100 - p) / 100 >= 10)


def latency_summary(samples: list[float]) -> tuple[float, float, Optional[float]]:
    """(p50_ms, tail_ms, tail percentile) of durations in seconds. A value
    that cannot be formed from the samples is reported as 0."""
    if not samples:
        return 0.0, 0.0, None
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    tail = _percentile(ordered, pct) * 1e3 if pct is not None else 0.0
    return _percentile(ordered, 50) * 1e3, tail, pct
