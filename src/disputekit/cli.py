"""Command-line front end for scripts and CI.

Three subcommands, three artifact formats:

  run <file> [--seed N] [--out PATH]
      Execute a JSON scenario file end-to-end and emit the run report
      (compact JSON on one line, keys sorted; pretty-print it with
      `python -m json.tool`). The runner checks the file against the
      published document schema (`scenario.SCENARIO_SCHEMA`) before
      anything runs, with a check compiled from it; `jsonschema` is
      imported only to judge and word a refusal, so a valid file, like
      every `verify`, runs without it. Exit 0 when every step met its
      expectation and every invariant held, 1 when one did not (each
      failed step, and any broken invariant, named on stderr), 2 on a
      parse or schema error, a step that refers to nothing, or an --out
      it cannot write.

  sweep <v_max> <grid_step> [--out PATH]
      Brute-force both runoff pricing rules over every integer budget
      pair in {1..v_max}^2 and cross-check witness existence against the
      closed-form winnable region. Emits CSV. grid_step must be finite,
      positive and at most v_max. Exit 1 iff the two routes disagree
      anywhere other than within quantization reach of the region
      boundary.

  verify <transcript> <commitment>
      Re-run a coordinator's published audit transcript (JSON) against
      the observed intake digest and tally commitment (JSON). Exit 0 on
      accept, 1 on reject (first failing check named), 2 on malformed
      input: a missing or unknown key, or a value that does not read, at
      any level, named by where it is (e.g. `entries[3].plaintext`).

Exit codes are uniform across subcommands: 0 success, 1 assertion or
verification failure, 2 usage or parse error. All output is
deterministic: the same inputs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

from . import scenario
from .errors import MalformedScript
from .maci import (
    AuditTranscript,
    FinalVote,
    TranscriptEntry,
    VoterFinalState,
    verify_audit,
)
from .oracle import SweepReport, consistency_sweep, square_grid_pairs
from .scenario import jsonable, run_scenario

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# benchmarks/tracing.py times `cli.jsonschema.validate` as the `cli.schema`
# span: that is the scenario document check, `scenario.validate`, which
# imports jsonschema itself only to judge a refused script.
jsonschema = scenario


# ---- audit artifact (de)serialization -------------------------------------------


def transcript_to_jsonable(transcript: AuditTranscript) -> dict[str, Any]:
    """The transcript's JSON form: each record's fields are its keys."""
    return jsonable(dataclasses.asdict(transcript))


def commitment_to_jsonable(intake_digest: bytes, commitment: bytes) -> dict[str, str]:
    """The observer's side of a verification: what the public record
    pinned down before the coordinator revealed anything."""
    return {"intake_digest": intake_digest.hex(), "commitment_digest": commitment.hex()}


def _hex(value: Any) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected a hex string, got {value!r:.60}") from None


def _exactly(kind: type, name: str) -> Callable[[Any], Any]:
    """A reader of a JSON value of type `kind` (so a boolean is no integer)."""

    def read(value: Any) -> Any:
        if type(value) is not kind:
            raise ValueError(f"expected {name}, got {value!r:.60}")
        return value

    return read


_int = _exactly(int, "an integer")
_bool = _exactly(bool, "a boolean")
_str = _exactly(str, "a string")


def _opt(read: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else read(value)


def _decimal(key: Any) -> int:
    """An integer map key as JSON writes it: canonical decimal, so no two
    spellings (`"152"`, `"0152"`, `" 152"`) name one key."""
    value = int(_str(key))
    if str(value) != key:
        raise ValueError(f"expected a canonical decimal key, got {key!r}")
    return value


def _object(value: Any) -> dict[str, Any]:
    if not isinstance(value, dict):  # what json reads an object as
        raise ValueError(f"expected an object, got {type(value).__name__}")
    return value


def _below(step: str, exc: ValueError) -> ValueError:
    """`exc` with its `path` grown by `step`, a `.key` or an `[index]`."""
    exc.path = step + getattr(exc, "path", "")  # type: ignore[attr-defined]
    return exc


def _fields(value: Any, readers: dict[str, Callable[[Any], Any]]) -> list:
    """The object `value`'s values, each read by its key's reader, in the
    readers' order; `value` must have exactly their keys, so that no field
    passes unread. The location of a failure is built only then."""
    if not (isinstance(value, dict) and value.keys() == readers.keys()):
        obj = _object(value)
        unknown = sorted(obj.keys() - readers.keys())
        missing = sorted(readers.keys() - obj.keys())
        raise ValueError(
            f"unknown key {unknown[0]!r}" if unknown else f"missing key {missing[0]!r}"
        )
    values = []
    try:
        for key, read in readers.items():
            values.append(read(value[key]))
    except ValueError as exc:
        raise _below(f".{key}", exc)
    return values


def _items(read: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    """A reader of a list whose every item `read` reads."""

    def read_items(value: Any) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {type(value).__name__}")
        items = []
        try:
            for item in value:
                items.append(read(item))
        except ValueError as exc:
            raise _below(f"[{len(items)}]", exc)
        return tuple(items)

    return read_items


def _document(doc: Any, readers: dict[str, Callable[[Any], Any]], name: str) -> list:
    """`_fields` of a whole document; a failure names where it is, e.g.
    `entries[3].plaintext`, or `name` for the top level itself."""
    try:
        return _fields(doc, readers)
    except ValueError as exc:
        where = getattr(exc, "path", "").lstrip(".") or name
        raise ValueError(f"{where}: {exc}") from None


def _voter(value: Any) -> tuple[bytes, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [key, credits], got {value!r:.60}")
    return _hex(value[0]), _int(value[1])


# each its record's fields, in order: the keys `transcript_to_jsonable` writes
_ENTRY = {"ciphertext_digest": _hex, "plaintext": _opt(_hex), "valid": _bool,
          "reason": _opt(_str)}
_VOTE = {"options": _items(_int), "amounts": _items(_int), "memo": _hex,
         "arrival_index": _int}
_STATE = {"current_key": _hex,
          "vote": _opt(lambda vote: FinalVote(*_fields(vote, _VOTE)))}
_TRANSCRIPT = {
    "poll_id": _int,
    "cost_rule": _str,
    "options": _int,
    "initial_voters": _items(_voter),
    "entries": _items(lambda entry: TranscriptEntry(*_fields(entry, _ENTRY))),
    "final_states": _items(lambda state: VoterFinalState(*_fields(state, _STATE))),
    "tally": lambda tally: {_decimal(k): _int(v) for k, v in _object(tally).items()},
    "salt": _hex,
}
_RECORD = {"intake_digest": _hex, "commitment_digest": _hex}


def transcript_from_jsonable(doc: Any) -> AuditTranscript:
    """The transcript in `doc`, which has exactly the keys the writer writes."""
    return AuditTranscript(*_document(doc, _TRANSCRIPT, "transcript"))


# ---- subcommands ----------------------------------------------------------------


def _emit(payload: str, out: Optional[str]) -> bool:
    """Write `payload` to `out`, or stdout when None; False if `out` cannot be."""
    if out is None:
        sys.stdout.write(payload)
        return True
    try:
        Path(out).write_text(payload)
        return True
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return False


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """An object with each key once. `json` keeps the last of two equal
    keys, so a reader that keeps the first would see another document."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, count in counts.items() if count > 1)
        raise ValueError(f"duplicate key {repeated!r}")
    return obj


def _load_json(path: str) -> Any:
    return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        script = _load_json(args.file)
    # ValueError covers a JSONDecodeError and a key `_unique_keys` refuses
    except (OSError, ValueError, RecursionError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_scenario(script, seed=args.seed)
    except MalformedScript as exc:
        print(f"malformed scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # without `indent`, json.dumps takes the C encoder
    if not _emit(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n", args.out):
        return EXIT_USAGE
    if not report["ok"]:
        failed = [
            f"step {step['position']} ({step['op']})"
            + (f": {step['invariant']}" if "invariant" in step else "")
            for step in report["steps"]
            if not step["pass"]
        ]
        if "invariant" in report:
            failed.append(report["invariant"])
        if not report.get("expected_match", True):
            failed.append("final-state expectation")
        print("failed: " + "; ".join(failed), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _csv_number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def sweep_csv(report: SweepReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "V_A",
            "V_B",
            "mechanism",
            "always_wins",
            "region_nonempty",
            "witness_y1",
            "witness_y2",
        ]
    )
    for row in report.rows:
        witness = row.witness
        writer.writerow(
            [
                _csv_number(row.v_a),
                _csv_number(row.v_b),
                row.mechanism,
                str(row.a_all_in_always_wins).lower(),
                str(row.region_nonempty).lower(),
                "" if witness is None else _csv_number(witness.y1),
                "" if witness is None else _csv_number(witness.y2),
            ]
        )
    return buffer.getvalue()


def cmd_sweep(args: argparse.Namespace) -> int:
    # learn that --out cannot be written before the sweep, not after it
    if args.out is not None and not _emit("", args.out):
        return EXIT_USAGE
    report = consistency_sweep(square_grid_pairs(args.v_max), args.grid_step)
    if not _emit(sweep_csv(report), args.out):
        return EXIT_USAGE
    hard = report.hard_disagreements
    print(
        f"{len(report.rows)} rows, "
        f"{len(report.disagreements) - len(hard)} boundary disagreements, "
        f"{len(hard)} hard disagreements",
        file=sys.stderr,
    )
    for row in hard:
        print(
            f"disagreement at V_A={_csv_number(row.v_a)} "
            f"V_B={_csv_number(row.v_b)} mechanism={row.mechanism}: "
            f"witness {'found' if row.witness is not None else 'missing'} "
            f"but region_nonempty={row.region_nonempty}",
            file=sys.stderr,
        )
    return EXIT_FAIL if hard else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        transcript = transcript_from_jsonable(_load_json(args.transcript))
        intake_digest, commitment = _document(
            _load_json(args.commitment), _RECORD, "commitment"
        )
    # ValueError covers a JSONDecodeError
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    verdict = verify_audit(transcript, intake_digest, commitment)
    if verdict:
        print("accepted")
        return EXIT_OK
    print(f"rejected: {verdict.reason}")
    return EXIT_FAIL


# ---- argument parsing -------------------------------------------------------------


def _v_max_arg(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("v_max must be at least 2")
    return value


def _grid_step_arg(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("grid_step must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disputekit",
        description="Scripted dispute-resolution runs, runoff sweeps, audit checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute a JSON scenario file")
    run.add_argument("file", help="scenario file (JSON)")
    run.add_argument("--seed", type=int, default=None, help="override the script seed")
    run.add_argument("--out", default=None, help="write the report here, not stdout")
    run.set_defaults(func=cmd_run)

    sweep = commands.add_parser(
        "sweep", help="cross-check the runoff brute force against the closed form"
    )
    sweep.add_argument("v_max", type=_v_max_arg, help="top of the budget grid (>= 2)")
    sweep.add_argument("grid_step", type=_grid_step_arg, help="response grid step")
    sweep.add_argument("--out", default=None, help="write the CSV here, not stdout")
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser(
        "verify", help="re-run a published audit transcript against its commitment"
    )
    verify.add_argument("transcript", help="audit transcript (JSON)")
    verify.add_argument("commitment", help="intake digest + tally commitment (JSON)")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a coarser grid samples only the zero response
    if args.command == "sweep" and args.grid_step > args.v_max:
        parser.error("sweep: grid_step must be at most v_max")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
