"""Command-line front end for scripts and CI.

Three subcommands, three artifact formats:

  run <file> [--seed N] [--out PATH]
      Execute a JSON scenario file end-to-end and emit the run report
      (compact JSON on one line, keys sorted; pretty-print it with
      `python -m json.tool`), written in pieces so that the whole text is
      never held (`report_pieces`). Before anything runs, a check compiled
      from the published document schema (`scenario.SCENARIO_SCHEMA`)
      decides the file and words any refusal, with no JSON Schema
      library. Exit 0 when every step met its expectation and every
      invariant held, 1 when one did not (each failed step, and any
      broken invariant, named on stderr), 2 on a parse or schema error,
      a step that refers to nothing, or an --out it cannot write.

  sweep <v_max> [--out PATH]
      Answer "can the poorer party win the runoff?" by both of the
      oracle's exact routes, for every budget pair 1 <= V_B < V_A <= v_max
      and both proposal orders. Emits CSV. v_max runs from 2 to 200
      (SWEEP_V_MAX). Exit 1 iff the two routes disagree on any row, each
      such row named on stderr.

  verify <transcript> <commitment>
      Re-run a coordinator's published audit transcript (JSON) against
      the observed intake digest and tally commitment (JSON). The
      transcript states the poll's parameters and starting voters and the
      coordinator's claims: each entry's verdict, the tally and the salt;
      each voter's counted vote is derived from the claimed verdicts, not
      read. Exit 0 on accept, 1 on reject (first failing check named), 2
      on malformed input: a missing or unknown key, or a value that does
      not read, at any level, named by where it is (e.g.
      `entries[3].plaintext`). A transcript that still states
      `final_states` is malformed (`unknown key 'final_states'`).

Exit codes are uniform across subcommands: 0 success, 1 assertion or
verification failure, 2 usage or parse error, or a stdout that cannot be
written (a pipe with no reader, a full disk), named on stderr in one line
(`cannot write stdout: Broken pipe`). A stderr that cannot be written
changes no exit code. All output is deterministic: the
same inputs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from binascii import a2b_hex
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TextIO

from . import scenario
from .errors import MalformedScript
from .maci import AuditTranscript, TranscriptEntry, verify_audit
from .scenario import jsonable, run_scenario

if TYPE_CHECKING:
    from .oracle import SweepReport

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# the name benchmarks/tracing.py times as the `cli.schema` span: the scenario
# document check, `scenario.validate` (no JSON Schema library is imported)
jsonschema = scenario


# ---- audit artifact (de)serialization -------------------------------------------


def transcript_to_jsonable(transcript: AuditTranscript) -> dict[str, Any]:
    """The transcript's JSON form: each record's fields are its keys."""
    doc = transcript._asdict()
    doc["entries"] = [entry._asdict() for entry in transcript.entries]
    return jsonable(doc)


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


# The two readers below take each item of a long list in one step: one
# type check per field and one `binascii.a2b_hex` per hex field, with no
# reader called per field. `a2b_hex` reads what `bytes.fromhex` reads but
# no whitespace, so a field it refuses may still read: the per-field
# readers (`_hex`, `_int`, `_ENTRY`) then read the item again, and word
# the refusal if there is one.


def _voter(value: Any) -> tuple[bytes, int]:
    """A starting voter, `[key, credits]`."""
    if type(value) is list and len(value) == 2:
        key, credits = value
        if type(key) is str and type(credits) is int:
            try:
                return a2b_hex(key), credits
            except ValueError:
                pass
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [key, credits], got {value!r:.60}")
    return _hex(value[0]), _int(value[1])


# each its record's fields, in order: the keys `transcript_to_jsonable` writes
_ENTRY = {"ciphertext_digest": _hex, "plaintext": _opt(_hex), "valid": _bool,
          "reason": _opt(_str)}
_ENTRY_KEYS = _ENTRY.keys()


def _entry(value: Any) -> TranscriptEntry:
    """A transcript entry: an object with exactly the keys of `_ENTRY`."""
    if type(value) is dict and value.keys() == _ENTRY_KEYS:
        digest, plaintext = value["ciphertext_digest"], value["plaintext"]
        valid, reason = value["valid"], value["reason"]
        if (
            type(digest) is str
            and (plaintext is None or type(plaintext) is str)
            and type(valid) is bool
            and (reason is None or type(reason) is str)
        ):
            try:
                return TranscriptEntry._make((
                    a2b_hex(digest),
                    None if plaintext is None else a2b_hex(plaintext),
                    valid,
                    reason,
                ))
            except ValueError:
                pass
    return TranscriptEntry(*_fields(value, _ENTRY))


_TRANSCRIPT = {
    "poll_id": _int,
    "cost_rule": _str,
    "options": _int,
    "initial_voters": _items(_voter),
    "entries": _items(_entry),
    "tally": lambda tally: {_decimal(k): _int(v) for k, v in _object(tally).items()},
    "salt": _hex,
}
_RECORD = {"intake_digest": _hex, "commitment_digest": _hex}


def transcript_from_jsonable(doc: Any) -> AuditTranscript:
    """The transcript in `doc`, which has exactly the keys the writer writes."""
    return AuditTranscript(*_document(doc, _TRANSCRIPT, "transcript"))


# ---- subcommands ----------------------------------------------------------------


# rows of a top-level report list that one call of the encoder turns to text
REPORT_SLICE_ROWS = 256

# the report's encoder: compact, keys sorted; without `indent` it is json's C
# encoder, where `json.dump` would take the pure-Python one
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def report_pieces(report: dict[str, Any]) -> Iterator[str]:
    """The text of `json.dumps(report, sort_keys=True, separators=(",", ":"))
    + "\n"`, in order, in pieces: each top-level key with its value, and each
    top-level list `REPORT_SLICE_ROWS` rows at a time. No piece is larger
    than a slice or a non-list value, so the whole text is never held."""
    yield "{"
    for position, key in enumerate(sorted(report)):
        value = report[key]
        yield ("," if position else "") + _encode_json(key) + ":"
        if not isinstance(value, list):
            yield _encode_json(value)
            continue
        yield "["
        for start in range(0, len(value), REPORT_SLICE_ROWS):
            rows = _encode_json(value[start:start + REPORT_SLICE_ROWS])
            yield ("," if start else "") + rows[1:-1]
        yield "]"
    yield "}\n"


def _silence(stream: TextIO) -> None:
    """Point `stream` at the null device: what it still buffers goes
    nowhere, so that the flush at exit cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _say(line: str) -> None:
    """Write `line` to stderr; if stderr cannot be written, silence it, so
    that the command's own exit code stands."""
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except OSError:
        _silence(sys.stderr)


def _emit(payload: str | Iterable[str], out: Optional[str]) -> bool:
    """Write `payload`, a string or its pieces in order, to `out`, or stdout
    when None; False, said on stderr in one line, if it cannot be written
    (for stdout: a pipe with no reader, a full disk)."""
    pieces = [payload] if isinstance(payload, str) else payload
    try:
        if out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(out, "w") as file:
                file.writelines(pieces)
        return True
    except OSError as exc:
        where = "stdout" if out is None else out
        _say(f"cannot write {where}: {exc.strerror or exc}")
        if out is None:
            _silence(sys.stdout)
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
    """Run the scenario and write its report, as `report_pieces`, to
    `--out` or stdout; the exit code says whether the run held."""
    try:
        script = _load_json(args.file)
    # ValueError covers a JSONDecodeError and a key `_unique_keys` refuses
    except (OSError, ValueError, RecursionError) as exc:
        _say(f"cannot read scenario: {exc}")
        return EXIT_USAGE
    try:
        report = run_scenario(script, seed=args.seed)
    except MalformedScript as exc:
        _say(f"malformed scenario: {exc}")
        return EXIT_USAGE

    if not _emit(report_pieces(report), args.out):
        return EXIT_USAGE
    if not report["ok"]:
        failed = [
            f"step {step['position']} ({step['op']})"
            for step in report["steps"]
            if not step["pass"]
        ]
        if "invariant" in report:
            failed.append(report["invariant"])
        if not report.get("expected_match", True):
            failed.append("final-state expectation")
        _say("failed: " + "; ".join(failed))
        return EXIT_FAIL
    return EXIT_OK


def _flag(value: bool) -> str:
    return "true" if value else "false"


def sweep_csv(report: SweepReport) -> str:
    """One line per row. No field holds a comma, a quote or a newline (each
    is a number, `true`/`false` or an empty witness), so none is quoted."""
    lines = ["V_A,V_B,b_first,reply_found,b_can_win,witness_y1,witness_y2"]
    for row in report.rows:
        y1, y2 = row.witness or ("", "")
        lines.append(
            f"{row.v_a},{row.v_b},{_flag(row.b_first)},"
            f"{_flag(row.witness is not None)},{_flag(row.b_can_win)},{y1},{y2}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    # imported here, not at import: no other command uses the oracle
    from .oracle import consistency_sweep

    # learn that --out cannot be written before the sweep, not after it
    if args.out is not None and not _emit("", args.out):
        return EXIT_USAGE
    report = consistency_sweep(args.v_max)
    if not _emit(sweep_csv(report), args.out):
        return EXIT_USAGE
    disagreements = report.disagreements
    _say(f"{len(report.rows)} rows, {len(disagreements)} disagreements")
    for row in disagreements:
        _say(
            f"disagreement at V_A={row.v_a} V_B={row.v_b} "
            f"b_first={_flag(row.b_first)}: winning reply "
            f"{'found' if row.witness is not None else 'missing'} "
            f"but b_can_win={_flag(row.b_can_win)}"
        )
    return EXIT_FAIL if disagreements else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        transcript = transcript_from_jsonable(_load_json(args.transcript))
        intake_digest, commitment = _document(
            _load_json(args.commitment), _RECORD, "commitment"
        )
    # ValueError covers a JSONDecodeError
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        _say(f"malformed input: {exc}")
        return EXIT_USAGE

    verdict = verify_audit(transcript, intake_digest, commitment)
    if not _emit("accepted\n" if verdict else f"rejected: {verdict.reason}\n", None):
        return EXIT_USAGE
    return EXIT_OK if verdict else EXIT_FAIL


# ---- argument parsing -------------------------------------------------------------


# the sweep's time grows as about v_max**3: 0.05 s at 40, 0.25 s at 80 and
# 2.6 s at this bound (39,800 rows, about 10 MB) on a 2-core x86 host
SWEEP_V_MAX = 200


def _v_max_arg(text: str) -> int:
    value = int(text)
    if not 2 <= value <= SWEEP_V_MAX:
        raise argparse.ArgumentTypeError(f"v_max must be from 2 to {SWEEP_V_MAX}")
    return value


# built on the first `main` call, not at import: building imports `locale`
@functools.cache
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
        "sweep", help="cross-check the runoff oracle's two exact routes"
    )
    sweep.add_argument(
        "v_max", type=_v_max_arg, help=f"top budget, from 2 to {SWEEP_V_MAX}"
    )
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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
