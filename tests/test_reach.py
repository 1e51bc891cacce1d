"""No code that only tests reach (ROADMAP aim 2): every function, class and
method defined in `src/` is referenced elsewhere in `src/`, as a name, an
attribute or an equal string constant. A docstring mention does not count,
and neither does a reference inside the definition itself. Dunder methods,
which Python calls itself, are exempt."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "disputekit"

# Each definition in `src/` that no other `src/` code reaches, with the
# ROADMAP item that gives it a caller or deletes it. An entry that becomes
# reached, or is deleted, must leave this list.
UNREACHED = {
    # pinned by the tracer (`benchmarks/tracing.py`), which item 12 edits
    "canonical.encode_str": 12,
    "canonical.Reader": 12,
    "canonical.Reader.read_uint32": 12,
    "canonical.Reader.read_int64": 12,
    "canonical.Reader.read_str": 12,
    "canonical.Reader.read_int_list": 12,
    "canonical.Reader.read_int_map": 12,
    "canonical.Reader.expect_end": 12,
    "incentives.governance_set": 12,
    "incentives.SbtRegistry.tokens_for": 12,
    "voting.validate_allocation": 12,
    # the artifacts `disputekit run --transcripts` is to write
    "cli.transcript_to_jsonable": 4,
    "cli.commitment_to_jsonable": 4,
    "maci.message_set_digest": 4,
    # the playbook `disputekit attacks` is to run
    "attacks.run_all_attacks": 5,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of every docstring's constant node."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _scan() -> tuple[dict, dict]:
    """Every definition as qualified name -> (file, name, first line, last
    line), and every reference as name -> [(file, line)]."""
    definitions: dict[str, tuple[str, str, int, int]] = {}
    references: dict[str, list[tuple[str, int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = _docstrings(tree)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _DEFINITIONS):
                    name = f"{prefix}.{child.name}"
                    definitions[name] = (path.name, child.name, child.lineno, child.end_lineno)
                    visit(child, name)
                    continue
                if isinstance(child, ast.Name):
                    referenced = child.id
                elif isinstance(child, ast.Attribute):
                    referenced = child.attr
                elif (
                    isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and id(child) not in docstrings
                ):
                    referenced = child.value
                else:
                    referenced = None
                if referenced is not None:
                    references.setdefault(referenced, []).append((path.name, child.lineno))
                visit(child, prefix)

        visit(tree, path.stem)
    return definitions, references


def test_every_definition_in_src_is_reached_from_src() -> None:
    definitions, references = _scan()
    unreached = set()
    for qualified, (file, name, first, last) in definitions.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            where != file or not first <= line <= last
            for where, line in references.get(name, ())
        ):
            unreached.add(qualified)
    assert unreached == set(UNREACHED)
