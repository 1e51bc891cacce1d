"""No code that only tests reach (ROADMAP aim 2): every function, class and
method defined in `src/` is referenced elsewhere in `src/`, as a name, an
attribute or an equal string constant. A docstring mention does not count,
and neither does a reference inside the definition itself. Dunder methods,
which Python calls itself, are exempt.

Nor a parameter default that only tests rely on: every parameter with a
default, in any `src/` function, is passed by some `src/` call of that
function's name, by position or by keyword; a `**` splat passes every name."""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

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

# Each parameter default in `src/` that no `src/` call passes, with why it
# stays. Parameters of the definitions in UNREACHED are not scanned.
UNPASSED = {
    "cli.main(argv)": "benchmarks/worker.py and the tests call it in-process",
    # each probe's seed: run_all_attacks calls the probes through ATTACKS
    "attacks.attack_double_vote(seed)": "dispatched through ATTACKS",
    "attacks.attack_coercion(seed)": "dispatched through ATTACKS",
    "attacks.attack_sybil(seed)": "dispatched through ATTACKS",
    "attacks.attack_spam(seed)": "dispatched through ATTACKS",
    "attacks.attack_takeover(seed)": "dispatched through ATTACKS",
    "attacks.attack_info_asymmetry(seed)": "dispatched through ATTACKS",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _defaults(
    tree: ast.Module, module: str
) -> Iterator[tuple[str, set[str], str, Optional[int]]]:
    """Every parameter with a default, as (its function's qualified name, the
    names a call of that function goes by, the parameter, its position among
    a call's positional arguments or None when it is keyword-only)."""

    def visit(node: ast.AST, prefix: str, in_class: Optional[str]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, _FUNCTIONS):
                qualified = f"{prefix}.{child.name}"
                names = {child.name}
                if in_class is not None and child.name == "__init__":
                    names.add(in_class)  # called by its class's name
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                bound = 1 if in_class is not None and not static else 0
                arguments = child.args
                positional = [*arguments.posonlyargs, *arguments.args]
                first_default = len(positional) - len(arguments.defaults)
                for index, arg in enumerate(positional[first_default:], first_default):
                    yield qualified, names, arg.arg, index - bound
                for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                    if default is not None:
                        yield qualified, names, arg.arg, None
                yield from visit(child, qualified, None)
            else:
                yield from visit(child, prefix, in_class)

    yield from visit(tree, module, None)


def _calls(tree: ast.Module) -> Iterator[tuple[str, int, set[str], bool]]:
    """Every call, as (the name it calls, its plain positional argument count,
    its keyword names, whether it splats a mapping)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        positional = len(node.args)
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                positional = index
                break
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg is not None}
        splat = any(keyword.arg is None for keyword in node.keywords)
        yield name, positional, keywords, splat


def test_every_parameter_default_in_src_is_passed_from_src() -> None:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unpassed = set()
    for module, tree in trees.items():
        for qualified, names, parameter, position in _defaults(tree, module):
            if qualified in UNREACHED:
                continue
            if not any(
                name in names
                and (
                    splat
                    or parameter in keywords
                    or position is not None and 0 <= position < positional
                )
                for name, positional, keywords, splat in calls
            ):
                unpassed.add(f"{qualified}({parameter})")
    assert unpassed == set(UNPASSED)
