"""Every byte a run draws comes from its seed: no module of the package
reads OS entropy, the clock, or the module-level random generator."""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import pytest

import disputekit

PACKAGE = Path(disputekit.__file__).parent


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name it was imported as."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _resolve(func: ast.expr, imports: dict[str, str]) -> Optional[str]:
    """The dotted name a call target refers to, when it starts at an import."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in imports:
        return None
    return ".".join([imports[func.id], *reversed(parts)])


def _nondeterministic(name: str) -> bool:
    module, _, rest = name.partition(".")
    if module == "random":
        # a seeded random.Random(...) is the one allowed source
        return rest != "Random"
    return (
        name in ("os.urandom", "uuid.uuid4")
        or module in ("secrets", "time")
        or (module == "datetime" and name.endswith((".now", ".utcnow", ".today")))
    )


def offences(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imports = _imports(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _resolve(node.func, imports)
            if name is not None and _nondeterministic(name):
                found.append((node.lineno, name))
    return sorted(found)


def test_the_package_draws_nothing_outside_the_seed() -> None:
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in offences(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import os\nos.urandom(8)", "os.urandom"),
        ("from os import urandom as u\nu(8)", "os.urandom"),
        ("import secrets\nsecrets.token_bytes(8)", "secrets.token_bytes"),
        ("import time\ntime.time()", "time.time"),
        ("from time import perf_counter\nperf_counter()", "time.perf_counter"),
        ("import datetime\ndatetime.datetime.now()", "datetime.datetime.now"),
        ("from datetime import datetime\ndatetime.now()", "datetime.datetime.now"),
        ("import uuid\nuuid.uuid4()", "uuid.uuid4"),
        ("import random\nrandom.randbytes(8)", "random.randbytes"),
        ("import random as r\nr.random()", "random.random"),
        ("import random\nrandom.SystemRandom()", "random.SystemRandom"),
    ],
)
def test_the_scan_finds_each_unseeded_source(source: str, name: str) -> None:
    assert offences(source) == [(2, name)]


def test_the_scan_allows_a_seeded_generator() -> None:
    source = (
        "import random\n"
        "rng = random.Random(7)\n"
        "rng.randbytes(8)\n"
        "def f(rng: random.Random): return rng.random()\n"
    )
    assert offences(source) == []
