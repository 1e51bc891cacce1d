"""The benchmark's tracer wraps names in `src/` by name: it must still find
each of them, and put every one back."""
from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import jsonschema

import disputekit.cli  # noqa: F401  (the tracer wraps names in every layer)

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict[str, dict]:
    """The names of every disputekit module and class, and `jsonschema`'s."""
    found = {"jsonschema": dict(vars(jsonschema))}
    for name, module in sys.modules.items():
        if name.startswith("disputekit."):
            found[name] = dict(vars(module))
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == name:
                    found[f"{name}.{cls_name}"] = dict(vars(cls))
    return found


def test_the_tracer_installs_and_uninstalls() -> None:
    before = namespaces()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert namespaces() != before
    finally:
        tracer.uninstall()
    assert namespaces() == before
