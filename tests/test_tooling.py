"""Tests that the repository's tooling still fits the package."""

import ast
import types
from pathlib import Path

import matern_contact.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_is_an_attribute_of_its_owner():
    # the benchmark patches each (owner, attribute) on every run, so a
    # function that moves or is renamed breaks every benchmark run
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    # compiled from the text, so that no bytecode is written next to it
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    bindings = module.bindings(matern_contact)
    assert bindings
    for owner, attr, name in bindings:
        assert attr in owner.__dict__, (owner, attr, name)


def test_source_has_no_assert_statements():
    # python -O strips asserts, and an AssertionError would reach the command
    # line as a traceback; a check in the package raises an error the CLI reports
    package = Path(matern_contact.cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
