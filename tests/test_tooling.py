"""Tests that the repository's tooling still fits the package."""

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
