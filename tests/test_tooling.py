"""Tests that the repository's tooling still fits the package."""

import ast
import types
from pathlib import Path

import matern_contact.cli

ROOT = Path(__file__).resolve().parents[1]


def load_script(path: Path) -> types.ModuleType:
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    # compiled from the text, so that no bytecode is written next to it
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_binding_is_an_attribute_of_its_owner():
    # the benchmark patches each (owner, attribute) on every run, so a
    # function that moves or is renamed breaks every benchmark run
    module = load_script(ROOT / "perfbench" / "tracing.py")
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


def test_stage_timing_rows_run_at_toy_sizes():
    # the row functions behind BENCH_<label>.json, on side-20 tori and 50
    # radii; nothing is written
    script = load_script(ROOT / "scripts" / "stage_timings.py")
    row = script.stage_row(20.0, 1.0)
    assert all(n > 0 for n in row["parents"] + row["survivors"] + row["observers"])
    assert "sup" in script.STAGES
    for stage in script.STAGES:
        assert row[f"{stage}_s"] >= 0.0 and row[f"{stage}_cpu_s"] >= 0.0
    for case in script.ANALYTIC_CASES:
        timed = script.analytic_row(case, 1.0, 50, 1)
        assert timed["radii"] >= 50 and timed["contact_cdf_s"] > 0.0, timed
    for case in script.POOLED_CASES:
        pooled = script.pooled_row(case, 1.0, 20.0, 1)
        assert pooled["samples"] > 0 and pooled["pooled_s"] > 0.0, pooled
