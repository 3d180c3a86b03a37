"""Tests that the repository's tooling still fits the package."""

import ast
import json
import math
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
    # the row functions behind BENCH_<label>.json, on side-20 tori, 50 curve
    # radii and 10 or 20 lens radii; nothing is written
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
    written = script.serialisation_rows(50, 20.0, 1)
    assert [row["format"] for row in written] == ["csv", "json"]
    for row in written:
        assert row["bytes"] > 0 and row["write_q1_s"] <= row["write_s"] <= row["write_q3_s"], row
    lens = script.lens_rows((10, 20), 3)
    assert [(row["lens"], row["radii"]) for row in lens] == [
        (name, n) for n in (10, 20) for name in ("lens_symmetric", "lens_asymmetric")
    ]
    for row in lens:
        assert 0.0 < row["lens_q1_s"] <= row["lens_s"] <= row["lens_q3_s"], row


def test_report_diff_compares_hand_made_outputs():
    script = load_script(ROOT / "scripts" / "report_diff.py")

    def report(f_last: float) -> str:
        entry = {
            "config": {"case": "mhc-mhc", "delta": 0.5},
            "sup_distance": 0.01,
            "within_threshold": True,
            "empirical": {"pooled_samples": 10, "F_hat": [0.0, 0.5]},
            "analytic": {"radii": [0.5, 1.0], "F": [0.0, f_last], "abs_error": [0.0, 1e-17]},
        }
        return json.dumps({"reports": [entry]}, indent=2)

    same = script.compare((0, report(0.5)), (0, report(0.5)))
    assert same["identical"] and same["mismatched"] == []
    assert same["F"] == same["abs_error"] == same["sup_distance"] == 0.0
    ulp = script.compare((0, report(0.5)), (0, report(math.nextafter(0.5, 1.0))))
    assert not ulp["identical"] and ulp["mismatched"] == []
    assert ulp["F"] == math.ulp(0.5) and ulp["abs_error"] == 0.0
    csv = "r,F,abs_error\n0.5,0.0,0.0\n1.0,0.5,1e-17\n"
    codes = script.compare((0, csv), (2, ""))
    assert codes["codes"] == (0, 2) and not codes["identical"]
    assert codes["mismatched"] == ["exit code", "radii"] and codes["F"] == math.inf


def test_report_diff_sums_up_every_invocation_in_one_line():
    script = load_script(ROOT / "scripts" / "report_diff.py")
    csv = "r,F,abs_error\n0.5,0.0,0.0\n1.0,0.5,1e-17\n"
    moved = csv.replace("0.5,1e-17", f"{math.nextafter(0.5, 1.0)!r},3e-17")
    results = [script.compare((0, csv), (0, csv)), script.compare((0, csv), (0, moved))]
    line = script.summary(results)
    assert line == (
        "summary: byte-identical outputs 1 of 2, max|dF| 1.11e-16, "
        "max|d abs_error| 2.00e-17, max|d sup| 0.00e+00"
    )
    assert "\n" not in line
    assert script.summary([]).startswith("summary: byte-identical outputs 0 of 0,")


def test_report_diff_compares_pattern_dumps_byte_for_byte(tmp_path):
    script = load_script(ROOT / "scripts" / "report_diff.py")
    assert any(script.DUMPS in argv for argv in script.argvs())
    dirs = {}
    for name, last in (("parent", b"1"), ("same", b"1"), ("moved", b"2")):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        (dirs[name] / "rep000_pattern.txt").write_bytes(b"# window 30.0 30.0\n")
        (dirs[name] / "rep001_pattern.txt").write_bytes(b"0.5 0.25 0.125 MHC\n" + last)
    assert script.same_dumps(dirs["parent"], dirs["same"])
    assert not script.same_dumps(dirs["parent"], dirs["moved"])
    # a file on one side only, and no directory at all
    (dirs["same"] / "rep002_pattern.txt").write_bytes(b"")
    assert not script.same_dumps(dirs["parent"], dirs["same"])
    assert script.same_dumps(tmp_path / "none", tmp_path / "missing")
