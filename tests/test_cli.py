"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matern_contact
from matern_contact import (
    ContactCase, ExperimentConfig, PointLabel, ProcessParams, load_pattern
)
from matern_contact.cli import CASE_THRESHOLDS, COMMANDS, CONFIG_FLAGS, main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_analytic_ppp_reduction(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["analytic", "--case", "ppp-ppp", "--lambda", "1", "--rmax", "1",
         "--points", "2", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["r", "F", "abs_error"]
    assert rows[-1, 0] == 1.0
    assert rows[-1, 1] == pytest.approx(1.0 - math.exp(-math.pi), abs=1e-6)


def test_analytic_writes_to_stdout_by_default(capsys):
    code = main(["analytic", "--case", "ppp-ppp", "--rmax", "1", "--points", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("r,F,abs_error")
    assert "0.95678" in out


def test_analytic_hard_core_curve_starts_at_zero(tmp_path):
    out = tmp_path / "mhc.csv"
    assert main(
        ["analytic", "--case", "mhc-mhc", "--delta", "1", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    assert rows[0, 0] == 1.0  # grid starts at the hard-core distance
    assert rows[0, 1] == 0.0
    assert np.all(np.diff(rows[:, 1]) >= 0)  # parses back to a monotone CDF


def test_analytic_small_delta_matches_ppp(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(
        ["analytic", "--case", "ppp-mhc", "--delta", "0.001", "--rmax", "4",
         "--points", "100", "--out", str(a)]
    ) == 0
    assert main(
        ["analytic", "--case", "ppp-ppp", "--rmax", "4", "--points", "100",
         "--out", str(b)]
    ) == 0
    _, ra = read_csv(a)
    _, rb = read_csv(b)
    assert np.max(np.abs(ra[:, 1] - rb[:, 1])) < 1e-2


def test_sparse_hard_core_curve_matches_the_poisson_curve(capsys):
    # exposure lambda_p pi delta**2 ~ 1e-14: the mhc-mhc curve lies within
    # O(exposure) of ppp-ppp; a cancelling difference quotient once put
    # F(1) at 0.95867 against 0.95679
    argv = ["--lambda", "1", "--delta", "5.6e-8", "--rmin", "0.5", "--rmax", "1", "--points", "3"]
    curves = {}
    for case in ("mhc-mhc", "ppp-ppp"):
        assert main(["analytic", "--case", case, *argv]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        curves[case] = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(curves["mhc-mhc"][:, 0], [0.5, 0.75, 1.0])
    assert np.array_equal(curves["ppp-ppp"][:, 0], [0.5, 0.75, 1.0])
    exposure = math.pi * 5.6e-8**2
    assert np.max(np.abs(curves["mhc-mhc"][:, 1] - curves["ppp-ppp"][:, 1])) <= 10.0 * exposure


def test_analytic_delta_sweep_writes_one_file_per_delta(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(
        ["analytic", "--case", "mhc-mhc", "--delta", "0.5", "1", "--points", "20",
         "--out", str(out)]
    ) == 0
    assert (tmp_path / "curves_delta0.5.csv").exists()
    assert (tmp_path / "curves_delta1.csv").exists()


def test_simulate_writes_empirical_cdf(tmp_path):
    out = tmp_path / "emp.csv"
    code = main(
        ["simulate", "--case", "ppp-ppp", "--window", "20", "--reps", "2",
         "--seed", "3", "--points", "50", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["r", "F_hat", "n"]
    assert np.all(np.diff(rows[:, 1]) >= 0)
    assert np.all(rows[:, 2] == rows[0, 2])
    assert rows[:, 1].max() <= 1.0


def test_json_output_format(tmp_path):
    out = tmp_path / "curve.json"
    assert main(
        ["analytic", "--case", "ppp-ppp", "--rmax", "1", "--points", "5",
         "--format", "json", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["case"] == "ppp-ppp"
    assert len(data["radii"]) == 5
    emp = tmp_path / "emp.json"
    assert main(
        ["simulate", "--case", "ppp-ppp", "--window", "20", "--reps", "2",
         "--seed", "3", "--points", "10", "--format", "json", "--out", str(emp)]
    ) == 0
    sim = json.loads(emp.read_text())
    assert sim["pooled_samples"] > 0
    assert len(sim["F_hat"]) == 10


def test_simulate_dumps_patterns(tmp_path):
    dump_dir = tmp_path / "patterns"
    out = tmp_path / "emp.csv"
    assert main(
        ["simulate", "--case", "mhc-mhc", "--window", "20", "--reps", "2",
         "--seed", "3", "--out", str(out), "--dump-patterns", str(dump_dir)]
    ) == 0
    dumps = sorted(dump_dir.glob("*.txt"))
    assert len(dumps) == 2
    pattern, params = load_pattern(dumps[0])
    assert params is not None and params.delta == 1.0
    assert pattern.n > 0


def test_compare_passes_and_is_byte_deterministic(tmp_path):
    # small window: MC noise is well above the acceptance-scale default gate
    args = [
        "compare", "--case", "ppp-ppp", "--window", "30", "--reps", "3",
        "--seed", "11", "--points", "60", "--threshold", "0.1",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())["reports"][0]
    assert report["within_threshold"] is True
    assert report["config"]["seed"] == 11


def test_compare_zero_threshold_always_fails(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["compare", "--case", "ppp-ppp", "--window", "30", "--reps", "2",
         "--seed", "11", "--threshold", "0", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["reports"][0]["within_threshold"] is False


def test_compare_config_round_trip(tmp_path):
    out1 = tmp_path / "r1.json"
    assert main(
        ["compare", "--case", "ppp-ppp", "--window", "25", "--reps", "2",
         "--seed", "4", "--points", "40", "--threshold", "0.1", "--out", str(out1)]
    ) == 0
    # re-running from the report's embedded config reproduces it byte for byte
    out2 = tmp_path / "r2.json"
    assert main(["compare", "--config", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_flag_overrides_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "case": "ppp-ppp", "lambda_p": 1.0, "delta": 1.0,
        "window": [25.0, 25.0], "replications": 2, "seed": 4,
        "threshold": 0.1,
    }))
    out = tmp_path / "r.json"
    assert main(
        ["compare", "--config", str(config), "--seed", "9", "--points", "40",
         "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["reports"][0]["config"]["seed"] == 9


@pytest.mark.parametrize("case", [c.value for c in ContactCase])
def test_compare_sup_does_not_depend_on_the_report_grid(tmp_path, case):
    # the sup reads F at the pooled samples, not between report radii, so
    # --points picks the report's radii and nothing else
    reports = []
    for points in ("10", "5000"):
        out = tmp_path / f"r{points}.json"
        assert main(
            ["compare", "--case", case, "--delta", "0.5", "--window", "20", "--reps", "2",
             "--seed", "3", "--points", points, "--threshold", "1", "--out", str(out)]
        ) == 0
        reports.append(json.loads(out.read_text())["reports"][0])
    coarse, fine = reports
    assert len(coarse["analytic"]["radii"]) == 10 and len(fine["analytic"]["radii"]) == 5000
    assert coarse["sup_distance"] == fine["sup_distance"] > 0.0
    assert coarse["sup_radius"] == fine["sup_radius"]


def test_density_counts_the_patterns_that_compare_dumps(capsys, tmp_path):
    # both commands draw each replication's pattern by the one seed scheme
    flags = ["--delta", "0.5", "--window", "30", "--reps", "2", "--seed", "6"]
    assert main(["density", *flags]) == 0
    mc = capsys.readouterr().out.splitlines()[1].split()[2]
    dumps = tmp_path / "dumps"
    argv = ["compare", "--case", "mhc-mhc", *flags, "--dump-patterns", str(dumps)]
    assert main(argv + ["--threshold", "1", "--out", str(tmp_path / "r.json")]) == 0
    patterns = [load_pattern(path)[0] for path in sorted(dumps.glob("*.txt"))]
    assert len(patterns) == 2
    densities = [p.count(PointLabel.MHC) / p.window.area for p in patterns]
    assert f"{float(np.mean(densities)):.6f}" == mc


def test_help_lists_every_config_flag_with_its_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # no help text is wrapped
    default = ExperimentConfig(ContactCase.PPP_TO_PPP, ProcessParams(1.0, 1.0))
    shown = {
        "--lambda": "(default 1)",
        "--delta": "(default 1)",
        "--window": f"(default {default.window.width:g} {default.window.height:g})",
        "--reps": f"(default {default.replications})",
        "--seed": f"(default {default.seed})",
        "--points": f"(default {default.r_points})",
        "--tol": f"(default {default.abs_tol:g})",
        "--threshold": ", ".join(
            f"{case.value} {gate:g}" for case, gate in CASE_THRESHOLDS.items()
        ),
    }
    for command in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        # one entry per option: its flag, its metavar and its help text
        entries = re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]
        help_of = {entry.split()[0]: " ".join(entry.split()) for entry in entries}
        for flag in CONFIG_FLAGS:
            assert flag in help_of, (command, flag)
            assert shown.get(flag, "") in help_of[flag], (command, flag, help_of[flag])


def test_density_prints_analytic_and_mc_side_by_side(capsys):
    code = main(
        ["density", "--lambda", "1", "--delta", "1", "--window", "30",
         "--reps", "5", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split() == ["delta", "analytic_intensity", "mc_intensity", "mc_stderr"]
    delta, analytic, mc, se = (float(v) for v in out[1].split())
    assert analytic == pytest.approx((1 - math.exp(-math.pi)) / math.pi, abs=1e-6)
    assert abs(mc - analytic) < 0.05


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--case", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, named in (
        (["analytic", "--case", "ppp-ppp", "--reps", "0"], "--reps"),
        (["compare", "--case", "mhc-mhc", "--window", "1", "2", "3"], "--window"),
        (["analytic", "--case", "ppp-ppp", "--lambda", "-1"], "--lambda"),
        # a tolerance no double-precision quadrature can meet
        (["analytic", "--case", "mhc-mhc", "--points", "5", "--tol", "1e-300"],
         "quadrature stalled"),
        # a replication with too few points fails on its data
        (["compare", "--case", "mhc-mhc", "--lambda", "0.001", "--window", "10",
          "--reps", "1"], "replication 0"),
        # a window below 10 x delta and more points than the generator allows
        # are caught before any replication, against the flags that set them
        (["compare", "--case", "mhc-mhc", "--window", "5", "--delta", "1",
          "--reps", "1"], "--window 5 5 --delta 1: "),
        (["density", "--window", "5", "--delta", "1", "--reps", "1"],
         "--window 5 5 --delta 1: "),
        (["simulate", "--case", "ppp-ppp", "--window", "1e5", "--reps", "1"],
         "--lambda 1 --window 100000 100000: "),
        # a negative radius would otherwise be written as a report row
        (["simulate", "--case", "ppp-ppp", "--rmin", "-1", "--points", "3",
          "--window", "20", "--reps", "1"], "--rmin"),
        # --rmax below the lower support, where --rmin starts by default
        (["analytic", "--case", "mhc-mhc", "--rmax", "0.5", "--points", "3"], "--rmax"),
        (["compare", "--case", "mhc-mhc", "--delta", "0.25", "1", "--rmax", "0.5",
          "--points", "3", "--window", "30", "--reps", "1"], "--rmax"),
        (["simulate", "--case", "mhc-mhc", "--rmax", "0.5", "--points", "3",
          "--window", "30", "--reps", "1"], "--rmax"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert named in err, (argv, err)


@pytest.mark.parametrize(
    "content, named",
    [
        ({"window": 50}, "'window'"),
        ({"replications": "2"}, "'replications'"),
        ({"r_grid": {"points": 2.5}}, "'r_grid.points'"),
        ({"abs_tol": "x"}, "'abs_tol'"),
        ({"seed": 1.5}, "'seed'"),
        ({"replication": 1}, "'replication'"),
        ([1, 2], "JSON object"),
        ("config", "JSON object"),
    ],
)
def test_malformed_config_files_exit_two(tmp_path, capsys, content, named):
    small = {"case": "mhc-mhc", "window": [20, 20], "replications": 1, "seed": 1}
    if isinstance(content, dict):
        content = {**small, **content}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert named in err, err


def test_a_sweep_checks_every_delta_before_the_first_runs(capsys, tmp_path):
    # only the second delta is below the window floor (20 < 10 x 3)
    sweep = ["--delta", "0.5", "3", "--window", "20", "--reps", "1"]
    for argv in (
        ["compare", "--case", "mhc-mhc"],
        ["simulate", "--case", "ppp-mhc"],
        ["density"],
    ):
        out = tmp_path / argv[0]
        assert main(argv + sweep + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        # the error is all there is: no delta ran and nothing was written
        assert err.startswith("error: --window 20 20 --delta 3: "), err
        assert err.count("\n") == 1, err
        assert not list(tmp_path.glob(f"{argv[0]}*")), argv


def test_an_empty_radius_range_stops_every_delta_before_the_first_runs(capsys, tmp_path):
    # only the second delta's lower support lies above --rmax
    sweep = ["--case", "mhc-mhc", "--delta", "0.25", "1", "--rmax", "0.5",
             "--points", "3", "--window", "30", "--reps", "1"]
    for command in ("analytic", "simulate", "compare"):
        out, dumps = tmp_path / f"{command}.out", tmp_path / f"{command}_dumps"
        argv = [command, *sweep, "--out", str(out), "--dump-patterns", str(dumps)]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        # the error is all there is: no delta ran and nothing was written
        assert err.startswith("error: --rmin/--rmax with --delta 1: "), err
        assert "--rmin defaults to the lower support" in err, err
        assert err.count("\n") == 1, err
        assert not list(tmp_path.iterdir()), argv


def test_cmhc_mhc_at_delta_zero_exits_two_before_any_delta_runs(capsys, tmp_path):
    # at delta 0 no point is removed: a sweep used to run its first delta in
    # full and then fail on replication 0, and analytic printed the Poisson curve
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"case": "cmhc-mhc", "delta": [0.5, 0]}))
    small = ["--window", "20", "--reps", "2", "--points", "3"]
    for argv in (
        ["compare", "--case", "cmhc-mhc", "--delta", "0.5", "0", *small],
        ["simulate", "--case", "cmhc-mhc", "--delta", "0", "0.5", *small],
        ["analytic", "--case", "cmhc-mhc", "--delta", "0", "--points", "3"],
        ["analytic", "--config", str(config), "--points", "3"],
        ["compare", "--config", str(config), *small],
    ):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, (argv, captured)
        assert captured.err.startswith("error: --delta 0 with --case cmhc-mhc: "), argv
        assert not (tmp_path / "out").exists(), argv
    # delta 0 stays valid for the other cases
    assert main(["analytic", "--case", "mhc-mhc", "--delta", "0", "--points", "3"]) == 0
    capsys.readouterr()


def test_deltas_that_share_a_file_name_exit_two(capsys, tmp_path):
    small = ["--points", "5", "--window", "20", "--reps", "1"]
    dump = ["--dump-patterns", str(tmp_path / "dumps")]
    for argv, named in (
        # {:g} prints both as 1: the second curve would overwrite the first
        (["analytic", "--case", "mhc-mhc", "--delta", "1.0000001", "1.0000002",
          "--out", str(tmp_path / "a.csv")], "--delta 1.0000001 1.0000002: "),
        (["analytic", "--case", "mhc-mhc", "--delta", "0.5", "0.5",
          "--out", str(tmp_path / "a.csv")], "--delta 0.5 0.5: "),
        (["simulate", "--case", "mhc-mhc", "--delta", "0.5", "1", "0.5",
          "--out", str(tmp_path / "s.csv")], "--delta 0.5 0.5: "),
        (["simulate", "--case", "mhc-mhc", "--delta", "0.5", "0.5", *dump],
         "--delta 0.5 0.5: "),
        (["compare", "--case", "mhc-mhc", "--delta", "0.5", "0.5", *dump],
         "--delta 0.5 0.5: "),
    ):
        assert main(argv + small) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir()), argv
    # stdout and compare's single report hold every delta
    for argv in (
        ["analytic", "--case", "mhc-mhc", "--delta", "0.5", "0.5"],
        ["simulate", "--case", "mhc-mhc", "--delta", "0.5", "0.5"],
        ["compare", "--case", "mhc-mhc", "--delta", "0.5", "0.5", "--threshold", "1",
         "--out", str(tmp_path / "c.json")],
    ):
        assert main(argv + small) == 0, argv
    capsys.readouterr()


def test_simulate_runs_no_quadrature(capsys):
    # both fail in the analytic curve, which simulate does not write
    for argv in (
        ["--case", "mhc-mhc", "--delta", "0.5", "--window", "20", "--tol", "1e-300"],
        ["--case", "ppp-mhc", "--delta", "0.5", "--window", "30", "--rmin", "0.5"],
    ):
        assert main(["simulate", "--reps", "1", "--points", "5"] + argv) == 0, argv
        out = capsys.readouterr().out
        assert out.startswith("r,F_hat,n\n") and out.count("\n") == 6, out


@pytest.mark.parametrize(
    "case, delta, rmin",
    [("mhc-mhc", "0.5", "0.7"), ("ppp-mhc", "1", "0.5"), ("cmhc-mhc", "1", "0.3")],
)
def test_compare_with_rmin_above_the_smallest_distance(capsys, case, delta, rmin):
    # --rmin picks the report's radii; the sup distance still covers every sample
    argv = ["compare", "--case", case, "--delta", delta, "--rmin", rmin,
            "--window", "30", "--reps", "1", "--points", "5"]
    assert main(argv) in (0, 1)
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["empirical"]["min"] < float(rmin)
    assert report["analytic"]["radii"][0] == float(rmin)
    assert len(report["analytic"]["radii"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        # the closed forms' denominator check overflowed at huge delta and
        # underflowed at tiny delta
        ["analytic", "--case", "mhc-mhc", "--points", "3", "--delta", "1e100"],
        ["analytic", "--case", "mhc-mhc", "--points", "3", "--delta", "1e-160"],
        # the lens areas cancel at r >> delta
        ["analytic", "--case", "mhc-mhc", "--points", "3", "--lambda", "1e-300",
         "--delta", "1"],
        # pi * delta**2 overflows, or underflows to 0
        ["analytic", "--case", "mhc-mhc", "--points", "3", "--delta", "1e154"],
        ["analytic", "--case", "mhc-mhc", "--points", "3", "--delta", "1e155"],
        ["analytic", "--case", "cmhc-mhc", "--delta", "1e-300", "--points", "3"],
        # in delta units, lambda_p delta**2 squared underflows at exposure 3e-200,
        # and the radii r / delta of a default grid at exposure 3e-306 overflow
        # when squared
        ["analytic", "--case", "cmhc-mhc", "--points", "3", "--delta", "1e-100"],
        ["analytic", "--case", "ppp-mhc", "--points", "3", "--delta", "1e-153"],
        ["compare", "--case", "mhc-mhc", "--delta", "1e-160", "--window", "20",
         "--reps", "1", "--points", "3"],
        # the rival-mark average overflows from exposure 1e154
        ["analytic", "--case", "cmhc-mhc", "--points", "3", "--delta", "1e100"],
        # a Poisson curve's hazard lambda_p pi r**2 overflows; the sup reads
        # F through it too (threshold 1: one small replication misses 0.01)
        ["analytic", "--case", "ppp-ppp", "--points", "2", "--rmax", "1e200"],
        ["analytic", "--case", "ppp-mhc", "--delta", "0", "--points", "2", "--rmax", "1e200"],
        ["compare", "--case", "ppp-ppp", "--window", "30", "--reps", "1", "--points", "2",
         "--rmax", "1e200", "--threshold", "1"],
    ],
)
def test_extreme_lambda_and_delta_exit_without_a_traceback(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err, (argv, code, err)
    assert code == 0 or err.startswith("error: "), (argv, err)


def test_analytic_ignores_the_simulation_window(capsys):
    # the window floor and the point cap concern simulation only
    argv = ["analytic", "--case", "mhc-mhc", "--delta", "1", "--points", "5"]
    assert main(argv + ["--window", "5"]) == 0
    small = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == small


# flag values for the fuzz test, valid then invalid: valid ones keep patterns
# below ~5000 points, invalid ones are zero, negative or non-finite, and 1e9
# and 1e12 exceed the point cap on every window here
FUZZ_FLAGS = {
    "--lambda": (["0.5", "1", "2"], ["0", "-1", "nan", "1e9", "1e12"]),
    "--delta": (["0", "0.25", "0.5", "1", "3"], ["-1", "nan"]),
    "--seed": (["0", "7"], ["-3"]),
    "--rmin": (["0", "0.5"], ["-1"]),
    "--rmax": (["0.1", "3"], ["nan"]),
    "--tol": (["1e-6"], ["0", "-1", "nan", "1e-300"]),
    "--threshold": (["0", "0.05", "1"], []),
    "--format": (["csv", "json"], []),
}
# always given: the sizes, so that no default of 20 replications on 100 x 100
# runs, and the case, which every command but density needs
FUZZ_ALWAYS = {
    "--case": (["ppp-ppp", "mhc-mhc", "ppp-mhc", "cmhc-mhc"], []),
    "--window": (["5", "20", "50"], ["0", "-2", "nan", "inf"]),
    "--reps": (["1", "2"], ["0", "-1"]),
    "--points": (["2", "50"], ["0", "1"]),
}


@st.composite
def cli_argv(draw):
    argv = [draw(st.sampled_from(["analytic", "simulate", "compare", "density"]))]
    for flag, (valid, invalid) in {**FUZZ_FLAGS, **FUZZ_ALWAYS}.items():
        if flag in FUZZ_ALWAYS or draw(st.booleans()):
            argv.append(flag)
            count = draw(st.integers(1, 2)) if flag in ("--delta", "--window") else 1
            for _ in range(count):
                # one value in ten is invalid, so most runs get past the checks
                bad = invalid and draw(st.integers(0, 9)) == 9
                argv.append(draw(st.sampled_from(invalid if bad else valid)))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=cli_argv())
@example(argv=["compare", "--case", "mhc-mhc", "--lambda", "1e12", "--window", "50",
               "--reps", "2", "--points", "50"])
@example(argv=["density", "--lambda", "1e9", "--window", "5", "--reps", "1",
               "--points", "2"])
def test_cli_exit_codes_hold_for_any_flag_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code == 1:
        assert argv[0] == "compare", (argv, text)
    lam = argv[argv.index("--lambda") + 1] if "--lambda" in argv else "1"
    if argv[0] != "analytic" and lam in ("1e9", "1e12") and code == 2:
        # nothing was generated: the cap is checked when the config is built
        assert "replication" not in text, (argv, text)


def test_case_required_for_pipeline_commands():
    assert main(["analytic"]) == 2
    assert main(["compare"]) == 2


def test_analytic_command_does_not_import_the_k_d_tree():
    # scipy.spatial is most of the start-up time, and only simulation needs it
    script = (
        "import sys\n"
        "from matern_contact.cli import main\n"
        "assert main(['analytic', '--case', 'mhc-mhc', '--points', '5']) == 0\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n"
    )
    src = str(Path(matern_contact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("r,F,abs_error")
