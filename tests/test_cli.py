"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matern_contact
from matern_contact import load_pattern
from matern_contact.cli import main


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
    for argv in (
        ["analytic", "--case", "ppp-ppp", "--reps", "0"],
        ["compare", "--case", "mhc-mhc", "--window", "1", "2", "3"],
        ["analytic", "--case", "ppp-ppp", "--lambda", "-1"],
        # replications that fail on their input: too few points, a window
        # below 10 x delta, and more points than the generator allows
        ["compare", "--case", "mhc-mhc", "--lambda", "0.001", "--window", "10",
         "--reps", "1"],
        ["compare", "--case", "mhc-mhc", "--window", "5", "--delta", "1", "--reps", "1"],
        ["simulate", "--case", "ppp-ppp", "--window", "1e5", "--reps", "1"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


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
