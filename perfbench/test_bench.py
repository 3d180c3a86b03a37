"""Tests of the benchmark itself, at smoke sizes (same code path and checks
as a full run). Run from the repository root with

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_counts_repeat_exactly():
    def counts():
        metrics = result_of(run_bench("compare-small", 1))["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}

    first = counts()
    assert first["simulate.thin_mhc_type2.parents"] > 0
    assert first == counts()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def mc():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import matern_contact

    return matern_contact


def test_checks_catch_wrong_thinning_and_nn(mc, monkeypatch):
    import checks

    rng = np.random.default_rng(0)
    parents = mc.sample_ppp(1.0, mc.Window(20.0, 20.0), (1, 0, 0))
    thinned = mc.thin_mhc_type2(parents, 1.0)
    monkeypatch.setattr(checks, "SAMPLE", parents.n)  # scan every point
    checks.check_thinning(parents, thinned, 1.0, rng)
    label = thinned.label.copy()
    label[np.flatnonzero(label == int(mc.PointLabel.CMHC))[0]] = int(mc.PointLabel.MHC)
    bad = mc.MarkedPattern(thinned.window, thinned.x, thinned.y, thinned.mark, label, thinned.seed)
    with pytest.raises(checks.CheckError):
        checks.check_thinning(parents, bad, 1.0, rng)

    mhc = mc.PointLabel.MHC
    nn = mc.nn_distances_within(thinned, mhc)
    checks.check_nn(thinned, mhc, thinned, mhc, nn, rng)
    nn[3] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_nn(thinned, mhc, thinned, mhc, nn, rng)


def test_check_scratch_stays_small(mc):
    """The brute-force scans must not set the worker's peak RSS."""
    import tracemalloc

    import checks

    rng = np.random.default_rng(0)
    parents = mc.sample_ppp(1.0, mc.Window(200.0, 200.0), (1, 0, 0))
    thinned = mc.thin_mhc_type2(parents, 1.0)
    mhc = mc.PointLabel.MHC
    nn = mc.nn_distances_within(thinned, mhc)
    tracemalloc.start()
    try:
        checks.check_thinning(parents, thinned, 1.0, rng)
        checks.check_nn(thinned, mhc, thinned, mhc, nn, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"check scratch peaked at {peak / 2**20:.1f} MiB"
