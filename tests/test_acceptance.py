"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 5-7 compare the analytic curves against high-sample simulation at
figure-level tolerances (0.02/0.02/0.04). The analytic hazard combines exact
pair correlations with a one-step closure for the void ratio, and a removed
observer's curve up to delta comes from its survivor-count moments; none of
it is exact, so these criteria measure model error. At the seed and
window below the pooled sup distances are about 0.004/0.007 (mhc-mhc,
delta 0.5/1), 0.005/0.007 (ppp-mhc) and 0.017/0.017 (cmhc-mhc), against a
per-replication sup spread (sd) of 0.002-0.007. The implementation itself is
validated independently by criteria 4, 8 and 10 and by the closed-form,
quadrature and Monte-Carlo cross-checks in the unit suite.
"""

import json
import math

import numpy as np
import pytest

from matern_contact import (
    ContactCase,
    ExperimentConfig,
    PointLabel,
    ProcessParams,
    RetentionFunction,
    Window,
    contact_cdf,
    default_r_grid,
    nn_distances_within,
    run_experiment,
    sample_ppp,
    thin_mhc_type2,
)
from matern_contact.analytic import mhc_intensity, pair_retention
from matern_contact.cli import main as cli_main
from matern_contact.geometry import lens_asymmetric, lens_symmetric
from oracles import (
    lens_area_raster,
    lens_area_two_circles,
    pair_retention_quadrature,
    void_probability_discretized,
)

SEED = 20260808
W100 = Window(100.0, 100.0)
W50 = Window(50.0, 50.0)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d}: {label} {detail}".rstrip())
    assert ok, f"criterion {number:02d} failed: {label} {detail}"


def test_criterion_01_hard_core_exactness():
    violations = 0
    for rep in range(100):
        pattern = thin_mhc_type2(sample_ppp(1.0, W100, (101, rep, 0)), 1.0)
        if nn_distances_within(pattern, PointLabel.MHC).min() <= 1.0:
            violations += 1
    report(1, "hard-core exactness over 100 patterns", violations == 0,
           f"(patterns with a pair at distance <= delta: {violations})")


def test_criterion_02_thinned_intensity():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for delta in (0.25, 0.5, 1.0):
            densities = np.array([
                thin_mhc_type2(sample_ppp(lam, W50, (777, rep, 0)), delta)
                .count(PointLabel.MHC) / W50.area
                for rep in range(100)
            ])
            target = mhc_intensity(ProcessParams(lam, delta))
            stderr = densities.std(ddof=1) / math.sqrt(len(densities))
            worst = max(worst, abs(densities.mean() - target) / stderr)
    report(2, "thinned intensity within 3 standard errors on the 9-point grid",
           worst < 3.0, f"(worst z-score {worst:.2f})")


def test_criterion_03_ppp_reduction(tmp_path):
    params = ProcessParams(1.0, 0.0)
    grid = default_r_grid(ContactCase.PPP_TO_PPP, params, points=200)
    curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_PPP, params), grid, 1e-9)
    gap = float(np.max(np.abs(curve.values - (1.0 - np.exp(-math.pi * grid**2)))))

    out = tmp_path / "ppp.json"
    code = cli_main([
        "compare", "--case", "ppp-ppp", "--lambda", "1", "--reps", "10",
        "--seed", str(SEED), "--out", str(out),
    ])
    sup = json.loads(out.read_text())["reports"][0]["sup_distance"]
    report(3, "closed-form reduction and full-pipeline comparison",
           gap < 1e-9 and code == 0 and sup < 0.01,
           f"(curve gap {gap:.2e}, compare sup {sup:.4f}, exit {code})")


def test_criterion_04_pair_retention_oracle_equivalence():
    worst = 0.0
    for ratio in (1.01, 1.1, 1.5, 2.0, 3.0, 10.0):
        for delta in (0.25, 0.5, 1.0, 2.0):
            for lam in (0.5, 1.0, 4.0):
                params = ProcessParams(lam, delta)
                closed = pair_retention(np.array([ratio]), lam * delta * delta)[0]
                numeric = pair_retention_quadrature(ratio * delta, params)
                worst = max(worst, abs(closed - numeric))
    report(4, "closed form vs 2-D quadrature on the 72-point grid",
           worst < 1e-8, f"(worst abs diff {worst:.2e})")


def _figure_sups(case: ContactCase, deltas=(0.5, 1.0)) -> dict[float, float]:
    sups = {}
    for delta in deltas:
        config = ExperimentConfig(
            case=case, params=ProcessParams(1.0, delta), window=W100,
            replications=20, seed=SEED,
        )
        sups[delta] = run_experiment(config).sup_distance
    return sups


def test_criterion_05_mhc_to_mhc_reproduction():
    sups = _figure_sups(ContactCase.MHC_TO_MHC)
    detail = " ".join(f"delta={d}: sup={s:.4f}" for d, s in sups.items())
    report(5, "mhc-mhc curves vs pooled simulation (tolerance 0.02)",
           all(s <= 0.02 for s in sups.values()), f"({detail})")


def test_criterion_06_ppp_to_mhc_reproduction():
    sups = _figure_sups(ContactCase.PPP_TO_MHC)
    detail = " ".join(f"delta={d}: sup={s:.4f}" for d, s in sups.items())
    report(6, "ppp-mhc curves vs pooled simulation (tolerance 0.02)",
           all(s <= 0.02 for s in sups.values()), f"({detail})")


def test_criterion_07_cmhc_to_mhc_reproduction():
    sups = _figure_sups(ContactCase.CMHC_TO_MHC)
    detail = " ".join(f"delta={d}: sup={s:.4f}" for d, s in sups.items())
    report(7, "cmhc-mhc approximation vs pooled simulation (tolerance 0.04)",
           all(s <= 0.04 for s in sups.values()), f"({detail})")


def test_criterion_08_annulus_product_convergence():
    params = ProcessParams(1.0, 0.5)
    worst_gap = 0.0
    worst_order = 1.0
    for case in ContactCase:
        eta = RetentionFunction(case, params)
        exact = 1.0 - contact_cdf(eta, np.array([2.0])).values[-1]
        counts = (10**3, 10**4, 10**5, 10**6)
        gaps = [abs(void_probability_discretized(eta, 2.0, n) - exact) for n in counts]
        worst_gap = max(worst_gap, gaps[-1])
        slope = np.polyfit(np.log(counts), np.log(gaps), 1)[0]
        order = -slope
        if abs(order - 1.0) > abs(worst_order - 1.0):
            worst_order = order
    report(8, "annulus-product convergence to the quadrature void probability",
           worst_gap < 1e-3 and 0.8 <= worst_order <= 1.2,
           f"(worst gap at N=1e6: {worst_gap:.2e}, worst order {worst_order:.3f})")


def test_criterion_09_small_delta_asymptote():
    params = ProcessParams(1.0, 1e-3)
    grid = np.linspace(0.0, 4.0, 200)
    curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_MHC, params), grid)
    sup = float(np.max(np.abs(curve.values - (1.0 - np.exp(-math.pi * grid**2)))))
    report(9, "ppp-mhc at delta=1e-3 matches the plain-ppp curve",
           sup < 1e-2, f"(sup {sup:.2e})")


def test_criterion_10_lens_area_oracles():
    rng = np.random.default_rng(7)
    worst_raster = 0.0
    worst_generic = 0.0
    for _ in range(200):
        delta = float(rng.uniform(0.3, 2.5))
        r = float(rng.uniform(1e-3, 4.0)) * delta
        # a lens between disks of radius delta is delta**2 times the unit lens
        sym = delta * delta * lens_symmetric(r / delta)
        asym = delta * delta * lens_asymmetric(r / delta)
        worst_raster = max(
            worst_raster,
            abs(sym - lens_area_raster(r, delta, delta, cells=2400)),
            abs(asym - lens_area_raster(r, r, delta, cells=2400)),
        )
        generic_sym = lens_area_two_circles(r, delta, delta)
        generic_asym = lens_area_two_circles(r, r, delta)
        if generic_sym > 0.0:
            worst_generic = max(worst_generic, abs(sym - generic_sym) / generic_sym)
        worst_generic = max(worst_generic, abs(asym - generic_asym) / generic_asym)

    # branch agreement AT the boundary radii: at r = delta/2 the segment
    # branch must reproduce the containment value pi*r**2 exactly, and at
    # r = 2*delta the closed form must reproduce the vanished lens
    worst_continuity = 0.0
    for delta in (0.3, 1.0, 2.2):
        half = 0.5 * delta
        contained = math.pi * half * half
        worst_continuity = max(
            worst_continuity,
            abs(delta * delta * lens_asymmetric(half / delta) - contained) / contained,
            delta * delta * lens_symmetric(2.0 * delta / delta) / (math.pi * delta * delta),
        )
    report(10, "lens areas vs rasterisation, generic formula, and branch continuity",
           worst_raster < 1e-3 and worst_generic < 1e-12 and worst_continuity < 1e-12,
           f"(raster {worst_raster:.2e}, generic rel {worst_generic:.2e}, "
           f"continuity {worst_continuity:.2e})")


def test_criterion_11_report_determinism(tmp_path):
    args = [
        "compare", "--case", "ppp-ppp", "--window", "40", "--reps", "3",
        "--seed", str(SEED), "--points", "80", "--threshold", "0.1",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1 = cli_main(args + ["--out", str(first)])
    code2 = cli_main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    report(11, "byte-identical reports for identical config and seed",
           identical and code1 == code2 == 0,
           f"(identical={identical}, exits {code1}/{code2})")
