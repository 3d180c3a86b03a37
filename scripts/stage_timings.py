#!/usr/bin/env python3
"""Wall and CPU times of the simulation stages at ~1e4, 1e5 and 1e6 parents,
and of the analytic curve's quadrature.

Times ``sample_ppp``, ``thin_mhc_type2``, ``nn_distances_within`` (MHC to MHC)
and ``nn_distances_cross`` (an independent Poisson observer to MHC) at
lambda_p = 1 on square tori of side 100, 316 and 1000, for delta 0.5 and 1,
and ``ks_sup_distance`` (``sup``) between the MHC-to-MHC distances and the
mhc-mhc curve on the default report grid. The sup's best-of-``REPEATS``
leaves out the first call's growth of the curve's table out to the largest
distance. Thinning is timed on both of its paths, the calling thread alone
(``thin``) and with a helper thread running the odd row bands
(``thin_helper``), their calls taking turns, so that the two rows of one file
compare without the machine's drift between runs.
Each stage records ``time.perf_counter`` and ``time.process_time``; CPU above
wall means the stage ran on more than one core. For each of ``SEEDS`` a stage
takes the best of ``REPEATS`` calls, and a row holds the median over the seeds,
since single runs spread widely. Every stage runs on the same seeded patterns
on every commit, so two files from the same machine compare stage by stage.
The NN rows also hold the share of queries each step of the search settled
(``nn_within_settled``, ``nn_cross_settled``): on the plain tree, on the
strip along the seams and by the unbounded fallback, pooled over the seeds.
They come from the search's own counts, so they are exact and the same on
every machine.

The analytic section times ``contact_cdf`` for mhc-mhc, ppp-mhc and cmhc-mhc
at the analytic sweep's shape: lambda_p = 1, delta 0.5 and 1, ``POINTS`` radii
of ``default_r_grid``, tolerance ``TOL``. Each of ``ANALYTIC_REPEATS`` calls
gets a fresh ``RetentionFunction``, so every call pays for building its
tables, and a row holds the median and quartiles of the calls: a best of
three single calls of 20-50 ms cannot resolve a change of 10%.

The pooled section times ``pooled_distances`` end to end for ``POOLED_REPS``
replications of mhc-mhc and ppp-mhc at lambda_p = 1 on the side-100 torus,
delta 0.5 and 1: every stage above, replication after replication, as
``compare`` runs them. Rows hold the median and quartiles of
``POOLED_REPEATS`` calls; CPU above wall means a second core worked, in
scipy's query threads or in two replications running at once, on the calling
thread and the lane.

The serialisation section times what the command line writes: the CSV of
an ``analytic`` curve of ``POINTS`` radii (``CdfCurve.to_dict`` and
``cli._csv``), and the JSON of a ``compare`` report (``to_dict`` and
``json.dumps`` as ``cli.cmd_compare`` calls it) for mhc-mhc at delta 1 on the
side-100 torus, ``POOLED_REPS`` replications, the README experiment's size.
Rows hold the median and quartiles of ``SERIAL_REPEATS`` calls, each on the
same curve or report, built once before the timing.

The lens section times ``lens_symmetric`` and ``lens_asymmetric`` on
``LENS_SIZES`` seeded uniform radii in [0, 10], which cross every branch of
both: rows hold the median and quartiles of ``LENS_REPEATS`` calls.
Writes ``BENCH_<label>.json`` and prints one line per row:

    PYTHONPATH=src python scripts/stage_timings.py --label after
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from matern_contact import (
    ContactCase,
    ExperimentConfig,
    PointLabel,
    ProcessParams,
    RetentionFunction,
    Window,
    contact_cdf,
    default_r_grid,
    nn_distances_cross,
    nn_distances_within,
    sample_ppp,
    thin_mhc_type2,
)
from matern_contact.cli import _csv
from matern_contact.estimate import (
    _labelled_points,
    _nearest,
    empirical_cdf,
    ks_sup_distance,
    pooled_distances,
    run_experiment,
)
from matern_contact.geometry import lens_asymmetric, lens_symmetric
from matern_contact.simulate import _band_count


REPEATS = 3
ANALYTIC_REPEATS = 11
SEEDS = (5, 6, 7)
SIDES = (100.0, 316.0, 1000.0)  # ~1e4, 1e5 and 1e6 parents at lambda_p = 1
STAGES = ("sample", "thin", "thin_helper", "nn_within", "nn_cross", "sup")
SETTLED_BY = ("plain", "strip", "fallback")
DELTAS = (0.5, 1.0)
ANALYTIC_CASES = (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC)
POINTS = 1000
TOL = 1e-10
POOLED_CASES = (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC)
POOLED_REPS = 5
POOLED_REPEATS = 11
POOLED_SIDE = 100.0
SERIAL_REPEATS = 21
LENS_SIZES = (1_000, 100_000)
LENS_REPEATS = 21


def best_of(repeats: int, fn, *args):
    """Smallest wall and smallest CPU time of ``repeats`` calls, and the last
    call's result."""
    wall = cpu = float("inf")
    for _ in range(repeats):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall = min(wall, time.perf_counter() - start_wall)
        cpu = min(cpu, time.process_time() - start_cpu)
    return (wall, cpu), result


def best_in_turns(repeats: int, *calls) -> list:
    """:func:`best_of` for each ``(fn, *args)`` of ``calls``, one call of each
    in turn, ``repeats`` times over."""
    best = [best_of(1, *call) for call in calls]
    for _ in range(repeats - 1):
        for k, call in enumerate(calls):
            (wall, cpu), result = best_of(1, *call)
            best[k] = (min(best[k][0][0], wall), min(best[k][0][1], cpu)), result
    return best


def seed_row(side: float, delta: float, seed: int, repeats: int) -> dict:
    window = Window(side, side)
    mhc = PointLabel.MHC
    times = {}
    times["sample"], parents = best_of(repeats, sample_ppp, 1.0, window, (seed, 0, 0))
    with ThreadPoolExecutor(1) as helper:
        helper.submit(int).result()  # the thread starts before the timing does
        (times["thin"], thinned), (times["thin_helper"], _) = best_in_turns(
            repeats,
            (thin_mhc_type2, parents, delta),
            (thin_mhc_type2, parents, delta, helper),
        )
    observers = sample_ppp(1.0, window, (seed, 0, 1))
    times["nn_within"], within = best_of(repeats, nn_distances_within, thinned, mhc)
    times["nn_cross"], _ = best_of(
        repeats, nn_distances_cross, observers, PointLabel.PARENT, thinned, mhc
    )
    case, params = ContactCase.MHC_TO_MHC, ProcessParams(1.0, delta)
    curve = contact_cdf(RetentionFunction(case, params), default_r_grid(case, params))
    times["sup"], _ = best_of(repeats, ks_sup_distance, empirical_cdf(within), curve)
    targets = _labelled_points(thinned, mhc)
    return {
        "parents": parents.n,
        "bands": _band_count(parents.n),
        "survivors": thinned.count(mhc),
        "observers": observers.n,
        "times": times,
        "settled": {
            "nn_within": _nearest(targets, window)[1],
            "nn_cross": _nearest(targets, window, _labelled_points(observers, PointLabel.PARENT))[1],
        },
    }


def stage_row(side: float, delta: float) -> dict:
    """Counts per seed, the share of NN queries each search step settled
    over all seeds (``<stage>_settled``), and each stage's median over
    ``SEEDS`` of its best-of-``REPEATS`` wall (``<stage>_s``) and CPU
    (``<stage>_cpu_s``)."""
    per_seed = [seed_row(side, delta, seed, REPEATS) for seed in SEEDS]
    row = {"side": side, "delta": delta, "seeds": list(SEEDS)}
    for count in ("parents", "bands", "survivors", "observers"):
        row[count] = [r[count] for r in per_seed]
    for stage in ("nn_within", "nn_cross"):
        settled = np.sum([r["settled"][stage] for r in per_seed], axis=0)
        row[f"{stage}_settled"] = dict(zip(SETTLED_BY, (settled / settled.sum()).tolist()))
    for stage in STAGES:
        for k, suffix in enumerate(("s", "cpu_s")):
            row[f"{stage}_{suffix}"] = statistics.median(r["times"][stage][k] for r in per_seed)
    return row


def quartiles_of(name: str, repeats: int, fn) -> tuple[dict, object]:
    """Median and quartiles of the wall (``<name>_s``, ``<name>_q1_s``,
    ``<name>_q3_s``) and CPU (``<name>_cpu_s``, ...) times of ``repeats``
    calls of ``fn()``, and the last call's result."""
    walls, cpus = [], []
    for _ in range(repeats):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        result = fn()
        walls.append(time.perf_counter() - start_wall)
        cpus.append(time.process_time() - start_cpu)
    row = {}
    for kind, times in (("", walls), ("_cpu", cpus)):
        q1, median, q3 = np.percentile(times, (25, 50, 75))
        row.update({f"{name}{kind}_s": median, f"{name}{kind}_q1_s": q1,
                    f"{name}{kind}_q3_s": q3})
    return row, result


def analytic_row(case: ContactCase, delta: float, points: int, repeats: int) -> dict:
    """Median and quartiles of the wall and CPU times of ``repeats``
    ``contact_cdf`` calls, each on a fresh ``RetentionFunction``."""
    params = ProcessParams(1.0, delta)
    grid = default_r_grid(case, params, points)
    times, curve = quartiles_of(
        "contact_cdf", repeats, lambda: contact_cdf(RetentionFunction(case, params), grid, TOL)
    )
    return {"case": case.value, "delta": delta, "points": points, "radii": len(curve.radii),
            "repeats": repeats, **times}


def pooled_row(case: ContactCase, delta: float, side: float, repeats: int) -> dict:
    """Median and quartiles of the wall and CPU times of ``repeats``
    ``pooled_distances`` calls on one ``POOLED_REPS``-replication config."""
    config = ExperimentConfig(case, ProcessParams(1.0, delta), Window(side, side),
                              replications=POOLED_REPS, seed=SEEDS[0])
    times, emp = quartiles_of("pooled", repeats, lambda: pooled_distances(config))
    return {"case": case.value, "delta": delta, "side": side, "replications": POOLED_REPS,
            "seed": SEEDS[0], "samples": emp.n, "repeats": repeats, **times}


def serialisation_rows(points: int, side: float, repeats: int) -> list[dict]:
    """Median and quartiles of the wall and CPU times of ``repeats`` writes
    of one mhc-mhc curve of ``points`` radii as CSV (``format`` "csv") and
    of one compare report on a torus of side ``side`` as JSON ("json")."""
    params = ProcessParams(1.0, 1.0)
    case = ContactCase.MHC_TO_MHC
    curve = contact_cdf(RetentionFunction(case, params), default_r_grid(case, params, points), TOL)

    def write_csv() -> str:
        table = curve.to_dict()
        return _csv("r,F,abs_error", table["radii"], table["F"], table["abs_error"])

    config = ExperimentConfig(case, params, Window(side, side), replications=POOLED_REPS,
                              seed=SEEDS[0])
    report = run_experiment(config)

    def write_json() -> str:
        return json.dumps({"reports": [report.to_dict()]}, sort_keys=True, indent=2)

    rows = []
    for name, write in (("csv", write_csv), ("json", write_json)):
        times, text = quartiles_of("write", repeats, write)
        rows.append({"format": name, "bytes": len(text), "repeats": repeats, **times})
    return rows


def lens_rows(sizes: tuple[int, ...], repeats: int) -> list[dict]:
    """Median and quartiles of the wall and CPU times of ``repeats`` calls of
    each lens on each of ``sizes`` seeded uniform radii in [0, 10]."""
    rows = []
    for n in sizes:
        radii = np.random.default_rng(SEEDS[0]).uniform(0.0, 10.0, n)
        for lens in (lens_symmetric, lens_asymmetric):
            times, _ = quartiles_of("lens", repeats, lambda: lens(radii))
            rows.append({"lens": lens.__name__, "radii": n, "repeats": repeats, **times})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    seed_row(20.0, 1.0, SEEDS[0], 1)  # imports scipy.spatial before anything is timed
    rows = []
    for side in SIDES:
        for delta in DELTAS:
            row = stage_row(side, delta)
            rows.append(row)
            stages = "  ".join(
                f"{stage} {row[stage + '_s']:.4f} s (cpu {row[stage + '_cpu_s']:.4f})"
                for stage in STAGES
            )
            settled = "  ".join(
                f"{stage} settled " + " ".join(
                    f"{by} {share:.4f}" for by, share in row[stage + "_settled"].items()
                )
                for stage in ("nn_within", "nn_cross")
            )
            print(f"side {side:g}  delta {delta:g}  {stages}  {settled}", flush=True)
    analytic = []
    for case in ANALYTIC_CASES:
        for delta in DELTAS:
            row = analytic_row(case, delta, POINTS, ANALYTIC_REPEATS)
            analytic.append(row)
            print(
                f"{case.value}  delta {delta:g}  contact_cdf {row['contact_cdf_s']:.4f} s "
                f"[{row['contact_cdf_q1_s']:.4f}-{row['contact_cdf_q3_s']:.4f}] "
                f"(cpu {row['contact_cdf_cpu_s']:.4f})",
                flush=True,
            )
    pooled = []
    for case in POOLED_CASES:
        for delta in DELTAS:
            row = pooled_row(case, delta, POOLED_SIDE, POOLED_REPEATS)
            pooled.append(row)
            print(
                f"{case.value}  delta {delta:g}  pooled {row['pooled_s']:.4f} s "
                f"[{row['pooled_q1_s']:.4f}-{row['pooled_q3_s']:.4f}] "
                f"(cpu {row['pooled_cpu_s']:.4f})",
                flush=True,
            )
    serialisation = serialisation_rows(POINTS, POOLED_SIDE, SERIAL_REPEATS)
    for row in serialisation:
        print(
            f"{row['format']}  {row['bytes']} bytes  write {row['write_s']:.4f} s "
            f"[{row['write_q1_s']:.4f}-{row['write_q3_s']:.4f}] (cpu {row['write_cpu_s']:.4f})",
            flush=True,
        )
    lens = lens_rows(LENS_SIZES, LENS_REPEATS)
    for row in lens:
        print(
            f"{row['lens']}  {row['radii']} radii  {row['lens_s'] * 1e3:.3f} ms "
            f"[{row['lens_q1_s'] * 1e3:.3f}-{row['lens_q3_s'] * 1e3:.3f}]",
            flush=True,
        )
    record = {
        "label": args.label,
        "repeats": REPEATS,
        "seeds": list(SEEDS),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rows": rows,
        "analytic": {"points": POINTS, "tol": TOL, "repeats": ANALYTIC_REPEATS, "rows": analytic},
        "pooled": {"replications": POOLED_REPS, "repeats": POOLED_REPEATS, "rows": pooled},
        "serialisation": {"points": POINTS, "side": POOLED_SIDE, "repeats": SERIAL_REPEATS,
                          "rows": serialisation},
        "lens": {"repeats": LENS_REPEATS, "rows": lens},
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
