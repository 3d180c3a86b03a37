#!/usr/bin/env python3
"""Wall and CPU times of the simulation stages at ~1e4, 1e5 and 1e6 parents,
and of the analytic curve's quadrature.

Times ``sample_ppp``, ``thin_mhc_type2``, ``nn_distances_within`` (MHC to MHC)
and ``nn_distances_cross`` (an independent Poisson observer to MHC) at
lambda_p = 1 on square tori of side 100, 316 and 1000, for delta 0.5 and 1.
Each stage records ``time.perf_counter`` and ``time.process_time``; CPU above
wall means the stage ran on more than one core. For each of ``SEEDS`` a stage
takes the best of ``REPEATS`` calls, and a row holds the median over the seeds,
since single runs spread widely. Every stage runs on the same seeded patterns
on every commit, so two files from the same machine compare stage by stage.

The analytic section times ``contact_cdf`` for mhc-mhc, ppp-mhc and cmhc-mhc
at the analytic sweep's shape: lambda_p = 1, delta 0.5 and 1, ``POINTS`` radii
of ``default_r_grid``, tolerance ``TOL``; each row is the best of ``REPEATS``.
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
from pathlib import Path

import numpy as np
import scipy

from matern_contact import (
    ContactCase,
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


REPEATS = 3
SEEDS = (5, 6, 7)
SIDES = (100.0, 316.0, 1000.0)  # ~1e4, 1e5 and 1e6 parents at lambda_p = 1
STAGES = ("sample", "thin", "nn_within", "nn_cross")
DELTAS = (0.5, 1.0)
ANALYTIC_CASES = (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC)
POINTS = 1000
TOL = 1e-10


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


def seed_row(side: float, delta: float, seed: int, repeats: int) -> dict:
    window = Window(side, side)
    mhc = PointLabel.MHC
    times = {}
    times["sample"], parents = best_of(repeats, sample_ppp, 1.0, window, (seed, 0, 0))
    times["thin"], thinned = best_of(repeats, thin_mhc_type2, parents, delta)
    observers = sample_ppp(1.0, window, (seed, 0, 1))
    times["nn_within"], _ = best_of(repeats, nn_distances_within, thinned, mhc)
    times["nn_cross"], _ = best_of(
        repeats, nn_distances_cross, observers, PointLabel.PARENT, thinned, mhc
    )
    return {
        "parents": parents.n,
        "survivors": thinned.count(mhc),
        "observers": observers.n,
        "times": times,
    }


def stage_row(side: float, delta: float) -> dict:
    """Counts per seed, and each stage's median over ``SEEDS`` of its
    best-of-``REPEATS`` wall (``<stage>_s``) and CPU (``<stage>_cpu_s``)."""
    per_seed = [seed_row(side, delta, seed, REPEATS) for seed in SEEDS]
    row = {"side": side, "delta": delta, "seeds": list(SEEDS)}
    for count in ("parents", "survivors", "observers"):
        row[count] = [r[count] for r in per_seed]
    for stage in STAGES:
        for k, suffix in enumerate(("s", "cpu_s")):
            row[f"{stage}_{suffix}"] = statistics.median(r["times"][stage][k] for r in per_seed)
    return row


def analytic_row(case: ContactCase, delta: float, points: int, repeats: int) -> dict:
    """Best-of-``repeats`` wall and CPU time of one ``contact_cdf`` call."""
    params = ProcessParams(1.0, delta)
    grid = default_r_grid(case, params, points)
    (wall, cpu), curve = best_of(repeats, contact_cdf, RetentionFunction(case, params), grid, TOL)
    return {
        "case": case.value,
        "delta": delta,
        "points": points,
        "radii": len(curve.radii),
        "contact_cdf_s": wall,
        "contact_cdf_cpu_s": cpu,
    }


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
            print(f"side {side:g}  delta {delta:g}  {stages}", flush=True)
    analytic = []
    for case in ANALYTIC_CASES:
        for delta in DELTAS:
            row = analytic_row(case, delta, POINTS, REPEATS)
            analytic.append(row)
            print(
                f"{case.value}  delta {delta:g}  contact_cdf {row['contact_cdf_s']:.4f} s "
                f"(cpu {row['contact_cdf_cpu_s']:.4f})",
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
        "analytic": {"points": POINTS, "tol": TOL, "rows": analytic},
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
