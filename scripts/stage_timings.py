#!/usr/bin/env python3
"""Best-of-3 wall times of the simulation stages at ~1e4, 1e5 and 1e6 parents.

Times ``sample_ppp``, ``thin_mhc_type2``, ``nn_distances_within`` (MHC to MHC)
and ``nn_distances_cross`` (an independent Poisson observer to MHC) with
``time.perf_counter`` at lambda_p = 1 on square tori of side 100, 316 and
1000, for delta 0.5 and 1. Every stage runs on the same seeded patterns on
every commit, so two files from the same machine compare stage by stage.
Writes ``BENCH_<label>.json`` and prints one line per row:

    PYTHONPATH=src python scripts/stage_timings.py --label after
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from matern_contact import (
    PointLabel,
    Window,
    nn_distances_cross,
    nn_distances_within,
    sample_ppp,
    thin_mhc_type2,
)


REPEATS = 3
SIDES = (100.0, 316.0, 1000.0)  # ~1e4, 1e5 and 1e6 parents at lambda_p = 1


def best_of(repeats: int, fn, *args):
    """Smallest wall time of ``repeats`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def stage_row(side: float, delta: float, repeats: int) -> dict:
    window = Window(side, side)
    sample_s, parents = best_of(repeats, sample_ppp, 1.0, window, (5, 0, 0))
    thin_s, thinned = best_of(repeats, thin_mhc_type2, parents, delta)
    observers = sample_ppp(1.0, window, (5, 0, 1))
    mhc = PointLabel.MHC
    within_s, _ = best_of(repeats, nn_distances_within, thinned, mhc)
    cross_s, _ = best_of(
        repeats, nn_distances_cross, observers, PointLabel.PARENT, thinned, mhc
    )
    return {
        "side": side,
        "delta": delta,
        "parents": parents.n,
        "survivors": thinned.count(mhc),
        "observers": observers.n,
        "sample_s": sample_s,
        "thin_s": thin_s,
        "nn_within_s": within_s,
        "nn_cross_s": cross_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    stage_row(20.0, 1.0, 1)  # imports scipy.spatial before anything is timed
    rows = []
    for side in SIDES:
        for delta in (0.5, 1.0):
            row = stage_row(side, delta, REPEATS)
            rows.append(row)
            print(
                f"parents {row['parents']:>8}  delta {delta:g}  "
                f"sample {row['sample_s']:.4f} s  thin {row['thin_s']:.4f} s  "
                f"nn_within {row['nn_within_s']:.4f} s  "
                f"nn_cross {row['nn_cross_s']:.4f} s",
                flush=True,
            )
    record = {
        "label": args.label,
        "repeats": REPEATS,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rows": rows,
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
