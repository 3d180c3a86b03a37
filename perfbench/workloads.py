"""Workload definitions: each workload is a fixed list of CLI invocations
(argv lists for ``matern_contact.cli.main``) generated from the benchmark
seed. The same seed always gives the same argv lists.

Sizes are chosen so that one pass takes a few seconds on a 2-core machine and
a run of ``--seconds`` seconds holds several passes; ``--smoke`` shrinks every
size but keeps the invocation shapes, so the smoke run takes the same code
path and the same checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMPARE_CASES = ("ppp-ppp", "mhc-mhc", "ppp-mhc", "cmhc-mhc")
ANALYTIC_CASES = ("mhc-mhc", "ppp-mhc", "cmhc-mhc")
ANALYTIC_DELTAS = (0.5, 0.75, 1.0)

# full size, smoke size
SIZES = {
    "compare-small": {"window": (100, 30), "reps": (5, 1)},
    "compare-large": {"window": (500, 40), "reps": (1, 1)},
    "analytic-sweep": {"points": (1000, 40), "tol": ("1e-10", "1e-8")},
}


@dataclass(frozen=True)
class Workload:
    name: str
    # "work_per_s" counts sampled parent points on compare workloads and
    # analytic curve points on analytic workloads
    work_unit: str
    invocations: tuple[tuple[str, ...], ...]


def _size(workload: str, key: str, smoke: bool):
    full, small = SIZES[workload][key]
    return small if smoke else full


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Invocation list of workload ``name`` for benchmark seed ``seed``."""
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(SIZES)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "analytic-sweep":
        points = str(_size(name, "points", smoke))
        tol = _size(name, "tol", smoke)
        invocations = []
        for case in ANALYTIC_CASES:
            # +-2% jitter: seed-dependent inputs with nearly the same work
            deltas = [f"{d * (1.0 + 0.04 * (rng.random() - 0.5)):.6f}" for d in ANALYTIC_DELTAS]
            invocations.append(
                ("analytic", "--case", case, "--lambda", "1", "--delta", *deltas,
                 "--points", points, "--tol", tol)
            )
        return Workload(name, "curve_points", tuple(invocations))

    window = str(_size(name, "window", smoke))
    reps = str(_size(name, "reps", smoke))
    cli_seed = str(rng.randrange(1, 2**31))
    if name == "compare-small":
        plan = [(case, ("1",) if case == "ppp-ppp" else ("0.5", "1")) for case in COMPARE_CASES]
    else:
        plan = [("mhc-mhc", ("1",)), ("ppp-mhc", ("1",))]
    invocations = tuple(
        ("compare", "--case", case, "--lambda", "1", "--delta", *deltas,
         "--window", window, "--reps", reps, "--seed", cli_seed)
        for case, deltas in plan
    )
    return Workload(name, "parents", invocations)
