"""Machine-speed calibration: a fixed kernel, independent of the package,
run between the timed invocations.

Shared virtual machines drift in speed with outside load. On the 2-vCPU Xeon
VM this benchmark was tuned on, a fixed 50 ms probe read between 43 and 71 ms
over four minutes, in phases of 5-60 s, and CPU time tracked wall time, so
neither longer runs nor CPU time remove the drift. The end-to-end times are
therefore reported in reference seconds: each invocation's measured seconds
scaled by REFERENCE_S / (geometric mean of the kernel runs just before and
after it). The kernel mixes what the workloads do (array sorts and gathers,
many small-array numpy calls, plain interpreter loops), so it slows down
with them.
"""

from __future__ import annotations

import time

import numpy as np

# nominal kernel time; a reference second is a second on a machine that
# runs the kernel in this time
REFERENCE_S = 0.08

_rng = np.random.default_rng(20260808)
_BIG = _rng.random(1 << 17)
_ORDER = _rng.permutation(1 << 17)
_SMALL = _rng.random(31)


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel: about equal
    parts of array sorting and gathers, small-array numpy calls, and plain
    interpreter work."""
    start = time.perf_counter()
    keys = np.sort(_BIG)
    np.searchsorted(keys, _BIG[_ORDER])
    for _ in range(6_000):
        x = _SMALL * 0.5
        inside = x < 0.25
        np.where(inside, np.arccos(np.clip(x, -1.0, 1.0)), np.sqrt(x)).sum()
    total = 0
    for i in range(350_000):
        total += i
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale from measured to reference seconds for an interval bracketed by
    kernel runs of ``before`` and ``after`` seconds."""
    return REFERENCE_S / (before * after) ** 0.5
